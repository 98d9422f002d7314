package comm

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("drop=0.05,delay=0.02:500us,dup=0.01,reorder=0.03,crash=1@20", 42)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || p.Drop != 0.05 || p.Delay != 0.02 ||
		p.DelayBy != 500*time.Microsecond || p.Duplicate != 0.01 ||
		p.Reorder != 0.03 || p.CrashRank != 1 || p.CrashStep != 20 {
		t.Fatalf("parsed %+v", p)
	}
	if !p.Active() {
		t.Fatal("plan with faults should be active")
	}
	// Delay without an explicit duration gets the default.
	p, err = ParseFaultPlan("delay=0.5", 1)
	if err != nil || p.DelayBy != 200*time.Microsecond {
		t.Fatalf("default delay: %+v, %v", p, err)
	}
	// Empty spec parses to an inactive plan.
	p, err = ParseFaultPlan("", 1)
	if err != nil || p.Active() {
		t.Fatalf("empty spec: %+v, %v", p, err)
	}
	for _, bad := range []string{
		"drop", "drop=2", "drop=-0.1", "drop=x", "delay=0.1:oops",
		"crash=1", "crash=x@2", "crash=1@0", "wibble=1",
	} {
		if _, err := ParseFaultPlan(bad, 0); err == nil {
			t.Fatalf("spec %q should fail to parse", bad)
		}
	}
}

// fate records the injector's decision for one message as a comparable value.
func fate(in Message, out []Message) string {
	switch {
	case len(out) == 0:
		return "drop-or-hold"
	case len(out) == 1 && out[0].Seq == in.Seq && out[0].Delay == 0:
		return "deliver"
	case len(out) == 1 && out[0].Delay > 0:
		return "deliver-delayed"
	default:
		return "multi"
	}
}

func TestFaultInjectorDeterministic(t *testing.T) {
	plan := FaultPlan{Seed: 7, Drop: 0.2, Delay: 0.1, DelayBy: time.Millisecond,
		Duplicate: 0.1, Reorder: 0.2}
	run := func() []string {
		inj := NewFaultInjector(plan, 3)
		var fates []string
		for i := 0; i < 200; i++ {
			m := Message{From: i % 3, To: (i + 1) % 3, Tag: TagForces, Seq: uint64(i)}
			fates = append(fates, fate(m, inj.Transmit(m)))
		}
		return fates
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("message %d: same seed gave %q then %q", i, a[i], b[i])
		}
	}
	// A different seed must give a different schedule (overwhelmingly).
	plan.Seed = 8
	c := run()
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced an identical fault schedule")
	}
}

func TestFaultInjectorStatsAndReorder(t *testing.T) {
	// Reorder=1: the first message on a pair is held, the second delivery
	// carries it behind itself.
	inj := NewFaultInjector(FaultPlan{Seed: 1, Reorder: 1}, 2)
	first := inj.Transmit(Message{From: 0, To: 1, Tag: TagForces, Seq: 0})
	if len(first) != 0 {
		t.Fatalf("first message should be held, got %d deliveries", len(first))
	}
	second := inj.Transmit(Message{From: 0, To: 1, Tag: TagForces, Seq: 1})
	if len(second) != 2 || second[0].Seq != 1 || second[1].Seq != 0 {
		t.Fatalf("reorder delivery = %+v", second)
	}
	if st := inj.Stats(); st.Reordered != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Reset clears a pending hold so it cannot leak into a restarted run.
	inj.Transmit(Message{From: 0, To: 1, Tag: TagForces, Seq: 2}) // held again
	inj.Reset()
	out := inj.Transmit(Message{From: 0, To: 1, Tag: TagForces, Seq: 3})
	for _, m := range out {
		if m.Seq == 2 {
			t.Fatal("Reset did not clear the held message")
		}
	}
}

func TestCrashOnce(t *testing.T) {
	inj := NewFaultInjector(FaultPlan{Seed: 1, CrashStep: 5, CrashRank: 1}, 2)
	if inj.CrashNow(0, 5) {
		t.Fatal("wrong rank crashed")
	}
	if inj.CrashNow(1, 4) {
		t.Fatal("crashed before the planned step")
	}
	if !inj.CrashNow(1, 5) {
		t.Fatal("planned crash did not fire")
	}
	if inj.CrashNow(1, 6) {
		t.Fatal("crash fired twice")
	}
	inj.Reset()
	if inj.CrashNow(1, 7) {
		t.Fatal("Reset revived a consumed crash")
	}
}

// dropFirst is a Transport that drops the first n messages it sees and
// delivers everything after reliably.
type dropFirst struct {
	n    int64
	seen atomic.Int64
}

func (d *dropFirst) Transmit(m Message) []Message {
	if d.seen.Add(1) <= d.n {
		return nil
	}
	return []Message{m}
}

func TestRecvDeadlineRecoversDrop(t *testing.T) {
	c := NewClusterOptions(2, Options{
		Transport:        &dropFirst{n: 1},
		ExchangeDeadline: 5 * time.Millisecond,
		RetryLimit:       4,
	})
	a, b := c.Endpoint(0), c.Endpoint(1)
	done := make(chan struct{})
	go func() {
		a.Send(1, TagForces, []float64{42})
		// The send was dropped; keep answering resend requests until the
		// receiver confirms delivery.
		for {
			select {
			case <-done:
				return
			default:
				a.Poll()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	got, err := b.RecvDeadline(0, TagForces)
	close(done)
	if err != nil || len(got) != 1 || got[0] != 42 {
		t.Fatalf("RecvDeadline = %v, %v", got, err)
	}
	fs := c.FabricStats()
	if fs.Retries < 1 || fs.ResendsServed < 1 {
		t.Fatalf("recovery not exercised: %+v", fs)
	}
	if s := b.StatsSnapshot(); s.Retries < 1 {
		t.Fatalf("endpoint retry counter not bumped: %+v", s)
	}
}

func TestRecvDeadlineTimesOut(t *testing.T) {
	c := NewClusterOptions(2, Options{
		ExchangeDeadline: 2 * time.Millisecond,
		RetryLimit:       2,
	})
	b := c.Endpoint(1)
	t0 := time.Now()
	_, err := b.RecvDeadline(0, TagForces)
	if !errors.Is(err, ErrExchangeTimeout) {
		t.Fatalf("want ErrExchangeTimeout, got %v", err)
	}
	// Deadline 2ms with backoff 2+4+8 = at least 14ms before giving up.
	if elapsed := time.Since(t0); elapsed < 10*time.Millisecond {
		t.Fatalf("gave up after only %v — backoff not applied", elapsed)
	}
	if fs := c.FabricStats(); fs.Timeouts != 1 || fs.Retries != 2 {
		t.Fatalf("fabric stats %+v", fs)
	}
}

func TestDuplicatesFiltered(t *testing.T) {
	inj := NewFaultInjector(FaultPlan{Seed: 3, Duplicate: 1}, 2)
	c := NewClusterOptions(2, Options{
		Transport:        inj,
		ExchangeDeadline: 10 * time.Millisecond,
		RetryLimit:       2,
	})
	a, b := c.Endpoint(0), c.Endpoint(1)
	for i := 0; i < 5; i++ {
		a.Send(1, TagForces, []float64{float64(i)})
	}
	for i := 0; i < 5; i++ {
		got, err := b.RecvDeadline(0, TagForces)
		if err != nil || got[0] != float64(i) {
			t.Fatalf("message %d: %v, %v", i, got, err)
		}
	}
	fs := c.FabricStats()
	if fs.Injected.Duplicated != 5 {
		t.Fatalf("expected 5 duplications, got %+v", fs.Injected)
	}
	// The duplicate of the final message stays in the pipe (the receiver
	// stops pulling once it has its 5 payloads), so 4 are filtered.
	if fs.DuplicatesDropped < 4 {
		t.Fatalf("sequence filter dropped only %d duplicates", fs.DuplicatesDropped)
	}
}

func TestReorderRestored(t *testing.T) {
	inj := NewFaultInjector(FaultPlan{Seed: 3, Reorder: 1}, 2)
	c := NewClusterOptions(2, Options{
		Transport:        inj,
		ExchangeDeadline: 10 * time.Millisecond,
		RetryLimit:       2,
	})
	a, b := c.Endpoint(0), c.Endpoint(1)
	for i := 0; i < 6; i++ {
		a.Send(1, TagForces, []float64{float64(i)})
	}
	for i := 0; i < 6; i++ {
		got, err := b.RecvDeadline(0, TagForces)
		if err != nil || got[0] != float64(i) {
			t.Fatalf("message %d delivered out of order: %v, %v", i, got, err)
		}
	}
	if st := inj.Stats(); st.Reordered == 0 {
		t.Fatal("no reorders committed")
	}
}

func TestAllReduceMinUnderDrops(t *testing.T) {
	const n, rounds = 3, 30
	inj := NewFaultInjector(FaultPlan{Seed: 99, Drop: 0.2}, n)
	c := NewClusterOptions(n, Options{
		Transport:        inj,
		ExchangeDeadline: 5 * time.Millisecond,
		RetryLimit:       6,
	})
	var wg sync.WaitGroup
	var finished atomic.Int64
	errc := make(chan error, n)
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := c.Endpoint(r)
			for round := 0; round < rounds; round++ {
				got, err := e.AllReduceMin([]float64{float64(round*100 + r)})
				if err != nil {
					errc <- err
					break
				}
				if got[0] != float64(round*100) {
					errc <- errors.New("wrong minimum under drops")
					break
				}
			}
			// Linger answering resend requests until every rank is done,
			// so a dropped final broadcast can still be recovered.
			finished.Add(1)
			for finished.Load() < n {
				e.Poll()
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	fs := c.FabricStats()
	if fs.Injected.Dropped == 0 {
		t.Fatal("fault plan committed no drops — test proves nothing")
	}
	if fs.Retries == 0 {
		t.Fatal("drops happened but no retries were issued")
	}
	if fs.Timeouts != 0 {
		t.Fatalf("reduction should have recovered, saw %d timeouts", fs.Timeouts)
	}
}
