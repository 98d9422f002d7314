package comm

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestClusterSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCluster(0) should panic")
		}
	}()
	NewCluster(0)
}

func TestEndpointRankValidation(t *testing.T) {
	c := NewCluster(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range endpoint should panic")
		}
	}()
	c.Endpoint(2)
}

func TestSendRecvRoundtrip(t *testing.T) {
	c := NewCluster(2)
	a, b := c.Endpoint(0), c.Endpoint(1)
	want := []float64{1, 2, 3}
	go a.Send(1, TagForces, want)
	got := b.Recv(0, TagForces)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	c := NewCluster(2)
	a, b := c.Endpoint(0), c.Endpoint(1)
	buf := []float64{1, 2}
	a.Send(1, TagForces, buf)
	buf[0] = 99 // mutate after send: receiver must see the original
	got := b.Recv(0, TagForces)
	if got[0] != 1 {
		t.Fatalf("payload aliased: got %v", got)
	}
}

func TestMessagesOrderedPerPair(t *testing.T) {
	c := NewCluster(2)
	a, b := c.Endpoint(0), c.Endpoint(1)
	for i := 0; i < 10; i++ {
		a.Send(1, TagForces, []float64{float64(i)})
	}
	for i := 0; i < 10; i++ {
		if got := b.Recv(0, TagForces); got[0] != float64(i) {
			t.Fatalf("message %d out of order: %v", i, got)
		}
	}
}

func TestTagMismatchPanics(t *testing.T) {
	c := NewCluster(2)
	a, b := c.Endpoint(0), c.Endpoint(1)
	a.Send(1, TagForces, []float64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("tag mismatch should panic")
		}
	}()
	b.Recv(0, TagDelv)
}

func TestSendToSelfPanics(t *testing.T) {
	c := NewCluster(2)
	a := c.Endpoint(0)
	defer func() {
		if recover() == nil {
			t.Fatal("send to self should panic")
		}
	}()
	a.Send(0, TagForces, nil)
}

func TestTryRecv(t *testing.T) {
	c := NewCluster(2)
	a, b := c.Endpoint(0), c.Endpoint(1)
	if _, ok := b.TryRecv(0, TagForces); ok {
		t.Fatal("TryRecv on empty pipe returned a message")
	}
	a.Send(1, TagForces, []float64{7})
	got, ok := b.TryRecv(0, TagForces)
	if !ok || got[0] != 7 {
		t.Fatalf("TryRecv = %v, %v", got, ok)
	}
}

func TestRecvWaitAccounting(t *testing.T) {
	c := NewCluster(2)
	a, b := c.Endpoint(0), c.Endpoint(1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		a.Send(1, TagForces, []float64{1})
	}()
	b.Recv(0, TagForces)
	if w := b.StatsSnapshot().Wait; w < 10*time.Millisecond {
		t.Fatalf("blocked receive accounted only %v wait", w)
	}
	// An eager receive must not accumulate wait.
	a.Send(1, TagForces, []float64{2})
	time.Sleep(time.Millisecond)
	before := b.StatsSnapshot().Wait
	b.Recv(0, TagForces)
	if after := b.StatsSnapshot().Wait; after != before {
		t.Fatalf("eager receive accumulated wait: %v -> %v", before, after)
	}
}

func TestStatsCounts(t *testing.T) {
	c := NewCluster(2)
	a, b := c.Endpoint(0), c.Endpoint(1)
	a.Send(1, TagForces, make([]float64, 5))
	b.Recv(0, TagForces)
	sa, sb := a.StatsSnapshot(), b.StatsSnapshot()
	if sa.Sent != 1 || sa.BytesSent != 40 || sb.Received != 1 {
		t.Fatalf("stats: a=%+v b=%+v", sa, sb)
	}
	a.ResetStats()
	if s := a.StatsSnapshot(); s.Sent != 0 || s.BytesSent != 0 {
		t.Fatalf("reset failed: %+v", s)
	}
}

func TestAllReduceMinSingleRank(t *testing.T) {
	c := NewCluster(1)
	e := c.Endpoint(0)
	in := []float64{3, 1}
	out, err := e.AllReduceMin(in)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 3 || out[1] != 1 {
		t.Fatalf("got %v", out)
	}
	out[0] = 99
	if in[0] != 3 {
		t.Fatal("AllReduceMin must not alias its input")
	}
}

func TestAllReduceMinAcrossRanks(t *testing.T) {
	const n = 5
	c := NewCluster(n)
	results := make([][]float64, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := c.Endpoint(r)
			vals := []float64{float64(10 + r), float64(10 - r), 0}
			results[r], _ = e.AllReduceMin(vals)
		}()
	}
	wg.Wait()
	for r := 0; r < n; r++ {
		got := results[r]
		if got[0] != 10 || got[1] != float64(10-(n-1)) || got[2] != 0 {
			t.Fatalf("rank %d reduced to %v", r, got)
		}
	}
}

func TestAllReduceMinRepeatedRounds(t *testing.T) {
	// Repeated reductions must not cross-talk between rounds.
	const n = 3
	c := NewCluster(n)
	var wg sync.WaitGroup
	errc := make(chan string, n)
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := c.Endpoint(r)
			for round := 0; round < 50; round++ {
				got, err := e.AllReduceMin([]float64{float64(round*10 + r)})
				if err != nil {
					errc <- err.Error()
					return
				}
				if got[0] != float64(round*10) {
					errc <- "round mixup"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}

// runAllReduce drives one reduction round on every rank of a fresh
// n-rank cluster and returns each rank's result.
func runAllReduce(t *testing.T, n int, tree bool, vals func(r int) []float64) [][]float64 {
	t.Helper()
	c := NewCluster(n)
	results := make([][]float64, n)
	var wg sync.WaitGroup
	errc := make(chan error, n)
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := c.Endpoint(r)
			var err error
			if tree {
				results[r], err = e.AllReduceMinTree(vals(r))
			} else {
				results[r], err = e.AllReduceMin(vals(r))
			}
			if err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	return results
}

func TestAllReduceMinTreeMatchesLinear(t *testing.T) {
	// The binomial tree must produce bitwise-identical results to the
	// linear gather at every fabric size, power of two or not, including
	// adversarial values (negatives, zero, ±Inf, denormals).
	vals := func(r int) []float64 {
		return []float64{
			float64(10 + r),
			-float64(r) * 1e-310, // denormal magnitudes
			math.Inf(1),
			float64(7 - r),
		}
	}
	for n := 1; n <= 9; n++ {
		linear := runAllReduce(t, n, false, vals)
		tree := runAllReduce(t, n, true, vals)
		for r := 0; r < n; r++ {
			for i := range linear[r] {
				if math.Float64bits(linear[r][i]) != math.Float64bits(tree[r][i]) {
					t.Fatalf("n=%d rank %d elem %d: linear %v tree %v",
						n, r, i, linear[r], tree[r])
				}
			}
			if fmt.Sprint(tree[r]) != fmt.Sprint(tree[0]) {
				t.Fatalf("n=%d rank %d disagrees: %v vs %v", n, r, tree[r], tree[0])
			}
		}
	}
}

func TestAllReduceMinTreeRootMessageCount(t *testing.T) {
	// The point of the tree: rank 0 handles O(log n) messages per
	// reduction instead of O(n). At n=8 the linear gather costs rank 0
	// seven receives and seven sends; the binomial tree costs three each.
	const n = 8
	count := func(tree bool) (sent, received int64) {
		c := NewCluster(n)
		eps := make([]*Endpoint, n)
		for r := range eps {
			eps[r] = c.Endpoint(r)
		}
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				if tree {
					eps[r].AllReduceMinTree([]float64{float64(r)})
				} else {
					eps[r].AllReduceMin([]float64{float64(r)})
				}
			}()
		}
		wg.Wait()
		s := eps[0].StatsSnapshot()
		return s.Sent, s.Received
	}
	ls, lr := count(false)
	ts, tr := count(true)
	if ls != n-1 || lr != n-1 {
		t.Fatalf("linear root traffic: sent=%d received=%d, want %d each", ls, lr, n-1)
	}
	if ts != 3 || tr != 3 {
		t.Fatalf("tree root traffic: sent=%d received=%d, want log2(%d)=3 each", ts, tr, n)
	}
}

func TestAllReduceMinTreeRepeatedRounds(t *testing.T) {
	// Back-to-back tree reductions reuse the same TagReduce streams in
	// both directions; rounds must not cross-talk.
	const n = 6
	c := NewCluster(n)
	var wg sync.WaitGroup
	errc := make(chan string, n)
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := c.Endpoint(r)
			for round := 0; round < 50; round++ {
				got, err := e.AllReduceMinTree([]float64{float64(round*10 + r)})
				if err != nil {
					errc <- err.Error()
					return
				}
				if got[0] != float64(round*10) {
					errc <- "round mixup"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}

func TestDelayTransport(t *testing.T) {
	// The delay transport stamps every delivery with the link latency and
	// composes with an inner transport (here a duplicate-once model whose
	// copies must each carry the delay).
	d := NewDelay(2*time.Millisecond, nil)
	out := d.Transmit(Message{From: 0, To: 1, Tag: TagForces})
	if len(out) != 1 || out[0].Delay != 2*time.Millisecond {
		t.Fatalf("identity transmit: %+v", out)
	}
	if d.Unwrap() != nil {
		t.Fatal("bare delay should unwrap to nil")
	}
	if d.CrashNow(0, 1) {
		t.Fatal("bare delay must not crash anyone")
	}

	inner := NewFaultInjector(FaultPlan{Seed: 1, Delay: 1, DelayBy: time.Millisecond}, 2)
	wrapped := NewDelay(2*time.Millisecond, inner)
	out = wrapped.Transmit(Message{From: 0, To: 1, Tag: TagForces})
	for _, m := range out {
		if m.Delay < 2*time.Millisecond {
			t.Fatalf("inner delivery missing link delay: %+v", m)
		}
	}
	if wrapped.Unwrap() != Transport(inner) {
		t.Fatal("Unwrap must expose the inner transport")
	}
}

func TestFabricStatsUnwrapsDelay(t *testing.T) {
	// FabricStats must find a fault injector hidden behind a Delay layer.
	inner := NewFaultInjector(FaultPlan{Seed: 3, Drop: 1}, 2)
	c := NewClusterOptions(2, Options{
		Transport:        NewDelay(time.Microsecond, inner),
		ExchangeDeadline: time.Millisecond,
		RetryLimit:       1,
	})
	c.Endpoint(0).Send(1, TagForces, []float64{1})
	if got := c.FabricStats().Injected.Dropped; got == 0 {
		t.Fatalf("injected stats not surfaced through Delay: %+v", c.FabricStats())
	}
}

func TestTagStrings(t *testing.T) {
	for _, tag := range []Tag{TagNodalMass, TagReduce, TagTrace, TagForces,
		TagDelv, Tag(99)} {
		if tag.String() == "" {
			t.Fatalf("empty string for tag %d", tag)
		}
	}
}

func TestAccessors(t *testing.T) {
	c := NewClusterLatency(3, 5*time.Millisecond)
	if c.Size() != 3 || c.Latency() != 5*time.Millisecond {
		t.Fatalf("cluster accessors: size=%d latency=%v", c.Size(), c.Latency())
	}
	e := c.Endpoint(2)
	if e.Rank() != 2 || e.Size() != 3 {
		t.Fatalf("endpoint accessors: rank=%d size=%d", e.Rank(), e.Size())
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	c := NewClusterLatency(2, 10*time.Millisecond)
	a, b := c.Endpoint(0), c.Endpoint(1)
	t0 := time.Now()
	a.Send(1, TagForces, []float64{1})
	got := b.Recv(0, TagForces)
	elapsed := time.Since(t0)
	if got[0] != 1 {
		t.Fatalf("payload %v", got)
	}
	if elapsed < 8*time.Millisecond {
		t.Fatalf("latency not applied: delivered after %v", elapsed)
	}
	if w := b.StatsSnapshot().Wait; w < 5*time.Millisecond {
		t.Fatalf("latency wait not accounted: %v", w)
	}
}

func TestTryRecvHonorsLatency(t *testing.T) {
	c := NewClusterLatency(2, 20*time.Millisecond)
	a, b := c.Endpoint(0), c.Endpoint(1)
	a.Send(1, TagForces, []float64{7})
	if _, ok := b.TryRecv(0, TagForces); ok {
		t.Fatal("TryRecv delivered a message before its latency elapsed")
	}
	time.Sleep(25 * time.Millisecond)
	got, ok := b.TryRecv(0, TagForces)
	if !ok || got[0] != 7 {
		t.Fatalf("TryRecv after latency: %v %v", got, ok)
	}
}

func TestHeadBufferThenBlockingRecv(t *testing.T) {
	// A message parked in the head buffer by TryRecv must be delivered by
	// a subsequent blocking Recv.
	c := NewClusterLatency(2, 15*time.Millisecond)
	a, b := c.Endpoint(0), c.Endpoint(1)
	a.Send(1, TagForces, []float64{3})
	if _, ok := b.TryRecv(0, TagForces); ok {
		t.Fatal("premature delivery")
	}
	got := b.Recv(0, TagForces) // must find the head and wait out latency
	if got[0] != 3 {
		t.Fatalf("payload %v", got)
	}
}
