package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lulesh/internal/core"
	"lulesh/internal/domain"
)

// waitState polls until the job reaches a terminal state or the deadline.
func waitState(t *testing.T, m *Manager, id string, timeout time.Duration) JobStatus {
	t.Helper()
	j, ok := m.Get(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	deadline := time.Now().Add(timeout)
	for {
		st := m.Status(j)
		switch st.State {
		case StateDone, StateFailed, StateCancelled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// serialEnergy runs spec's problem on the serial backend and returns the
// final origin energy — the bitwise ground truth for a served job.
func serialEnergy(t *testing.T, sp JobSpec) float64 {
	t.Helper()
	spec, err := domain.ParseScenarioSpec(sp.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	cfg := domain.DefaultConfig(sp.Size)
	if sp.Regions > 0 {
		cfg.NumReg = sp.Regions
	}
	d, err := domain.BuildScenarioCube(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBackendSerial(d)
	defer b.Close()
	if _, err := core.Run(d, b, core.RunConfig{MaxIterations: sp.Iterations}); err != nil {
		t.Fatal(err)
	}
	return d.E[0]
}

// TestConcurrentJobsBitwiseVsSerial is the acceptance-criteria test: >=8
// overlapping jobs submitted to one manager — all multiplexed as isolated
// job contexts on ONE shared amt pool — must each produce a final origin
// energy bitwise identical to the same problem run serially. Run under
// -race this also proves the whole control plane is race-clean.
func TestConcurrentJobsBitwiseVsSerial(t *testing.T) {
	m, err := NewManager(Config{
		Workers:    4,
		MaxRunning: 10, // all jobs genuinely overlap
		ResultsDir: t.TempDir(),
		EventEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	specs := make([]JobSpec, 10)
	for i := range specs {
		specs[i] = JobSpec{
			Scenario:   []string{"sedov", "piston", "multimat:regions=16"}[i%3],
			Size:       4 + i%3,
			Iterations: 8,
			Backend:    "task",
			Tenant:     fmt.Sprintf("tenant-%d", i%4),
		}
	}

	ids := make([]string, len(specs))
	for i, sp := range specs {
		j, err := m.Submit(sp)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = j.ID
	}
	for i, id := range ids {
		st := waitState(t, m, id, 30*time.Second)
		if st.State != StateDone {
			t.Fatalf("job %s: state %s (%s)", id, st.State, st.Error)
		}
		rec, ok, err := m.Store().Get(id)
		if err != nil || !ok {
			t.Fatalf("job %s: result missing (%v)", id, err)
		}
		if rec.JobID != id {
			t.Errorf("record job id %q, want %q", rec.JobID, id)
		}
		if rec.QueueWaitUs < 0 {
			t.Errorf("job %s: negative queue wait", id)
		}
		if err := rec.Validate(); err != nil {
			t.Errorf("job %s: record invalid: %v", id, err)
		}
		got := rec.Counters["origin_energy"]
		want := serialEnergy(t, specs[i])
		if got != want {
			t.Errorf("job %s (%s s=%d): origin energy %x, serial %x — NOT bitwise identical",
				id, specs[i].Scenario, specs[i].Size, got, want)
		}
	}
	if inf := m.Pool().PoolInflight(); inf != 0 {
		t.Errorf("pool inflight after all jobs done: %d", inf)
	}
}

// TestServedRecordsValidate: a served task job and a 2-rank dist job each
// persist a record whose throughput figures are in the documented units
// (fom_zps in zones/s, grind_us_zc its reciprocal in µs), so Validate
// accepts them — and the same record with fom_zps stored in kilo-zones/s
// is refused.
func TestServedRecordsValidate(t *testing.T) {
	m, err := NewManager(Config{Workers: 2, ResultsDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, sp := range []JobSpec{
		{Scenario: "sedov", Size: 4, Iterations: 6, Backend: "task"},
		{Scenario: "sedov", Size: 4, Iterations: 6, Backend: "dist", Ranks: 2},
	} {
		j, err := m.Submit(sp)
		if err != nil {
			t.Fatalf("%s: submit: %v", sp.Backend, err)
		}
		if st := waitState(t, m, j.ID, 30*time.Second); st.State != StateDone {
			t.Fatalf("%s: state %s (%s)", sp.Backend, st.State, st.Error)
		}
		rec, ok, err := m.Store().Get(j.ID)
		if err != nil || !ok {
			t.Fatalf("%s: result missing (%v)", sp.Backend, err)
		}
		if err := rec.Validate(); err != nil {
			t.Errorf("%s: served record invalid: %v", sp.Backend, err)
		}
		zones := float64(sp.Size * sp.Size * sp.Size)
		if sp.Backend == "dist" {
			zones *= float64(sp.Ranks)
		}
		if want := zones * float64(rec.Iterations) / rec.ElapsedSec; rec.FOM != want {
			t.Errorf("%s: fom_zps = %v, want %v zones/s", sp.Backend, rec.FOM, want)
		}
		rec.FOM /= 1000
		if err := rec.Validate(); err == nil {
			t.Errorf("%s: record with fom_zps in kilo-zones/s validated", sp.Backend)
		}
	}
}

// TestAdmissionControl: a manager with a tiny zone budget must serve the
// first job and reject the overflow with a 429-coded AdmissionError
// carrying Retry-After; an unsatisfiably large job gets 400, not 429.
func TestAdmissionControl(t *testing.T) {
	m, err := NewManager(Config{
		Workers:          1,
		MaxRunning:       1,
		MaxQueued:        4,
		MaxInflightZones: 400, // one 6^3=216 job fits; two do not
		ResultsDir:       t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Saturate the budget with a job whose iteration cap is effectively
	// unbounded, so it is still in flight whenever the second submission
	// arrives; it is cancelled below once the rejections are asserted.
	j1, err := m.Submit(JobSpec{Size: 6, Iterations: 100000})
	if err != nil {
		t.Fatalf("first job rejected: %v", err)
	}
	_, err = m.Submit(JobSpec{Size: 6, Iterations: 1})
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("overflow submit: err %v, want *AdmissionError", err)
	}
	if adm.Code != 429 {
		t.Fatalf("overflow code = %d, want 429", adm.Code)
	}
	if adm.RetryAfter <= 0 {
		t.Error("429 rejection carries no Retry-After")
	}

	// A small job still fits alongside: 216+27 < 400.
	if _, err := m.Submit(JobSpec{Size: 3, Iterations: 1}); err != nil {
		t.Fatalf("small job should fit in the remaining budget: %v", err)
	}

	// Unsatisfiable: bigger than the whole budget, even on an idle server.
	_, err = m.Submit(JobSpec{Size: 10, Iterations: 1})
	if !errors.As(err, &adm) || adm.Code != 400 {
		t.Fatalf("unsatisfiable job: err %v, want 400 AdmissionError", err)
	}

	m.Cancel(j1.ID)
	waitState(t, m, j1.ID, 30*time.Second)

	// Budget released after completion: the previously rejected shape fits.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = m.Submit(JobSpec{Size: 6, Iterations: 1}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("budget never released: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueueRejection: the queue-length bound rejects with 429
// independently of the zone budget.
func TestQueueRejection(t *testing.T) {
	m, err := NewManager(Config{
		Workers:    1,
		MaxRunning: 1,
		MaxQueued:  2,
		ResultsDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer func() { // cancel the blockers so Close returns promptly
		for _, st := range m.List() {
			m.Cancel(st.ID)
		}
	}()

	// One effectively-unbounded job occupies the single executor; further
	// ones pile up in the queue until the cap rejects one. With one
	// executor at most one job can leave the queue concurrently, so at
	// worst MaxQueued+2 submissions force a rejection.
	var adm *AdmissionError
	for i := 0; i < 4; i++ {
		if _, err := m.Submit(JobSpec{Size: 6, Iterations: 100000}); err != nil {
			if !errors.As(err, &adm) || adm.Code != 429 {
				t.Fatalf("full-queue submit: err %v, want 429 AdmissionError", err)
			}
			return
		}
	}
	t.Fatal("queue bound of 2 never rejected a submission")
}

// TestCancelQueuedAndRunning: cancelling a queued job finalizes it
// without running; cancelling a running job stops it at a cycle boundary.
func TestCancelQueuedAndRunning(t *testing.T) {
	m, err := NewManager(Config{
		Workers:    2,
		MaxRunning: 1, // force queueing
		ResultsDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	running, err := m.Submit(JobSpec{Size: 8, Iterations: 5000})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(JobSpec{Size: 4, Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}

	if !m.Cancel(queued.ID) {
		t.Fatal("cancel of queued job reported missing")
	}
	if !m.Cancel(running.ID) {
		t.Fatal("cancel of running job reported missing")
	}
	st := waitState(t, m, running.ID, 30*time.Second)
	if st.State != StateCancelled {
		t.Errorf("running job state = %s, want cancelled", st.State)
	}
	st = waitState(t, m, queued.ID, 30*time.Second)
	if st.State != StateCancelled {
		t.Errorf("queued job state = %s, want cancelled", st.State)
	}
	if m.Cancel("job-999999") {
		t.Error("cancel of unknown job reported found")
	}
}

// TestFairQueueOrdering: with one tenant holding a deep backlog, a
// second tenant's job must dispatch before the backlog drains — the
// no-starvation property of start-time fair queueing.
func TestFairQueueOrdering(t *testing.T) {
	q := newFairQueue()
	mk := func(seq int64, tenant string, cost, weight float64) *Job {
		return &Job{ID: fmt.Sprintf("j%d", seq), seq: seq,
			tenant: tenant, cost: cost, weight: weight}
	}
	// Tenant A floods 10 equal jobs, then tenant B submits one.
	for i := int64(0); i < 10; i++ {
		q.push(mk(i, "A", 100, 1))
	}
	q.push(mk(10, "B", 100, 1))

	first := q.pop()
	if first.tenant != "A" || first.seq != 0 {
		t.Fatalf("first pop = %s/%s, want A's first job", first.tenant, first.ID)
	}
	second := q.pop()
	if second.tenant != "B" {
		t.Fatalf("second pop = %s (%s), want tenant B jumping the backlog", second.tenant, second.ID)
	}

	// Weights: tenant C at weight 2 fits two jobs in the virtual span
	// tenant A uses for one.
	q2 := newFairQueue()
	q2.push(mk(1, "A", 100, 1))
	q2.push(mk(2, "A", 100, 1))
	q2.push(mk(3, "C", 100, 2))
	q2.push(mk(4, "C", 100, 2))
	order := []string{}
	for q2.len() > 0 {
		order = append(order, q2.pop().tenant)
	}
	want := []string{"C", "A", "C", "A"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("weighted order = %v, want %v", order, want)
		}
	}
}

// TestDrainLifecycle: Drain stops admissions with a 503-coded error,
// waits for in-flight jobs, and flushes the store (INDEX.json present).
func TestDrainLifecycle(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Config{Workers: 2, MaxRunning: 2, ResultsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	j, err := m.Submit(JobSpec{Size: 4, Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(20 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := waitState(t, m, j.ID, time.Second)
	if st.State != StateDone {
		t.Errorf("in-flight job after drain: %s, want done", st.State)
	}
	_, err = m.Submit(JobSpec{Size: 4, Iterations: 1})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Code != 503 {
		t.Fatalf("submit while draining: err %v, want 503 AdmissionError", err)
	}
	if _, ok, _ := m.Store().Get(j.ID); !ok {
		t.Error("drained job's result not in store")
	}
}

// TestValidateSpecErrors: table-driven admission validation.
func TestValidateSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		sp   JobSpec
		frag string // substring the error must contain
	}{
		{"size too small", JobSpec{Size: 1}, "size"},
		{"size too big", JobSpec{Size: 65}, "size"},
		{"bad iterations", JobSpec{Iterations: -1}, "iterations"},
		{"bad weight", JobSpec{Weight: 1000}, "weight"},
		{"bad backend", JobSpec{Backend: "gpu"}, "backend"},
		{"bad scenario", JobSpec{Scenario: "blast"}, "unknown scenario"},
		{"bad option", JobSpec{Scenario: "piston:sped=3"}, "no option"},
		{"bad spec syntax", JobSpec{Scenario: "piston:=="}, "key=value"},
		{"faults without dist", JobSpec{Faults: "drop=0.1"}, "dist"},
		{"ranks without dist", JobSpec{Ranks: 4}, "dist"},
		{"bad fault profile", JobSpec{Backend: "dist", Faults: "nope"}, "fault"},
		{"bad ranks", JobSpec{Backend: "dist", Ranks: 99}, "ranks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := tc.sp
			_, err := validateSpec(&sp)
			if err == nil {
				t.Fatalf("spec %+v accepted", tc.sp)
			}
			if !containsFold(err.Error(), tc.frag) {
				t.Errorf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

func containsFold(s, frag string) bool {
	return len(frag) == 0 || stringsContainsFold(s, frag)
}

func stringsContainsFold(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		ok := true
		for k := 0; k < len(sub); k++ {
			a, b := s[i+k], sub[k]
			if 'A' <= a && a <= 'Z' {
				a += 'a' - 'A'
			}
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			if a != b {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
