package amt

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestWithObserverReceivesSpans(t *testing.T) {
	var spans atomic.Int64
	var busy atomic.Int64
	s := NewScheduler(WithWorkers(2),
		WithObserver(func(worker int, start time.Time, dur time.Duration) {
			if worker < 0 || worker >= 2 {
				t.Errorf("worker id %d out of range", worker)
			}
			spans.Add(1)
			busy.Add(int64(dur))
		}))
	defer s.Close()
	var fs []*Void
	for i := 0; i < 50; i++ {
		fs = append(fs, Run(s, func() { time.Sleep(100 * time.Microsecond) }))
	}
	WaitAll(fs)
	if spans.Load() != 50 {
		t.Fatalf("observer saw %d spans, want 50", spans.Load())
	}
	if busy.Load() <= 0 {
		t.Fatal("observer durations empty")
	}
}

// TestObservationBeforeCompletion: the worker records a task — counters,
// observer, job sink, both in-flight counts — before it completes the
// task's future or latch, so a reader right after WaitAll sees every task
// without quiescing. Deterministic: no sleeps, exact counts every round,
// through both completion paths (futures and a parallel region's latch).
func TestObservationBeforeCompletion(t *testing.T) {
	var observed atomic.Int64
	s := NewScheduler(WithWorkers(2),
		WithObserver(func(int, time.Time, time.Duration) { observed.Add(1) }))
	defer s.Close()
	sink := &recordingSink{}
	s.SetSink(sink)
	const n = 32
	for round := 0; round < 200; round++ {
		s.ResetCounters()
		observed.Store(0)
		sink.tasks.Store(0)
		fs := make([]*Void, 0, n+1)
		for i := 0; i < n; i++ {
			fs = append(fs, Run(s, func() {}))
		}
		fs = append(fs, ForEachBlock(s, 0, n, 1, func(int, int) {}))
		WaitAll(fs)
		const want = 2 * n
		if got := s.CountersSnapshot().Tasks; got != want {
			t.Fatalf("round %d: Counters().Tasks = %d after WaitAll, want %d", round, got, want)
		}
		if got := observed.Load(); got != want {
			t.Fatalf("round %d: observer saw %d tasks after WaitAll, want %d", round, got, want)
		}
		if got := sink.tasks.Load(); got != want {
			t.Fatalf("round %d: sink saw %d tasks after WaitAll, want %d", round, got, want)
		}
		if s.Inflight() != 0 || s.PoolInflight() != 0 {
			t.Fatalf("round %d: inflight %d / pool %d after WaitAll, want 0",
				round, s.Inflight(), s.PoolInflight())
		}
	}
}

func TestSetObserverAtRuntime(t *testing.T) {
	s := NewScheduler(WithWorkers(1))
	defer s.Close()
	Run(s, func() {}).Get() // no observer yet

	var n atomic.Int64
	s.SetObserver(func(int, time.Time, time.Duration) { n.Add(1) })
	Run(s, func() {}).Get()
	s.Quiesce()
	if n.Load() == 0 {
		t.Fatal("runtime-installed observer not called")
	}

	s.SetObserver(nil)
	before := n.Load()
	Run(s, func() {}).Get()
	s.Quiesce()
	if n.Load() != before {
		t.Fatal("cleared observer still called")
	}
}

func TestCountersString(t *testing.T) {
	s := NewScheduler(WithWorkers(1))
	defer s.Close()
	Run(s, func() {}).Get()
	if s.CountersSnapshot().String() == "" {
		t.Fatal("empty counters string")
	}
}

func TestUtilizationEmptySnapshot(t *testing.T) {
	c := Counters{Workers: 2}
	if c.Utilization() != 0 {
		t.Fatal("zero-wall utilization should be 0")
	}
	c = Counters{Workers: 1, Wall: time.Second, Utilizable: time.Second,
		Busy: 2 * time.Second}
	if c.Utilization() != 1 {
		t.Fatal("utilization must clamp at 1")
	}
}

func TestInflightAccessor(t *testing.T) {
	s := NewScheduler(WithWorkers(1))
	defer s.Close()
	s.Quiesce()
	if s.Inflight() != 0 {
		t.Fatalf("quiesced scheduler reports %d inflight", s.Inflight())
	}
	release := make(chan struct{})
	f := Run(s, func() { <-release })
	if s.Inflight() == 0 {
		t.Error("running task not counted inflight")
	}
	close(release)
	f.Get()
}

func TestWorkersParkAndWake(t *testing.T) {
	// Force the park path: go idle long enough for workers to exhaust
	// their spin budget, then submit again.
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	Run(s, func() {}).Get()
	time.Sleep(50 * time.Millisecond) // workers park
	var n atomic.Int64
	var fs []*Void
	for i := 0; i < 10; i++ {
		fs = append(fs, Run(s, func() { n.Add(1) }))
	}
	WaitAll(fs)
	if n.Load() != 10 {
		t.Fatalf("parked workers lost tasks: %d of 10", n.Load())
	}
}
