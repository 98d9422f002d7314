package amt

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Derived-metric coverage for the Counters snapshot type, including the
// zero-wall / zero-task edge cases a fresh or idle scheduler produces.

func TestCountersUtilization(t *testing.T) {
	cases := []struct {
		name string
		c    Counters
		want float64
	}{
		{"zero wall", Counters{Workers: 4}, 0},
		{"negative utilizable", Counters{Utilizable: -time.Second}, 0},
		{"half busy", Counters{Busy: time.Second, Utilizable: 2 * time.Second}, 0.5},
		{"clamped above one", Counters{Busy: 3 * time.Second, Utilizable: 2 * time.Second}, 1},
	}
	for _, c := range cases {
		if got := c.c.Utilization(); got != c.want {
			t.Errorf("%s: Utilization() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCountersAffinityHitRate(t *testing.T) {
	if rate, ok := (Counters{}).AffinityHitRate(); ok || rate != 0 {
		t.Fatalf("no hinted tasks: got %v, %v", rate, ok)
	}
	c := Counters{AffHits: 3, AffMisses: 1}
	rate, ok := c.AffinityHitRate()
	if !ok || rate != 0.75 {
		t.Fatalf("AffinityHitRate() = %v, %v; want 0.75, true", rate, ok)
	}
	if rate, ok := (Counters{AffMisses: 5}).AffinityHitRate(); !ok || rate != 0 {
		t.Fatalf("all misses: got %v, %v; want 0, true", rate, ok)
	}
}

func TestCountersFramesPerSteal(t *testing.T) {
	if got := (Counters{Stolen: 7}).FramesPerSteal(); got != 0 {
		t.Fatalf("zero steals: FramesPerSteal() = %v", got)
	}
	if got := (Counters{Steals: 2, Stolen: 7}).FramesPerSteal(); got != 3.5 {
		t.Fatalf("FramesPerSteal() = %v, want 3.5", got)
	}
}

func TestCountersParkedRate(t *testing.T) {
	if got := (Counters{Parked: time.Second}).ParkedRate(); got != 0 {
		t.Fatalf("zero utilizable: ParkedRate() = %v", got)
	}
	c := Counters{Parked: time.Second, Utilizable: 4 * time.Second}
	if got := c.ParkedRate(); got != 0.25 {
		t.Fatalf("ParkedRate() = %v, want 0.25", got)
	}
	over := Counters{Parked: 3 * time.Second, Utilizable: time.Second}
	if got := over.ParkedRate(); got != 1 {
		t.Fatalf("ParkedRate() not clamped: %v", got)
	}
}

func TestCountersStringSegments(t *testing.T) {
	// Zero-value snapshot: no affinity or park segments, no division blowups.
	s := Counters{}.String()
	if !strings.Contains(s, "util=0.0%") || strings.Contains(s, "aff=") ||
		strings.Contains(s, "parks=") {
		t.Fatalf("zero-value String() = %q", s)
	}
	full := Counters{
		Workers: 2, Wall: time.Second, Busy: time.Second,
		Utilizable: 2 * time.Second, Tasks: 10,
		AffHits: 1, AffMisses: 1,
		Parks: 4, Parked: time.Second,
	}.String()
	for _, want := range []string{"util=50.0%", "aff=50.0%", "parks=4", "parked=50.0%"} {
		if !strings.Contains(full, want) {
			t.Fatalf("String() = %q missing %q", full, want)
		}
	}
}

func TestSchedulerParkAccounting(t *testing.T) {
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	// Let the workers run out of work and park. Parked time is only
	// accounted once a worker wakes, so alternate idle stretches with a
	// waking task and poll the snapshot.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		Run(s, func() {}).Get() // wakes any parked worker, banking its parkNs
		c := s.CountersSnapshot()
		if c.Parks > 0 && c.Parked > 0 {
			return
		}
		time.Sleep(20 * time.Millisecond) // long enough to exhaust spinRounds
	}
	t.Fatalf("no park activity recorded: %+v", s.CountersSnapshot())
}

// recordingSink counts RecordTask calls and aggregates the fields the perf
// subsystem depends on.
type recordingSink struct {
	tasks    atomic.Int64
	stolen   atomic.Int64
	withWait atomic.Int64
	phases   [8]atomic.Int64
}

func (r *recordingSink) RecordTask(worker int, phase uint32, start time.Time,
	dur, queueWait time.Duration, stolen bool) {
	r.tasks.Add(1)
	if stolen {
		r.stolen.Add(1)
	}
	if queueWait > 0 {
		r.withWait.Add(1)
	}
	if int(phase) < len(r.phases) {
		r.phases[phase].Add(1)
	}
}

func TestTaskSinkReceivesPhaseAndQueueWait(t *testing.T) {
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	sink := &recordingSink{}
	s.SetSink(sink)

	s.SetPhase(3)
	ForEachBlock(s, 0, 1024, 16, func(lo, hi int) {
		time.Sleep(10 * time.Microsecond)
	}).Get()
	s.SetPhase(0)
	s.Quiesce()

	if n := sink.tasks.Load(); n != 64 {
		t.Fatalf("sink saw %d tasks, want 64", n)
	}
	if got := sink.phases[3].Load(); got != 64 {
		t.Fatalf("phase 3 saw %d tasks, want 64", got)
	}
	if sink.withWait.Load() == 0 {
		t.Fatal("no task carried a queue-wait stamp")
	}
	// Removing the sink stops delivery.
	s.SetSink(nil)
	before := sink.tasks.Load()
	Run(s, func() {}).Get()
	s.Quiesce()
	if sink.tasks.Load() != before {
		t.Fatal("sink still invoked after SetSink(nil)")
	}
}

func TestTaskSinkContinuationPhaseCapturedAtAttach(t *testing.T) {
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	sink := &recordingSink{}
	s.SetSink(sink)

	// Build the graph under phase 5, then advance the published phase
	// before releasing it: the continuation must still carry 5.
	gate := newFuture[Unit](s)
	s.SetPhase(5)
	var wg sync.WaitGroup
	wg.Add(1)
	done := ThenRun(gate, func(Unit) { wg.Done() })
	s.SetPhase(6)
	gate.set(Unit{})
	done.Get()
	wg.Wait()
	s.Quiesce()

	if got := sink.phases[5].Load(); got != 1 {
		t.Fatalf("continuation recorded under phase 5 %d times, want 1 (phase6=%d)",
			got, sink.phases[6].Load())
	}
}

func TestTaskSinkStolenFlag(t *testing.T) {
	s := NewScheduler(WithWorkers(4), WithStealHalf(true))
	defer s.Close()
	sink := &recordingSink{}
	s.SetSink(sink)

	// Pin everything on worker 0 so the other three must steal.
	var fs []*Void
	for i := 0; i < 256; i++ {
		fs = append(fs, RunAt(s, 0, func() { time.Sleep(20 * time.Microsecond) }))
	}
	WaitAll(fs)

	if sink.tasks.Load() != int64(len(fs)) {
		t.Fatalf("sink saw %d tasks, want %d", sink.tasks.Load(), len(fs))
	}
	if sink.stolen.Load() == 0 {
		t.Skip("no steals occurred (single-core timing); stolen flag untestable here")
	}
}
