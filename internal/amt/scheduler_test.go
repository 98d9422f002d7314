package amt

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestSchedulerRunsAllTasks(t *testing.T) {
	s := NewScheduler(WithWorkers(4))
	defer s.Close()
	var n atomic.Int64
	const total = 10000
	for i := 0; i < total; i++ {
		s.Spawn(func() { n.Add(1) })
	}
	s.Quiesce()
	if got := n.Load(); got != total {
		t.Fatalf("executed %d tasks, want %d", got, total)
	}
}

func TestSchedulerDefaultWorkers(t *testing.T) {
	s := NewScheduler()
	defer s.Close()
	if s.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers = %d, want GOMAXPROCS = %d",
			s.Workers(), runtime.GOMAXPROCS(0))
	}
}

func TestSchedulerWorkersClampedToOne(t *testing.T) {
	s := NewScheduler(WithWorkers(-3))
	defer s.Close()
	if s.Workers() != 1 {
		t.Fatalf("workers = %d, want 1", s.Workers())
	}
	done := make(chan struct{})
	s.Spawn(func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("single-worker scheduler did not run task")
	}
}

func TestSchedulerSpawnNilPanics(t *testing.T) {
	s := NewScheduler(WithWorkers(1))
	defer s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn(nil) should panic")
		}
	}()
	s.Spawn(nil)
}

func TestSchedulerNestedSpawns(t *testing.T) {
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	var n atomic.Int64
	const fanout = 50
	for i := 0; i < fanout; i++ {
		s.Spawn(func() {
			for j := 0; j < fanout; j++ {
				s.Spawn(func() { n.Add(1) })
			}
		})
	}
	s.Quiesce()
	if got := n.Load(); got != fanout*fanout {
		t.Fatalf("nested spawns executed %d, want %d", got, fanout*fanout)
	}
}

func TestSchedulerQuiesceWaitsForContinuations(t *testing.T) {
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	var done atomic.Bool
	f := Run(s, func() { time.Sleep(10 * time.Millisecond) })
	ThenRun(f, func(Unit) { done.Store(true) })
	s.Quiesce()
	if !done.Load() {
		t.Fatal("Quiesce returned before continuation finished")
	}
}

func TestSchedulerCountersTasksAndBusy(t *testing.T) {
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	s.ResetCounters()
	const total = 200
	for i := 0; i < total; i++ {
		s.Spawn(func() {
			x := 0.0
			for k := 0; k < 10000; k++ {
				x += float64(k)
			}
			_ = x
		})
	}
	s.Quiesce()
	c := s.CountersSnapshot()
	if c.Tasks != total {
		t.Errorf("counted %d tasks, want %d", c.Tasks, total)
	}
	if c.Busy <= 0 {
		t.Error("busy time should be positive")
	}
	if c.Workers != 2 || len(c.PerWorker) != 2 {
		t.Errorf("worker accounting wrong: %+v", c)
	}
	u := c.Utilization()
	if u <= 0 || u > 1 {
		t.Errorf("utilization %v out of (0, 1]", u)
	}
}

func TestSchedulerResetCounters(t *testing.T) {
	s := NewScheduler(WithWorkers(1))
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Spawn(func() {})
	}
	s.Quiesce()
	s.ResetCounters()
	c := s.CountersSnapshot()
	if c.Tasks != 0 || c.Busy != 0 {
		t.Fatalf("counters not reset: %+v", c)
	}
}

func TestSchedulerWorkStealing(t *testing.T) {
	// All work lands on few queues (round-robin over 4 workers but the
	// task bodies are slow), so idle workers must steal to finish fast.
	s := NewScheduler(WithWorkers(4))
	defer s.Close()
	s.ResetCounters()
	var n atomic.Int64
	// Spawn a burst from outside; round-robin spreads it, but nested
	// spawns all come from whichever worker runs them, creating imbalance.
	s.Spawn(func() {
		for i := 0; i < 64; i++ {
			s.Spawn(func() {
				time.Sleep(time.Millisecond)
				n.Add(1)
			})
		}
	})
	s.Quiesce()
	if n.Load() != 64 {
		t.Fatalf("ran %d, want 64", n.Load())
	}
	// Not a strict guarantee, but with 64 sleeping tasks spread by
	// round-robin and 4 spinning workers, at least one steal is expected.
	if c := s.CountersSnapshot(); c.Steals == 0 {
		t.Logf("no steals observed (allowed, but unusual): %+v", c)
	}
}

func TestSchedulerUtilizationHighUnderLoad(t *testing.T) {
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	s.ResetCounters()
	var fs []*Void
	for i := 0; i < 64; i++ {
		fs = append(fs, Run(s, func() {
			x := 1.0
			for k := 0; k < 2_000_000; k++ {
				x = x*1.0000001 + 1e-9
			}
			_ = x
		}))
	}
	WaitAll(fs)
	u := s.CountersSnapshot().Utilization()
	if u < 0.5 {
		t.Errorf("utilization %.2f under saturated load, want >= 0.5", u)
	}
}

func TestSchedulerCloseDrains(t *testing.T) {
	s := NewScheduler(WithWorkers(2))
	var n atomic.Int64
	for i := 0; i < 1000; i++ {
		s.Spawn(func() { n.Add(1) })
	}
	s.Close()
	if n.Load() != 1000 {
		t.Fatalf("Close lost tasks: ran %d of 1000", n.Load())
	}
}

func TestSchedulerManySmallTasksStress(t *testing.T) {
	s := NewScheduler(WithWorkers(4))
	defer s.Close()
	var n atomic.Int64
	const total = 100000
	for i := 0; i < total; i++ {
		s.Spawn(func() { n.Add(1) })
	}
	s.Quiesce()
	if n.Load() != total {
		t.Fatalf("stress: ran %d of %d", n.Load(), total)
	}
}
