package amt

import (
	"sync/atomic"
	"testing"
)

// Tests for the locality layer: affinity-hinted spawns, the hit/miss
// counters, and steal-half migration. The contract under test everywhere:
// hints and steal batching change only *where* frames run, never
// *whether* or *how often*.

// TestSpawnAtRunsEverything: SpawnAt with in-range, out-of-range and
// negative homes executes every task exactly once.
func TestSpawnAtRunsEverything(t *testing.T) {
	s := newTestScheduler(t)
	const n = 500
	hits := make([]atomic.Int32, n)
	for i := 0; i < n; i++ {
		i := i
		s.SpawnAt(i%7-1, func() { hits[i].Add(1) }) // homes -1..5 on 2 workers
	}
	s.Quiesce()
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("task %d ran %d times, want 1", i, hits[i].Load())
		}
	}
}

// TestAffinityCounters: every hinted task is counted exactly once as
// either a hit or a miss, and unhinted tasks are not counted at all.
func TestAffinityCounters(t *testing.T) {
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	const hinted, unhinted = 300, 200
	for i := 0; i < hinted; i++ {
		s.SpawnAt(i, func() {})
	}
	for i := 0; i < unhinted; i++ {
		s.Spawn(func() {})
	}
	s.Quiesce()
	c := s.CountersSnapshot()
	if c.AffHits+c.AffMisses != hinted {
		t.Fatalf("AffHits+AffMisses = %d+%d, want %d hinted tasks",
			c.AffHits, c.AffMisses, hinted)
	}
	if rate, ok := c.AffinityHitRate(); !ok || rate < 0 || rate > 1 {
		t.Fatalf("AffinityHitRate = %v, %v", rate, ok)
	}
}

// TestAffinityHitRateSingleWorker: with one worker every hint is trivially
// satisfied — the hit rate must be exactly 1.
func TestAffinityHitRateSingleWorker(t *testing.T) {
	s := NewScheduler(WithWorkers(1))
	defer s.Close()
	for i := 0; i < 100; i++ {
		s.SpawnAt(0, func() {})
	}
	s.Quiesce()
	rate, ok := s.CountersSnapshot().AffinityHitRate()
	if !ok || rate != 1 {
		t.Fatalf("hit rate = %v, %v; want 1, true", rate, ok)
	}
	if _, ok := (Counters{}).AffinityHitRate(); ok {
		t.Fatal("empty counters should report no hit rate")
	}
}

// TestStealHalfDrainsPinnedBacklog: every task pinned to worker 0 with
// steal-half enabled — the worst-case imbalance a hint can create. All
// tasks must run exactly once, and the migration counters must show
// multi-frame sweeps (Stolen > Steals would fail only if every sweep
// moved a single frame; at this backlog at least one sweep must batch).
func TestStealHalfDrainsPinnedBacklog(t *testing.T) {
	s := NewScheduler(WithWorkers(4), WithStealHalf(true))
	defer s.Close()
	const n = 4000
	hits := make([]atomic.Int32, n)
	for i := 0; i < n; i++ {
		s.SpawnAt(0, func() {
			hits[i].Add(1)
			for k := 0; k < 100; k++ { // widen the steal window
				_ = k
			}
		})
	}
	s.Quiesce()
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("task %d ran %d times, want 1", i, hits[i].Load())
		}
	}
	c := s.CountersSnapshot()
	if c.Steals > 0 && c.Stolen < c.Steals {
		t.Fatalf("Stolen=%d < Steals=%d: sweeps lost frames", c.Stolen, c.Steals)
	}
	if c.Steals > 0 && c.FramesPerSteal() < 1 {
		t.Fatalf("FramesPerSteal = %v, want >= 1", c.FramesPerSteal())
	}
	if c.Tasks != n {
		t.Fatalf("Tasks = %d, want %d", c.Tasks, n)
	}
}

// TestStealHalfForEachBlockExactCover is the race-lane composition test:
// parallel loops on a steal-half scheduler keep the exactly-once contract
// under concurrent stealing.
func TestStealHalfForEachBlockExactCover(t *testing.T) {
	s := NewScheduler(WithWorkers(4), WithStealHalf(true))
	defer s.Close()
	const n, grain = 1 << 14, 32
	for rep := 0; rep < 8; rep++ {
		hits := make([]atomic.Int32, n)
		ForEachBlock(s, 0, n, grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		}).Get()
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("rep %d: index %d visited %d times", rep, i, hits[i].Load())
			}
		}
	}
}

// TestRunAtThenRunAt: the future-layer wrappers deliver values and
// ordering exactly like their unhinted counterparts.
func TestRunAtThenRunAt(t *testing.T) {
	s := newTestScheduler(t)
	var order atomic.Int32
	a := RunAt(s, 1, func() {
		if !order.CompareAndSwap(0, 1) {
			t.Error("RunAt body ran out of order")
		}
	})
	b := ThenRunAt(a, 0, func(Unit) {
		if !order.CompareAndSwap(1, 2) {
			t.Error("ThenRunAt continuation ran before its parent")
		}
	})
	b.Get()
	if order.Load() != 2 {
		t.Fatalf("order = %d, want 2", order.Load())
	}

	var n atomic.Int32
	var fs []*Void
	for _, home := range []int{0, 1, 2, 3, -1, 5, 6, 7, 0, 1, 2, 3, -1, 5, 6, 7} {
		fs = append(fs, RunAt(s, home, func() { n.Add(1) }))
	}
	AfterAll(s, fs).Get()
	if n.Load() != 16 {
		t.Fatalf("RunAt ran %d tasks, want 16", n.Load())
	}
}
