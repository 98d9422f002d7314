package core

import (
	"lulesh/internal/domain"
	"lulesh/internal/kernels"
	"lulesh/internal/omp"
)

// BackendOMP reproduces the execution model of the OpenMP reference
// implementation: every loop of the leapfrog iteration is statically split
// across a persistent thread team with a full synchronization barrier at
// the end (ParallelForBlock), and loop groups that the reference places in
// one `#pragma omp parallel` region share a single dispatch. The equation
// of state is evaluated region-after-region with parallel loops *inside*
// each region — the structural weakness (many small loops, each followed by
// a barrier) that the paper's task-based approach removes.
type BackendOMP struct {
	pool *omp.Pool
	ref  *refRun

	// schedule selects the loop worksharing policy (the reference uses
	// static everywhere; dynamic/guided are provided to demonstrate that
	// intra-loop dynamic scheduling cannot recover the cross-loop
	// imbalance the task backend exploits).
	schedule Schedule

	// Per-thread partial minima of the time-constraint reductions.
	part []float64
}

// Schedule is an OpenMP loop-scheduling policy.
type Schedule int

// Loop schedules.
const (
	ScheduleStatic Schedule = iota
	ScheduleDynamic
	ScheduleGuided
)

// dynChunk is the chunk size used by the dynamic/guided schedules,
// matching a typical `schedule(dynamic, 64)` clause.
const dynChunk = 64

// NewBackendOMP creates a fork-join backend with the given team size
// (0 = one thread per core) for domains shaped like d.
func NewBackendOMP(d *domain.Domain, threads int) *BackendOMP {
	return NewBackendOMPSchedule(d, threads, ScheduleStatic)
}

// NewBackendOMPSchedule creates a fork-join backend using the given loop
// schedule for its worksharing loops. Results are bitwise independent of
// the schedule (per-datum arithmetic never changes).
func NewBackendOMPSchedule(d *domain.Domain, threads int, sched Schedule) *BackendOMP {
	p := omp.NewPool(threads)
	return &BackendOMP{
		pool:     p,
		ref:      newRefRun(d),
		schedule: sched,
		part:     make([]float64, p.Threads()),
	}
}

// each dispatches one worksharing loop under the configured schedule.
func (b *BackendOMP) each(n int, body func(lo, hi int)) {
	switch b.schedule {
	case ScheduleDynamic:
		b.pool.ParallelForDynamic(n, dynChunk, body)
	case ScheduleGuided:
		b.pool.ParallelForGuided(n, dynChunk, body)
	default:
		b.pool.ParallelForBlock(n, body)
	}
}

func (b *BackendOMP) Name() string { return "omp" }

// Threads reports the team size.
func (b *BackendOMP) Threads() int { return b.pool.Threads() }

// Utilization reports the productive-time ratio across parallel regions.
func (b *BackendOMP) Utilization() (float64, bool) {
	return b.pool.CountersSnapshot().Utilization(), true
}

// ResetCounters restarts utilization accounting.
func (b *BackendOMP) ResetCounters() { b.pool.ResetCounters() }

// Close stops the thread team.
func (b *BackendOMP) Close() { b.pool.Close() }

// SetObserver forwards spans from the fork-join team.
func (b *BackendOMP) SetObserver(fn SpanObserver) { b.pool.SetObserver(fn) }

// Step advances one leapfrog iteration with one fork-join construct per
// reference loop or loop group. Each phase tag is published before its
// loops dispatch; the region descriptor carries it to the team, so
// per-phase tables line up with the task backend's.
func (b *BackendOMP) Step(d *domain.Domain) error { return b.ref.step(d, b) }

func (b *BackendOMP) setPhase(ph uint32) { b.pool.SetPhase(ph) }

// group runs a loop group as one parallel region of nowait loops, each
// statically split over the team.
func (b *BackendOMP) group(c *refRun, loops []loop) {
	nth := b.pool.Threads()
	b.pool.Parallel(func(tid int) {
		for i := range loops {
			l := &loops[i]
			if !c.runs(l) {
				continue
			}
			if lo, hi := omp.StaticRange(tid, nth, l.over(c)); lo < hi {
				l.body(c, lo, hi)
			}
		}
	})
}

// min reduces with one per-thread partial each, folded by the master.
func (b *BackendOMP) min(n int, f func(lo, hi int) float64) float64 {
	b.pool.ParallelStatic(n, func(tid, lo, hi int) { b.part[tid] = f(lo, hi) })
	v := kernels.HugeDt
	for _, p := range b.part {
		v = lesser(v, p)
	}
	return v
}
