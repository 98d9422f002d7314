package core

import (
	"lulesh/internal/amt"
	"lulesh/internal/domain"
	"lulesh/internal/kernels"
)

// BackendNaive reproduces the prior HPX port of LULESH that the paper uses
// as its negative baseline ([16], measured slower than OpenMP in [17]):
// every loop is replaced 1-to-1 by a parallel for_each on the AMT runtime,
// immediately followed by a blocking wait. Nothing is chained or fused, so
// the code pays one full synchronization barrier per loop — more barriers
// than the OpenMP reference, since grouped parallel regions are split into
// individual loops — plus task-creation overhead on every loop.
type BackendNaive struct {
	amtRuntime
	ref *refRun
}

// NewBackendNaive creates the naive for_each backend with the given worker
// count for domains shaped like d.
func NewBackendNaive(d *domain.Domain, threads int) *BackendNaive {
	if threads < 1 {
		threads = 1
	}
	s := amt.NewScheduler(amt.WithWorkers(threads))
	return &BackendNaive{amtRuntime{s}, newRefRun(d)}
}

// grain mirrors a parallel-algorithm default chunker: about four chunks
// per worker for whatever loop length it is handed.
func (b *BackendNaive) grain(n int) int {
	g := n / (b.s.Workers() * 4)
	if g < 1 {
		g = 1
	}
	return g
}

func (b *BackendNaive) Name() string { return "naive" }

// each runs body over [0, n) as a parallel for_each and blocks until done —
// the naive port's universal idiom.
func (b *BackendNaive) each(n int, body func(lo, hi int)) {
	amt.ForEachBlock(b.s, 0, n, b.grain(n), body).Get()
}

// Step advances one leapfrog iteration, one barriered for_each per
// reference loop.
func (b *BackendNaive) Step(d *domain.Domain) error { return b.ref.step(d, b) }

func (b *BackendNaive) setPhase(ph uint32) { b.s.SetPhase(ph) }

// group splits the reference's parallel region into one barriered loop
// per member.
func (b *BackendNaive) group(c *refRun, loops []loop) {
	for i := range loops {
		if l := &loops[i]; c.runs(l) {
			b.each(l.over(c), func(lo, hi int) { l.body(c, lo, hi) })
		}
	}
}

// min is one parallel reduce over the loop's indices.
func (b *BackendNaive) min(n int, f func(lo, hi int) float64) float64 {
	return amt.Reduce(b.s, 0, n, b.grain(n), kernels.HugeDt,
		func(acc float64, i int) float64 { return lesser(acc, f(i, i+1)) },
		lesser).Get()
}
