package core

import "lulesh/internal/amt"

// Options configures the task backend (and, where applicable, the other
// parallel backends). The partition sizes correspond to the paper's
// Table I; the four technique toggles correspond to the successive code
// transformations of the paper's Figures 5-8 and are all enabled in the
// paper's final implementation. Disabling one isolates its contribution
// (the ablation experiments).
//
// Every partition's tasks always carry a locality hint: a persistent
// partition→worker map gives each element, nodal and region-chain
// partition a home worker (block distribution over the mesh), so the same
// worker re-touches the same mesh slice across the ~45 kernel launches per
// iteration. Hints bias placement only; work stealing still rebalances,
// and results remain bitwise identical.
type Options struct {
	// Threads is the number of execution threads (HPX worker OS-threads,
	// OpenMP team size). 0 means one per available core.
	Threads int

	// PartNodal is the task partition size for node-indexed loops
	// (the LagrangeNodal column of Table I).
	PartNodal int
	// PartElem is the task partition size for element-indexed loops
	// (the LagrangeElements column of Table I).
	PartElem int

	// Chain builds cross-loop task chains with continuations instead of a
	// synchronization barrier after every loop (Figure 6 vs Figure 5).
	Chain bool
	// Fuse combines consecutive kernels into a single task to reduce task
	// count (Figure 7).
	Fuse bool
	// ParallelForces launches the stress-force and hourglass-force task
	// families concurrently instead of sequentially (Figure 8).
	ParallelForces bool
	// ParallelRegions evaluates the per-region material chains
	// concurrently instead of region-after-region (the
	// ApplyMaterialPropertiesForElems parallelization of Section IV).
	ParallelRegions bool

	// StealHalf makes idle workers migrate up to half of a victim's queue
	// per steal sweep instead of one frame, cutting steal attempts on the
	// fine-grained hot path (amt.WithStealHalf). Scheduling-only: results
	// are unchanged. On in the default configuration; separable for
	// ablation.
	StealHalf bool

	// Scheduler, when non-nil, makes the task backend run on this
	// externally owned front-end instead of creating a private worker
	// pool — the multi-tenant mode of the luleshd control plane, where
	// many concurrent simulations each pass a NewJob front-end onto one
	// shared pool. The backend then takes its worker count from the pool,
	// ignores StealHalf (pool-level, fixed at pool creation) and its
	// Close only quiesces the job instead of shutting workers down. The
	// caller retains ownership of the pool.
	Scheduler *amt.Scheduler
}

// DefaultOptions returns the paper's final configuration for a problem of
// the given edge size: all four techniques enabled and the tuned partition
// sizes of Table I. For sizes outside the paper's sweep a heuristic keeps
// roughly eight partitions per thread, within [64, 8192].
func DefaultOptions(edgeElems, threads int) Options {
	o := Options{
		Threads:         threads,
		Chain:           true,
		Fuse:            true,
		ParallelForces:  true,
		ParallelRegions: true,
		StealHalf:       true,
	}
	o.PartNodal, o.PartElem = TableIPartitions(edgeElems, threads)
	return o
}

// TableIPartitions returns the tuned partition sizes of the paper's
// Table I for its six problem sizes, and a load-balance heuristic for any
// other size.
func TableIPartitions(edgeElems, threads int) (nodal, elem int) {
	switch edgeElems {
	case 45:
		return 2048, 2048
	case 60:
		return 4096, 2048
	case 75:
		return 8192, 4096
	case 90:
		return 8192, 4096
	case 120:
		return 8192, 2048
	case 150:
		return 8192, 2048
	}
	ne := edgeElems * edgeElems * edgeElems
	if threads < 1 {
		threads = 1
	}
	p := nearestPow2(ne / (threads * 8))
	if p < 64 {
		p = 64
	}
	if p > 8192 {
		p = 8192
	}
	return p, p
}

func nearestPow2(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	// Round to the nearer of p and 2p.
	if n-p > 2*p-n {
		return 2 * p
	}
	return p
}

// partition invokes fn(lo, hi) for consecutive chunks of [0, n) of at most
// part indices each, in ascending order.
func partition(n, part int, fn func(lo, hi int)) {
	if part < 1 {
		part = n
	}
	for lo := 0; lo < n; lo += part {
		hi := lo + part
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	}
}

// numPartitions reports how many chunks partition() produces.
func numPartitions(n, part int) int {
	if n <= 0 {
		return 0
	}
	if part < 1 {
		return 1
	}
	return (n + part - 1) / part
}
