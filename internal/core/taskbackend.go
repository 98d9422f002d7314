package core

import (
	"lulesh/internal/amt"
	"lulesh/internal/domain"
	"lulesh/internal/perf"
)

// BackendTask is the paper's contribution: a many-task-based LULESH
// orchestration on the AMT runtime. Per iteration it pre-creates the entire
// task graph (as the paper does for one leapfrog iteration), applying the
// four techniques of Section IV:
//
//   - manual partitioning of every loop into tasks of Options.PartNodal /
//     Options.PartElem indices (Figure 5, Table I),
//   - cross-loop task chains via continuations, keeping only the handful of
//     synchronization barriers that data dependencies force: element→node,
//     node→element, element→neighbour-element, region→join (Figure 6),
//   - fusion of consecutive kernels into one task so a scheduled task runs
//     longer between scheduler invocations (Figure 7),
//   - concurrent launch of independent kernel families: the stress and
//     hourglass force calculations, the per-region material chains, and the
//     volume-update tasks that overlap the EOS (Figure 8 / Section IV).
//
// Task-local temporaries (hourglass scratch, EOS scratch) are pooled and
// sized to one partition, the paper's locality optimization.
type BackendTask struct {
	amtRuntime
	opt Options

	// aff is the locality layer's persistent partition→worker map: every
	// partition task is spawned with its home worker as affinity hint.
	aff *affinityMap

	kit  *Kit
	plan stepPlan
}

// NewBackendTask creates the many-task backend for domains shaped like d.
func NewBackendTask(d *domain.Domain, opt Options) *BackendTask {
	if opt.Scheduler != nil {
		// Shared-pool mode: the worker count is the pool's, not ours to
		// choose, and grain heuristics must see the real parallelism.
		opt.Threads = opt.Scheduler.Workers()
	}
	if opt.Threads < 1 {
		opt.Threads = 1
	}
	if opt.PartNodal < 1 || opt.PartElem < 1 {
		n, e := TableIPartitions(d.Mesh.EdgeElems, opt.Threads)
		if opt.PartNodal < 1 {
			opt.PartNodal = n
		}
		if opt.PartElem < 1 {
			opt.PartElem = e
		}
	}
	sched := opt.Scheduler
	if sched == nil {
		sched = amt.NewScheduler(amt.WithWorkers(opt.Threads),
			amt.WithStealHalf(opt.StealHalf))
	}
	return &BackendTask{
		amtRuntime: amtRuntime{sched},
		opt:        opt,
		aff:        newAffinityMap(d.NumElem(), d.NumNode(), sched.Workers(), opt.PartElem, opt.PartNodal),
		kit:        NewKit(d, opt.PartElem),
	}
}

func (b *BackendTask) Name() string { return "task" }

// Options returns the backend's configuration.
func (b *BackendTask) Options() Options { return b.opt }

// Step pre-creates and executes the task graph for one leapfrog iteration.
// Each family is launched over its partitions (see families.go); the
// four techniques only choose the edges between them.
func (b *BackendTask) Step(d *domain.Domain) error {
	k := b.kit
	k.Begin(d)
	pl := &b.plan
	pl.build(d, b.opt.PartElem, b.opt.PartNodal)

	// Stage 1: the two independent force families. Each launch publishes
	// its family's phase tag first; continuation frames capture the tag
	// at attach time, so the whole graph is phase-labeled during this
	// sequential construction even though the frames spawn later, when
	// barriers trip.
	stress := b.launch(Stress, pl.Elems, nil)
	hgGate := func(i int) *amt.Void { return stress[i] }
	if b.opt.ParallelForces {
		hgGate = nil
	}
	forces := append(stress, b.launch(Hourglass, pl.Elems, hgGate)...)
	if err := b.barrier(forces); err != nil {
		return err
	}

	// Barrier B1 (element→node): nodal chains need all corner forces.
	nodal := b.launch(Nodal, pl.Nodes, after(amt.AfterAll(b.s, forces)))
	if err := b.barrier(nodal); err != nil {
		return err
	}

	// Barrier B2 (node→element): kinematics needs updated positions and
	// velocities of all corner nodes.
	elems := b.launch(Elements, pl.Elems, after(amt.AfterAll(b.s, nodal)))
	if err := b.barrier(elems); err != nil {
		return err
	}

	// Barrier B3 (element→neighbour element): the monotonic Q limiter
	// reads neighbour gradients. The region chains and the volume commit
	// both start from it and run concurrently. Without ParallelRegions
	// region r+1 waits for region r, as the sequential reference does;
	// an empty region launches nothing and keeps the previous parent
	// (AfterAll(nil) is already ready and would detach the next region
	// from B3).
	b3 := amt.AfterAll(b.s, elems)
	parent := b3
	var all []*amt.Void
	for _, parts := range pl.Regions {
		reg := b.launch(Region, parts, after(parent))
		all = append(all, reg...)
		if !b.opt.ParallelRegions && len(reg) > 0 {
			parent = amt.AfterAll(b.s, reg)
		}
	}
	all = append(all, b.launch(Volumes, pl.Elems, after(b3))...)

	// Barrier B4 (join): fold the per-partition constraint minima.
	b.s.SetPhase(PhaseConstraints)
	done := amt.AfterAllRun(b.s, all, func() {
		k.ResetConstraints()
		for _, parts := range pl.Regions {
			k.Fold(parts...)
		}
	})
	done.Get()
	b.s.SetPhase(PhaseOther)
	return k.Err()
}

// after gates every partition of a launch on one future.
func after(f *amt.Void) func(int) *amt.Void {
	return func(int) *amt.Void { return f }
}

// barrier is the unchained graph's synchronization after a family
// (Figure 5): wait for all of its tasks and stop the step on a raised
// error. With Chain the graph runs through and errors surface at the end.
func (b *BackendTask) barrier(tasks []*amt.Void) error {
	if b.opt.Chain {
		return nil
	}
	amt.WaitAll(tasks)
	return b.kit.Err()
}

// launch creates f's tasks over parts. Partition i's chain starts once
// gate(i) is ready (nil gate: at once). Fused, a partition is one task
// running every step of f; unfused, one task per step, chained by
// continuations. Every task carries its partition's home worker.
func (b *BackendTask) launch(f *Family, parts []Part, gate func(int) *amt.Void) []*amt.Void {
	b.s.SetPhase(f.Phase)
	out := make([]*amt.Void, 0, len(parts))
	for i := range parts {
		p := &parts[i]
		home := b.home(f.Space, p)
		var t *amt.Void
		if gate != nil {
			t = gate(i)
		}
		if b.opt.Fuse {
			out = append(out, b.then(t, home, func() { b.kit.Run(f, p) }))
			continue
		}
		for _, step := range f.Steps {
			t = b.then(t, home, func() { step(b.kit, p) })
		}
		out = append(out, t)
	}
	return out
}

// then runs fn on home once dep is ready, or at once when dep is nil.
func (b *BackendTask) then(dep *amt.Void, home int, fn func()) *amt.Void {
	if dep == nil {
		return amt.RunAt(b.s, home, fn)
	}
	return amt.ThenRunAt(dep, home, func(amt.Unit) { fn() })
}

// home is a partition's worker in the affinity map: region chains inherit
// the home of their first element.
func (b *BackendTask) home(s Space, p *Part) int {
	switch s {
	case SpaceNodes:
		return b.aff.nodeWorker(p.Lo)
	case SpaceRegion:
		return b.aff.regionWorker(p.List, p.Lo)
	}
	return b.aff.elemWorker(p.Lo)
}

// amtRuntime is the AMT scheduler front-end of the task and naive
// backends, and the Backend bookkeeping they share.
type amtRuntime struct{ s *amt.Scheduler }

// Threads reports the worker count.
func (r amtRuntime) Threads() int { return r.s.Workers() }

// Utilization reports the scheduler's productive-time ratio (the HPX
// idle-rate counter of Figure 11).
func (r amtRuntime) Utilization() (float64, bool) {
	return r.s.CountersSnapshot().Utilization(), true
}

// ResetCounters restarts utilization accounting.
func (r amtRuntime) ResetCounters() { r.s.ResetCounters() }

// Counters exposes the scheduler's activity counters (steals, migrated
// frames, affinity hits) for the benchmark harness and trace export.
func (r amtRuntime) Counters() amt.Counters { return r.s.CountersSnapshot() }

// Close releases the scheduler front-end. With a private pool this shuts
// the workers down; in the task backend's shared-pool mode it only
// quiesces this backend's outstanding tasks — the externally owned pool
// keeps serving its other jobs.
func (r amtRuntime) Close() { r.s.Close() }

// SetObserver forwards spans from the AMT scheduler.
func (r amtRuntime) SetObserver(fn SpanObserver) { r.s.SetObserver(fn) }

// SetProfiler attaches the profiler to the scheduler's task sink.
func (r amtRuntime) SetProfiler(p *perf.Profiler) {
	if p == nil {
		r.s.SetSink(nil)
		return
	}
	registerPhases(p)
	r.s.SetSink(p)
}
