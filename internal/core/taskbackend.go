package core

import (
	"sync"

	"lulesh/internal/amt"
	"lulesh/internal/domain"
	"lulesh/internal/kernels"
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
	s   *amt.Scheduler
	opt Options

	// aff is the locality layer's persistent partition→worker map: every
	// partition task is spawned with its home worker as affinity hint.
	aff *affinityMap

	// Mesh-sized persistent temporaries, carved from one arena.
	arena               *kernels.Arena
	sigxx, sigyy, sigzz []float64
	determS, determH    []float64
	fxS, fyS, fzS       []float64
	fxH, fyH, fzH       []float64
	vnewc               []float64

	hgPool  sync.Pool // *hgScratch sized to one element partition
	eosPool sync.Pool // *kernels.EOSScratch sized to one element partition

	// Per-region-partition constraint minima, folded after the join.
	dtcPart, dthPart []float64

	flag kernels.Flag
}

// hgScratch holds the task-local hourglass temporaries for one partition,
// carved from a single arena allocation so the six planes one task walks
// in lockstep are contiguous.
type hgScratch struct {
	dvdx, dvdy, dvdz []float64
	x8n, y8n, z8n    []float64
}

func newHGScratch(n int) *hgScratch {
	a := kernels.NewArena(6 * 8 * n)
	return &hgScratch{
		dvdx: a.Take(8 * n),
		dvdy: a.Take(8 * n),
		dvdz: a.Take(8 * n),
		x8n:  a.Take(8 * n),
		y8n:  a.Take(8 * n),
		z8n:  a.Take(8 * n),
	}
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
	ne := d.NumElem()
	// 5 element-sized planes + 6 corner-sized (8·ne) planes + vnewc.
	a := kernels.NewArena((5 + 6*8 + 1) * ne)
	sched := opt.Scheduler
	if sched == nil {
		sched = amt.NewScheduler(amt.WithWorkers(opt.Threads),
			amt.WithStealHalf(opt.StealHalf))
	}
	b := &BackendTask{
		s:       sched,
		opt:     opt,
		aff:     newAffinityMap(ne, d.NumNode(), sched.Workers(), opt.PartElem, opt.PartNodal),
		arena:   a,
		sigxx:   a.Take(ne),
		sigyy:   a.Take(ne),
		sigzz:   a.Take(ne),
		determS: a.Take(ne),
		determH: a.Take(ne),
		fxS:     a.Take(8 * ne),
		fyS:     a.Take(8 * ne),
		fzS:     a.Take(8 * ne),
		fxH:     a.Take(8 * ne),
		fyH:     a.Take(8 * ne),
		fzH:     a.Take(8 * ne),
		vnewc:   a.Take(ne),
	}
	partE := opt.PartElem
	b.hgPool.New = func() any { return newHGScratch(partE) }
	b.eosPool.New = func() any { return kernels.NewEOSScratch(partE) }

	nParts := 0
	for _, regList := range d.Regions.ElemList {
		nParts += numPartitions(len(regList), partE)
	}
	b.dtcPart = make([]float64, nParts)
	b.dthPart = make([]float64, nParts)
	return b
}

func (b *BackendTask) Name() string { return "task" }

// Threads reports the worker count.
func (b *BackendTask) Threads() int { return b.s.Workers() }

// Utilization reports the AMT scheduler's productive-time ratio (the HPX
// idle-rate counter of Figure 11).
func (b *BackendTask) Utilization() (float64, bool) {
	return b.s.CountersSnapshot().Utilization(), true
}

// ResetCounters restarts utilization accounting.
func (b *BackendTask) ResetCounters() { b.s.ResetCounters() }

// Close releases the backend's scheduler front-end. With a private pool
// (Options.Scheduler nil) this shuts the workers down; in shared-pool mode
// it only quiesces this backend's outstanding tasks — the externally owned
// pool keeps serving its other jobs.
func (b *BackendTask) Close() { b.s.Close() }

// Options returns the backend's configuration.
func (b *BackendTask) Options() Options { return b.opt }

// Step pre-creates and executes the task graph for one leapfrog iteration.
func (b *BackendTask) Step(d *domain.Domain) error {
	b.flag.Reset()

	// Stage 1: the two independent force families, one chain per element
	// partition each. Each launch family publishes its phase tag first;
	// continuation frames capture the tag at attach time, so the whole
	// graph is phase-labeled during this sequential construction even
	// though the frames spawn later, when barriers trip.
	b.s.SetPhase(PhaseForce)
	forces := b.launchForces(d)
	if !b.opt.Chain {
		amt.WaitAll(forces)
		if err := b.flag.Err(); err != nil {
			return err
		}
	}

	// Barrier B1 (element→node): nodal chains need all corner forces.
	b.s.SetPhase(PhaseNodal)
	nodal := b.launchNodal(d, forces)
	if !b.opt.Chain {
		amt.WaitAll(nodal)
	}

	// Barrier B2 (node→element): kinematics needs updated positions and
	// velocities of all corner nodes.
	b.s.SetPhase(PhaseElements)
	elems := b.launchElements(d, nodal)
	if !b.opt.Chain {
		amt.WaitAll(elems)
		if err := b.flag.Err(); err != nil {
			return err
		}
	}

	// Barrier B3 (element→neighbour element): the monotonic Q limiter
	// reads neighbour gradients; the volume update and the region chains
	// both depend on stage 3 and run concurrently.
	b.s.SetPhase(PhaseRegions)
	regionTasks := b.launchRegions(d, elems)
	b.s.SetPhase(PhaseVolumes)
	volTasks := b.launchVolumes(d, elems)

	// Barrier B4 (join): fold the per-partition constraint minima.
	b.s.SetPhase(PhaseConstraints)
	all := append(regionTasks, volTasks...)
	done := amt.AfterAllRun(b.s, all, func() {
		dtc, dth := kernels.HugeDt, kernels.HugeDt
		for _, v := range b.dtcPart {
			if v < dtc {
				dtc = v
			}
		}
		for _, v := range b.dthPart {
			if v < dth {
				dth = v
			}
		}
		d.Dtcourant = dtc
		d.Dthydro = dth
	})
	done.Get()
	b.s.SetPhase(PhaseOther)
	return b.flag.Err()
}

// Counters exposes the scheduler's activity counters (steals, migrated
// frames, affinity hits) for the benchmark harness and trace export.
func (b *BackendTask) Counters() amt.Counters { return b.s.CountersSnapshot() }

// launchForces creates the stress and hourglass force tasks for every
// element partition. With ParallelForces the two families are independent
// tasks; otherwise each partition's hourglass chain is attached behind its
// stress chain.
func (b *BackendTask) launchForces(d *domain.Domain) []*amt.Void {
	p := &d.Par
	var out []*amt.Void
	partition(d.NumElem(), b.opt.PartElem, func(lo, hi int) {
		home := b.aff.elemWorker(lo)
		stressInit := func() {
			kernels.InitStressTerms(d, b.sigxx, b.sigyy, b.sigzz, lo, hi)
		}
		stressIntegrate := func() {
			kernels.IntegrateStress(d, b.sigxx, b.sigyy, b.sigzz, b.determS,
				b.fxS, b.fyS, b.fzS, lo, hi)
			kernels.CheckDeterm(b.determS, lo, hi, &b.flag)
		}
		var stress *amt.Void
		if b.opt.Fuse {
			stress = amt.RunAt(b.s, home, func() { stressInit(); stressIntegrate() })
		} else {
			stress = amt.ThenRunAt(amt.RunAt(b.s, home, stressInit), home,
				func(amt.Unit) { stressIntegrate() })
		}
		out = append(out, stress)

		hg := func() *amt.Void {
			if b.opt.Fuse {
				run := func() {
					sc := b.hgPool.Get().(*hgScratch)
					kernels.HourglassPrep(d, sc.dvdx, sc.dvdy, sc.dvdz,
						sc.x8n, sc.y8n, sc.z8n, b.determH, lo, lo, hi, &b.flag)
					if p.HGCoef > 0 {
						kernels.FBHourglass(d, sc.dvdx, sc.dvdy, sc.dvdz,
							sc.x8n, sc.y8n, sc.z8n, b.determH, p.HGCoef, lo, lo, hi,
							b.fxH, b.fyH, b.fzH)
					}
					b.hgPool.Put(sc)
				}
				if b.opt.ParallelForces {
					return amt.RunAt(b.s, home, run)
				}
				return amt.ThenRunAt(stress, home, func(amt.Unit) { run() })
			}
			// Unfused: prep and force as chained tasks sharing scratch.
			sc := b.hgPool.Get().(*hgScratch)
			prep := func() {
				kernels.HourglassPrep(d, sc.dvdx, sc.dvdy, sc.dvdz,
					sc.x8n, sc.y8n, sc.z8n, b.determH, lo, lo, hi, &b.flag)
			}
			force := func() {
				if p.HGCoef > 0 {
					kernels.FBHourglass(d, sc.dvdx, sc.dvdy, sc.dvdz,
						sc.x8n, sc.y8n, sc.z8n, b.determH, p.HGCoef, lo, lo, hi,
						b.fxH, b.fyH, b.fzH)
				}
				b.hgPool.Put(sc)
			}
			var t *amt.Void
			if b.opt.ParallelForces {
				t = amt.RunAt(b.s, home, prep)
			} else {
				t = amt.ThenRunAt(stress, home, func(amt.Unit) { prep() })
			}
			return amt.ThenRunAt(t, home, func(amt.Unit) { force() })
		}()
		out = append(out, hg)
	})
	return out
}

// launchNodal creates one fused chain per node partition: force gather,
// acceleration, boundary conditions, velocity, position.
func (b *BackendTask) launchNodal(d *domain.Domain, forces []*amt.Void) []*amt.Void {
	p := &d.Par
	delt := d.Deltatime
	barrier := amt.AfterAll(b.s, forces)
	var out []*amt.Void
	partition(d.NumNode(), b.opt.PartNodal, func(lo, hi int) {
		home := b.aff.nodeWorker(lo)
		gather := func() {
			if p.HGCoef > 0 {
				kernels.GatherTwoCornerForces(d, b.fxS, b.fyS, b.fzS,
					b.fxH, b.fyH, b.fzH, lo, hi)
			} else {
				kernels.GatherCornerForces(d, b.fxS, b.fyS, b.fzS, lo, hi, false)
			}
		}
		accel := func() {
			kernels.CalcAcceleration(d, lo, hi)
			kernels.ApplyAccelBCFlags(d, lo, hi)
		}
		vel := func() { kernels.CalcVelocity(d, delt, p.UCut, lo, hi) }
		pos := func() { kernels.CalcPosition(d, delt, lo, hi) }

		if b.opt.Fuse {
			out = append(out, amt.ThenRunAt(barrier, home, func(amt.Unit) {
				gather()
				accel()
				vel()
				pos()
			}))
			return
		}
		t := amt.ThenRunAt(barrier, home, func(amt.Unit) { gather() })
		t = amt.ThenRunAt(t, home, func(amt.Unit) { accel() })
		t = amt.ThenRunAt(t, home, func(amt.Unit) { vel() })
		t = amt.ThenRunAt(t, home, func(amt.Unit) { pos() })
		out = append(out, t)
	})
	return out
}

// launchElements creates one chain per element partition: kinematics,
// strain rates, monotonic-Q gradients, the qstop scan, and the vnewc
// preparation with its volume bound check.
func (b *BackendTask) launchElements(d *domain.Domain, nodal []*amt.Void) []*amt.Void {
	p := &d.Par
	delt := d.Deltatime
	barrier := amt.AfterAll(b.s, nodal)
	var out []*amt.Void
	partition(d.NumElem(), b.opt.PartElem, func(lo, hi int) {
		home := b.aff.elemWorker(lo)
		kin := func() {
			kernels.CalcKinematics(d, delt, lo, hi)
			kernels.CalcStrainRate(d, lo, hi, &b.flag)
		}
		grad := func() { kernels.MonoQGradients(d, lo, hi) }
		prep := func() {
			kernels.QStopCheck(d, lo, hi, &b.flag)
			kernels.CopyVnewc(d, b.vnewc, lo, hi)
			if p.EOSvMin != 0 {
				kernels.ClampVnewcLow(b.vnewc, p.EOSvMin, lo, hi)
			}
			if p.EOSvMax != 0 {
				kernels.ClampVnewcHigh(b.vnewc, p.EOSvMax, lo, hi)
			}
			kernels.CheckVBounds(d, lo, hi, &b.flag)
		}
		if b.opt.Fuse {
			out = append(out, amt.ThenRunAt(barrier, home, func(amt.Unit) {
				kin()
				grad()
				prep()
			}))
			return
		}
		t := amt.ThenRunAt(barrier, home, func(amt.Unit) { kin() })
		t = amt.ThenRunAt(t, home, func(amt.Unit) { grad() })
		t = amt.ThenRunAt(t, home, func(amt.Unit) { prep() })
		out = append(out, t)
	})
	return out
}

// launchRegions creates the per-region material chains: monotonic Q, the
// repeated EOS evaluation, and the partition's time-constraint minima.
// With ParallelRegions all chains start at the stage-3 barrier; otherwise
// region r+1 waits for region r, as the sequential reference does.
func (b *BackendTask) launchRegions(d *domain.Domain, elems []*amt.Void) []*amt.Void {
	parent := amt.AfterAll(b.s, elems)
	var out []*amt.Void
	pidx := 0
	for r, regList := range d.Regions.ElemList {
		rep := d.Regions.Rep(r)
		var regionTasks []*amt.Void
		partition(len(regList), b.opt.PartElem, func(lo, hi int) {
			idx := pidx
			pidx++
			// The chain inherits the affinity of its element range.
			home := b.aff.regionWorker(regList, lo)
			monoq := func() { kernels.MonoQRegion(d, regList, lo, hi) }
			eos := func() {
				sc := b.eosPool.Get().(*kernels.EOSScratch)
				kernels.EvalEOS(d, b.vnewc, regList, sc, rep, lo, hi)
				b.eosPool.Put(sc)
			}
			constraints := func() {
				b.dtcPart[idx] = kernels.CourantConstraint(d, regList, lo, hi)
				b.dthPart[idx] = kernels.HydroConstraint(d, regList, lo, hi)
			}
			var t *amt.Void
			if b.opt.Fuse {
				t = amt.ThenRunAt(parent, home, func(amt.Unit) {
					monoq()
					eos()
					constraints()
				})
			} else {
				t = amt.ThenRunAt(parent, home, func(amt.Unit) { monoq() })
				t = amt.ThenRunAt(t, home, func(amt.Unit) { eos() })
				t = amt.ThenRunAt(t, home, func(amt.Unit) { constraints() })
			}
			regionTasks = append(regionTasks, t)
		})
		out = append(out, regionTasks...)
		// Serialized mode: the next region waits for this one. Empty
		// regions contribute no tasks and must keep the previous parent —
		// AfterAll(nil) is already ready and would detach the next region
		// from the stage-3 barrier.
		if !b.opt.ParallelRegions && len(regionTasks) > 0 {
			parent = amt.AfterAll(b.s, regionTasks)
		}
	}
	return out
}

// launchVolumes creates the volume-commit tasks. They depend only on
// stage 3 (kinematics and the volume bound check) and therefore overlap
// the region chains.
func (b *BackendTask) launchVolumes(d *domain.Domain, elems []*amt.Void) []*amt.Void {
	vCut := d.Par.VCut
	barrier := amt.AfterAll(b.s, elems)
	var out []*amt.Void
	partition(d.NumElem(), b.opt.PartElem, func(lo, hi int) {
		out = append(out, amt.ThenRunAt(barrier, b.aff.elemWorker(lo), func(amt.Unit) {
			kernels.UpdateVolumes(d, vCut, lo, hi)
		}))
	})
	return out
}
