package dist

import (
	"lulesh/internal/comm"
	"lulesh/internal/domain"
	"lulesh/internal/kernels"
	"lulesh/internal/omp"
)

// The per-iteration protocol, in both exchange schedules. Helper methods
// operate on index ranges so the overlapped schedule can run boundary
// planes first; both schedules execute the same arithmetic per datum.

// join is the continuation seam of the overlapped schedule: a posted
// exchange whose receive gates exactly the work that depends on remote
// data. Then blocks on the receive and runs the dependent continuation —
// the single-goroutine-per-rank analogue of the paper's future.then()
// chaining (an endpoint is not safe for concurrent use, so the overlap is
// schedule-driven: everything before Then already ran while the messages
// were in flight).
type join struct {
	r *rank
	h *halo
}

// post sends h's boundary planes and returns the join on their receive.
func (r *rank) post(h *halo) join {
	r.sendHalo(h)
	return join{r, h}
}

// Then completes the join: wait for the remote data, then run the
// dependent work.
func (j join) Then(cont func()) error {
	if err := j.r.recvHalo(j.h); err != nil {
		return err
	}
	cont()
	return nil
}

// computeForces runs the stress and hourglass element kernels for
// elements [lo, hi), filling the per-corner force arrays. In hybrid mode
// the range is split over the rank's team.
func (r *rank) computeForces(lo, hi int) {
	d := r.d
	r.rangeBlock(lo, hi, func(a, b int) {
		kernels.InitStressTerms(d, r.sigxx, r.sigyy, r.sigzz, a, b)
		kernels.IntegrateStress(d, r.sigxx, r.sigyy, r.sigzz, r.determS,
			r.fxS, r.fyS, r.fzS, a, b)
		kernels.CheckDeterm(r.determS, a, b, &r.flag)
		kernels.HourglassPrep(d, r.dvdx, r.dvdy, r.dvdz,
			r.x8n, r.y8n, r.z8n, r.determH, 0, a, b, &r.flag)
		if d.Par.HGCoef > 0 {
			kernels.FBHourglass(d, r.dvdx, r.dvdy, r.dvdz,
				r.x8n, r.y8n, r.z8n, r.determH, d.Par.HGCoef, 0, a, b,
				r.fxH, r.fyH, r.fzH)
		}
	})
}

// gatherForces sums corner forces into nodal forces for nodes [lo, hi).
func (r *rank) gatherForces(lo, hi int) {
	d := r.d
	r.rangeBlock(lo, hi, func(a, b int) {
		kernels.GatherCornerForces(d, r.fxS, r.fyS, r.fzS, a, b, false)
		if d.Par.HGCoef > 0 {
			kernels.GatherCornerForces(d, r.fxH, r.fyH, r.fzH, a, b, true)
		}
	})
}

// halo is one boundary exchange. Like LULESH's CommSend, every field of
// a face travels in one frame per peer: the n-wide planes of each field
// are packed back to back (Fx|Fy|Fz, DelvXi|DelvEta|DelvZeta). The planes
// sent to the lower peer start at index 0, those sent to the upper peer
// at sendHi; recvLo and recvHi are the slots the lower and upper peer's
// frame lands in — summed into shared node planes (CommSBN) or copied
// into ghost element slots (CommMonoQ).
type halo struct {
	tag            comm.Tag
	fields         [][]float64
	n              int
	sendHi         int
	recvLo, recvHi int
	sum            bool
}

// sendHalo packs h's planes into one frame per neighbour and sends it.
func (r *rank) sendHalo(h *halo) {
	pack := func(base int) []float64 {
		frame := r.pack[:len(h.fields)*h.n]
		for k, f := range h.fields {
			copy(frame[k*h.n:(k+1)*h.n], f[base:base+h.n])
		}
		return frame
	}
	if r.hasLower() {
		r.ep.Send(r.id-1, h.tag, pack(0))
	}
	if r.hasUpper() {
		r.ep.Send(r.id+1, h.tag, pack(h.sendHi))
	}
}

// recvHalo receives one frame per neighbour and unpacks it into h's
// landing slots, under the exchange deadline on the fault-tolerant
// fabric (a peer that stays silent past the retry budget surfaces as an
// error). Each slot takes exactly one add or copy, so the result does not
// depend on the unpacking order.
func (r *rank) recvHalo(h *halo) error {
	unpack := func(peer, base int) error {
		frame, err := r.ep.RecvDeadline(peer, h.tag)
		if err != nil {
			return err
		}
		for k, f := range h.fields {
			src, dst := frame[k*h.n:(k+1)*h.n], f[base:base+h.n]
			if !h.sum {
				copy(dst, src)
				continue
			}
			for i, v := range src {
				dst[i] += v
			}
		}
		return nil
	}
	if r.hasLower() {
		if err := unpack(r.id-1, h.recvLo); err != nil {
			return err
		}
	}
	if r.hasUpper() {
		return unpack(r.id+1, h.recvHi)
	}
	return nil
}

// nodalUpdate integrates acceleration, boundary conditions, velocity and
// position for all nodes.
func (r *rank) nodalUpdate() {
	d := r.d
	nn := d.NumNode()
	delt := d.Deltatime
	r.rangeBlock(0, nn, func(a, b int) { kernels.CalcAcceleration(d, a, b) })
	r.rangeBlock(0, len(d.Mesh.SymmX), func(a, b int) {
		kernels.ApplyAccelBCList(d, d.Mesh.SymmX, 0, a, b)
	})
	r.rangeBlock(0, len(d.Mesh.SymmY), func(a, b int) {
		kernels.ApplyAccelBCList(d, d.Mesh.SymmY, 1, a, b)
	})
	r.rangeBlock(0, len(d.Mesh.SymmZ), func(a, b int) {
		kernels.ApplyAccelBCList(d, d.Mesh.SymmZ, 2, a, b)
	})
	r.rangeBlock(0, nn, func(a, b int) {
		kernels.CalcVelocity(d, delt, d.Par.UCut, a, b)
	})
	r.rangeBlock(0, nn, func(a, b int) { kernels.CalcPosition(d, delt, a, b) })
}

// nodalChain runs the post-force nodal integration — acceleration,
// symmetry boundary conditions, velocity, position — over a set of node
// spans with the matching pre-split symmetry lists. Every kernel in the
// chain is per-node, so running it over the boundary spans and the
// interior span separately is bitwise identical to one full-range pass;
// the overlapped schedule uses that to start the interior chain before
// the remote force sums (which only touch boundary-plane nodes) have
// arrived.
func (r *rank) nodalChain(spans []domain.Span, symmX, symmY, symmZ []int32) {
	d := r.d
	delt := d.Deltatime
	for _, s := range spans {
		r.rangeBlock(s.Lo, s.Hi, func(a, b int) { kernels.CalcAcceleration(d, a, b) })
	}
	r.rangeBlock(0, len(symmX), func(a, b int) {
		kernels.ApplyAccelBCList(d, symmX, 0, a, b)
	})
	r.rangeBlock(0, len(symmY), func(a, b int) {
		kernels.ApplyAccelBCList(d, symmY, 1, a, b)
	})
	r.rangeBlock(0, len(symmZ), func(a, b int) {
		kernels.ApplyAccelBCList(d, symmZ, 2, a, b)
	})
	for _, s := range spans {
		r.rangeBlock(s.Lo, s.Hi, func(a, b int) {
			kernels.CalcVelocity(d, delt, d.Par.UCut, a, b)
		})
	}
	for _, s := range spans {
		r.rangeBlock(s.Lo, s.Hi, func(a, b int) { kernels.CalcPosition(d, delt, a, b) })
	}
}

// kinematicsRange runs the element kinematics and monotonic-Q gradients
// for elements [lo, hi).
func (r *rank) kinematicsRange(lo, hi int) {
	d := r.d
	r.rangeBlock(lo, hi, func(a, b int) {
		kernels.CalcKinematics(d, d.Deltatime, a, b)
		kernels.CalcStrainRate(d, a, b, &r.flag)
		kernels.MonoQGradients(d, a, b)
	})
}

// materialsAndConstraints runs the region Q, EOS, volume commit and local
// time-constraint minima — entirely rank-local. Error flags raised here
// are reported by the caller after the step: unlike the single-domain
// backends, a distributed rank must never abandon the exchange protocol
// mid-iteration, or its peers would deadlock or read mismatched tags; the
// failure travels through the dt reduction instead.
func (r *rank) materialsAndConstraints() error {
	for _, regList := range r.d.Regions.ElemList {
		r.monoQLists(regList)
	}
	return r.materialsTail()
}

// monoQLists applies the region monotonic-Q kernel over one element list
// (boundary sublist, interior sublist, or a full region list — the kernel
// is per-element, so any partition of a region list computes identical
// values).
func (r *rank) monoQLists(regList []int32) {
	d := r.d
	r.rangeBlock(0, len(regList), func(a, b int) {
		kernels.MonoQRegion(d, regList, a, b)
	})
}

// materialsTail is everything after the region Q: the q-stop check, EOS,
// volume commit and local time-constraint minima — entirely rank-local,
// so both schedules share it verbatim.
func (r *rank) materialsTail() error {
	d := r.d
	ne := d.NumElem()
	p := &d.Par

	r.rangeBlock(0, ne, func(a, b int) { kernels.QStopCheck(d, a, b, &r.flag) })

	r.rangeBlock(0, ne, func(a, b int) {
		kernels.CopyVnewc(d, r.vnewc, a, b)
		if p.EOSvMin != 0 {
			kernels.ClampVnewcLow(r.vnewc, p.EOSvMin, a, b)
		}
		if p.EOSvMax != 0 {
			kernels.ClampVnewcHigh(r.vnewc, p.EOSvMax, a, b)
		}
		kernels.CheckVBounds(d, a, b, &r.flag)
	})
	for reg, regList := range d.Regions.ElemList {
		rep := d.Regions.Rep(reg)
		r.evalEOSRegion(regList, rep)
	}
	r.rangeBlock(0, ne, func(a, b int) { kernels.UpdateVolumes(d, p.VCut, a, b) })

	d.Dtcourant = kernels.HugeDt
	d.Dthydro = kernels.HugeDt
	for _, regList := range d.Regions.ElemList {
		dtc, dth := r.constraintMins(regList)
		if dtc < d.Dtcourant {
			d.Dtcourant = dtc
		}
		if dth < d.Dthydro {
			d.Dthydro = dth
		}
	}
	return nil
}

// evalEOSRegion evaluates one region's EOS. In hybrid mode the region list
// is partitioned across the team, each thread with its own scratch — the
// partitioned evaluation is value-identical to the whole-region one.
func (r *rank) evalEOSRegion(regList []int32, rep int) {
	if r.pool == nil {
		kernels.EvalEOS(r.d, r.vnewc, regList, r.scratch, rep, 0, len(regList))
		return
	}
	n := len(regList)
	nth := r.pool.Threads()
	r.pool.Parallel(func(tid int) {
		lo, hi := omp.StaticRange(tid, nth, n)
		if lo < hi {
			kernels.EvalEOS(r.d, r.vnewc, regList, r.scratches[tid], rep, lo, hi)
		}
	})
}

// constraintMins folds the region's time constraints, splitting across the
// team in hybrid mode (min is exact, so the split cannot change the value).
func (r *rank) constraintMins(regList []int32) (float64, float64) {
	if r.pool == nil {
		return kernels.CourantConstraint(r.d, regList, 0, len(regList)),
			kernels.HydroConstraint(r.d, regList, 0, len(regList))
	}
	n := len(regList)
	nth := r.pool.Threads()
	r.pool.Parallel(func(tid int) {
		lo, hi := omp.StaticRange(tid, nth, n)
		r.dtcPart[tid] = kernels.CourantConstraint(r.d, regList, lo, hi)
		r.dthPart[tid] = kernels.HydroConstraint(r.d, regList, lo, hi)
	})
	dtc, dth := kernels.HugeDt, kernels.HugeDt
	for tid := 0; tid < nth; tid++ {
		if r.dtcPart[tid] < dtc {
			dtc = r.dtcPart[tid]
		}
		if r.dthPart[tid] < dth {
			dth = r.dthPart[tid]
		}
	}
	return dtc, dth
}

// stepSynchronous is the MPI-style schedule: compute a full phase, then
// block on the exchange at the phase boundary.
func (r *rank) stepSynchronous() error {
	d := r.d
	ne := d.NumElem()
	nn := d.NumNode()
	r.flag.Reset()

	// LagrangeNodal.
	r.rangeBlock(0, nn, func(a, b int) { kernels.ZeroForces(d, a, b) })
	r.computeForces(0, ne)
	r.gatherForces(0, nn)
	r.sendHalo(&r.forces)
	if err := r.recvHalo(&r.forces); err != nil { // blocking phase boundary
		return err
	}
	r.nodalUpdate()

	// LagrangeElements.
	r.kinematicsRange(0, ne)
	r.sendHalo(&r.grads)
	if err := r.recvHalo(&r.grads); err != nil { // blocking phase boundary
		return err
	}

	if err := r.materialsAndConstraints(); err != nil {
		return err
	}
	return r.flag.Err()
}

// stepOverlapped is the asynchronous schedule: boundary planes are
// computed and sent first, interior work overlaps the message flight, and
// each receive is a join placed directly in front of the work that
// actually reads remote data — nothing else waits on it.
//
// The force join gates only the boundary nodal chain: the remote force
// sums land exclusively on the shared node planes, so the interior
// acceleration/BC/velocity/position chain runs while the frames are in
// flight. The gradient join gates only the boundary-plane region Q: the
// ghost gradient slots are read exclusively by elements on the
// communicated faces, so the interior region Q overlaps that exchange
// too. Every kernel involved is per-datum, so the split execution stays
// bitwise identical to the synchronous schedule — luleshverify asserts
// it, per scenario, over the real wire.
func (r *rank) stepOverlapped() error {
	d := r.d
	nn := d.NumNode()
	r.flag.Reset()

	r.rangeBlock(0, nn, func(a, b int) { kernels.ZeroForces(d, a, b) })

	// Boundary element planes first so their nodal planes can be posted
	// while the interior computes.
	for _, s := range r.elemPlan.Boundary {
		r.computeForces(s.Lo, s.Hi)
	}
	for _, s := range r.nodePlan.Boundary {
		r.gatherForces(s.Lo, s.Hi)
	}
	forces := r.post(&r.forces)

	// Interior force work and the full interior nodal chain overlap the
	// force frames.
	if s := r.elemPlan.Interior; !s.Empty() {
		r.computeForces(s.Lo, s.Hi)
	}
	if s := r.nodePlan.Interior; !s.Empty() {
		r.gatherForces(s.Lo, s.Hi)
		r.nodalChain([]domain.Span{s}, r.symmXI, r.symmYI, r.symmZI)
	}
	if err := forces.Then(func() {
		r.nodalChain(r.nodePlan.Boundary, r.symmXB, r.symmYB, r.symmZB)
	}); err != nil {
		return err
	}

	// Boundary kinematics/gradients first, post, interior overlaps — and
	// the interior region Q runs before the ghost slots have arrived.
	for _, s := range r.elemPlan.Boundary {
		r.kinematicsRange(s.Lo, s.Hi)
	}
	grads := r.post(&r.grads)

	if s := r.elemPlan.Interior; !s.Empty() {
		r.kinematicsRange(s.Lo, s.Hi)
	}
	for _, regList := range r.regInterior {
		r.monoQLists(regList)
	}
	if err := grads.Then(func() {
		for _, regList := range r.regBoundary {
			r.monoQLists(regList)
		}
	}); err != nil {
		return err
	}

	if err := r.materialsTail(); err != nil {
		return err
	}
	return r.flag.Err()
}
