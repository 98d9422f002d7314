package dist

import (
	"lulesh/internal/comm"
	"lulesh/internal/core"
	"lulesh/internal/domain"
)

// The per-iteration protocol, in both exchange schedules. A rank runs the
// core kernel families (core.Family) over spans of its index spaces and
// posts its halos between them; the overlapped schedule runs the boundary
// planes first. Every step is per-datum, so both schedules execute the
// same arithmetic per datum.

// The two halos cut two families: the summed boundary forces land
// between the nodal family's force gather and its integration (LULESH's
// CommSBN), and the ghost gradients are read by the region family's
// monotonic Q only (CommMonoQ).
var (
	gather, integrate  = core.Nodal.Split(1)
	regionQ, regionEOS = core.Region.Split(1)
)

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

// apply runs the families fams, in order, over span s of their index
// space — split across the rank's team in hybrid mode, one block per
// thread running every family.
func (r *rank) apply(s domain.Span, fams ...*core.Family) {
	r.rangeBlock(s.Lo, s.Hi, func(a, b int) {
		p := core.Part{Lo: a, Hi: b}
		for _, f := range fams {
			r.kit.Run(f, &p)
		}
	})
}

// applySpans applies the families over each span.
func (r *rank) applySpans(spans []domain.Span, fams ...*core.Family) {
	for _, s := range spans {
		r.apply(s, fams...)
	}
}

// monoQ applies the region Q over one element list per region — a full
// region list or its boundary or interior sublist.
func (r *rank) monoQ(lists [][]int32) {
	for _, l := range lists {
		r.rangeBlock(0, len(l), func(a, b int) {
			r.kit.Run(regionQ, &core.Part{Lo: a, Hi: b, List: l})
		})
	}
}

// materials runs the rest of the region chain — EOS and the local
// time-constraint minima — and the volume commit: entirely rank-local,
// so both schedules share it. Error flags raised during the step are
// reported by the caller afterwards: unlike the single-domain backends,
// a distributed rank must never abandon the exchange protocol
// mid-iteration, or its peers would deadlock or read mismatched tags;
// the failure travels through the dt reduction instead.
func (r *rank) materials() {
	d := r.d
	r.kit.ResetConstraints()
	for reg, l := range d.Regions.ElemList {
		rep := d.Regions.Rep(reg)
		r.rangeBlock(0, len(l), func(a, b int) {
			p := core.Part{Lo: a, Hi: b, List: l, Rep: rep}
			r.kit.Run(regionEOS, &p)
			r.kit.Fold(p)
		})
	}
	r.apply(domain.Span{Hi: d.NumElem()}, core.Volumes)
}

// step advances one leapfrog iteration. The constraint minima are left
// in d.Dtcourant / d.Dthydro for the caller's global reduction.
//
// Under the overlapped schedule boundary planes are computed and sent
// first, interior work overlaps the message flight, and each receive is a
// join placed directly in front of the work that actually reads remote
// data — nothing else waits on it. The force join gates only the boundary
// nodal integration: the remote force sums land exclusively on the shared
// node planes, so the interior acceleration/BC/velocity/position chain
// runs while the frames are in flight. The gradient join gates only the
// boundary-plane region Q: the ghost gradient slots are read exclusively
// by elements on the communicated faces, so the interior region Q
// overlaps that exchange too. (An endpoint is not safe for concurrent
// use, so the overlap is schedule-driven on the rank's one goroutine:
// everything before a receive ran while the messages were in flight.)
//
// The synchronous, MPI-style schedule is the same sequence over plans
// whose boundary is everything: each phase computes in full, then blocks
// on its exchange. Every kernel involved is per-datum, so the two
// schedules stay bitwise identical — luleshverify asserts it, per
// scenario, over the real wire.
func (r *rank) step() error {
	r.kit.Begin(r.d)

	// LagrangeNodal: boundary element planes first, so their nodal planes
	// can be posted while the interior computes; the interior force work
	// and the full interior nodal chain overlap the force frames.
	r.applySpans(r.elemPlan.Boundary, core.Stress, core.Hourglass)
	r.applySpans(r.nodePlan.Boundary, gather)
	r.sendHalo(&r.forces)
	r.apply(r.elemPlan.Interior, core.Stress, core.Hourglass)
	r.apply(r.nodePlan.Interior, gather, integrate)
	if err := r.recvHalo(&r.forces); err != nil {
		return err
	}
	r.applySpans(r.nodePlan.Boundary, integrate)

	// LagrangeElements: boundary element chains first, post, interior
	// overlaps — and the interior region Q runs before the ghost slots
	// have arrived.
	r.applySpans(r.elemPlan.Boundary, core.Elements)
	r.sendHalo(&r.grads)
	r.apply(r.elemPlan.Interior, core.Elements)
	r.monoQ(r.regInterior)
	if err := r.recvHalo(&r.grads); err != nil {
		return err
	}
	r.monoQ(r.regBoundary)

	r.materials()
	return r.kit.Err()
}
