package core

import (
	"lulesh/internal/domain"
	"lulesh/internal/kernels"
)

// The reference's LagrangeLeapFrog as one flat loop list, written once for
// the two fork-join baselines: every entry is one loop of the OpenMP
// reference, and the loops it runs inside one `#pragma omp parallel`
// carry the same group mark. The omp backend dispatches a group as one
// parallel region and every other loop as one worksharing loop with its
// barrier; the naive backend gives every loop — grouped or not — its own
// for_each and wait, and every constraint reduction its own reduce.

// The index spaces a reference loop can iterate over.
func nodes(c *refRun) int  { return c.d.NumNode() }
func elems(c *refRun) int  { return c.d.NumElem() }
func region(c *refRun) int { return len(c.list) } // the region being visited
func symmX(c *refRun) int  { return len(c.d.Mesh.SymmX) }
func symmY(c *refRun) int  { return len(c.d.Mesh.SymmY) }
func symmZ(c *refRun) int  { return len(c.d.Mesh.SymmZ) }

// loop is one reference loop.
type loop struct {
	phase  uint32 // nonzero: publish this phase tag first
	over   func(c *refRun) int
	group  int  // nonzero: shares one parallel region with its like-marked neighbours
	serial bool // runs on the calling thread, as in the reference
	check  bool // stop the step if a kernel raised an error
	when   func(p *domain.Params) bool
	body   func(c *refRun, lo, hi int)

	// A reduction loop: the minimum of reduce over the range is folded
	// into *into(d).
	reduce func(c *refRun, lo, hi int) float64
	into   func(d *domain.Domain) *float64

	// A compound entry: the loops run once per region (perRegion), or
	// the region's EOS repetition count times (repeat).
	perRegion, repeat []loop
}

// forkJoin is how a baseline dispatches the loop list.
type forkJoin interface {
	setPhase(ph uint32)
	// each runs one loop over [0, n) and waits.
	each(n int, body func(lo, hi int))
	// group runs consecutive like-marked loops.
	group(c *refRun, loops []loop)
	// min reduces one loop over [0, n).
	min(n int, f func(lo, hi int) float64) float64
}

// refRun is one step's walk of the list: the kit's mesh-sized
// temporaries, the reference's mesh-sized hourglass scratch (indexed from
// element 0) and its one EOS scratch, and the region being visited.
type refRun struct {
	*Kit
	hg   *hgScratch
	eos  *kernels.EOSScratch
	list []int32
	rep  int
}

func newRefRun(d *domain.Domain) *refRun {
	k := NewKit(d, d.NumElem())
	return &refRun{Kit: k, hg: k.hg.get(), eos: k.eos.get()}
}

// runs reports whether l is enabled for this problem.
func (c *refRun) runs(l *loop) bool { return l.when == nil || l.when(&c.d.Par) }

// step runs the reference timestep on d through x.
func (c *refRun) step(d *domain.Domain, x forkJoin) error {
	c.Begin(d)
	err := c.walk(x, referenceStep)
	x.setPhase(PhaseOther)
	return err
}

func (c *refRun) walk(x forkJoin, loops []loop) error {
	for i := 0; i < len(loops); i++ {
		l := &loops[i]
		if l.phase != 0 {
			x.setPhase(l.phase)
		}
		switch {
		case l.perRegion != nil:
			for r, list := range c.d.Regions.ElemList {
				c.list, c.rep = list, c.d.Regions.Rep(r)
				c.eos.Ensure(len(list))
				if err := c.walk(x, l.perRegion); err != nil {
					return err
				}
			}
		case l.repeat != nil:
			for j := 0; j < c.rep; j++ {
				if err := c.walk(x, l.repeat); err != nil {
					return err
				}
			}
		case l.group != 0:
			j := i + 1
			for j < len(loops) && loops[j].group == l.group {
				j++
			}
			x.group(c, loops[i:j])
			i = j - 1
			l = &loops[i]
		case !c.runs(l):
		case l.serial:
			l.body(c, 0, l.over(c))
		case l.reduce != nil:
			v := x.min(l.over(c), func(lo, hi int) float64 { return l.reduce(c, lo, hi) })
			dst := l.into(c.d)
			*dst = lesser(*dst, v)
		default:
			x.each(l.over(c), func(lo, hi int) { l.body(c, lo, hi) })
		}
		if l.check {
			if err := c.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

func hourglassOn(p *domain.Params) bool { return p.HGCoef > 0 }
func vMinOn(p *domain.Params) bool      { return p.EOSvMin != 0 }
func vMaxOn(p *domain.Params) bool      { return p.EOSvMax != 0 }

// referenceStep is LagrangeLeapFrog of the reference, loop by loop.
var referenceStep = []loop{
	// LagrangeNodal: CalcForceForNodes.
	{phase: PhaseForce, over: nodes, body: func(c *refRun, lo, hi int) { kernels.ZeroForces(c.d, lo, hi) }},
	{over: elems, body: func(c *refRun, lo, hi int) {
		kernels.InitStressTerms(c.d, c.sigxx, c.sigyy, c.sigzz, lo, hi)
	}},
	{over: elems, body: func(c *refRun, lo, hi int) {
		kernels.IntegrateStress(c.d, c.sigxx, c.sigyy, c.sigzz, c.determS, c.fxS, c.fyS, c.fzS, lo, hi)
	}},
	{over: nodes, body: func(c *refRun, lo, hi int) {
		kernels.GatherCornerForces(c.d, c.fxS, c.fyS, c.fzS, lo, hi, false)
	}},
	{over: elems, check: true, body: func(c *refRun, lo, hi int) { kernels.CheckDeterm(c.determS, lo, hi, &c.flag) }},
	{over: elems, check: true, body: func(c *refRun, lo, hi int) {
		h := c.hg
		kernels.HourglassPrep(c.d, h.dvdx, h.dvdy, h.dvdz, h.x8n, h.y8n, h.z8n, c.determH, 0, lo, hi, &c.flag)
	}},
	{over: elems, when: hourglassOn, body: func(c *refRun, lo, hi int) {
		h := c.hg
		kernels.FBHourglass(c.d, h.dvdx, h.dvdy, h.dvdz, h.x8n, h.y8n, h.z8n, c.determH,
			c.d.Par.HGCoef, 0, lo, hi, c.fxH, c.fyH, c.fzH)
	}},
	{over: nodes, when: hourglassOn, body: func(c *refRun, lo, hi int) {
		kernels.GatherCornerForces(c.d, c.fxH, c.fyH, c.fzH, lo, hi, true)
	}},

	// LagrangeNodal: acceleration, the three symmetry planes (one
	// parallel region of nowait loops), velocity, position.
	{phase: PhaseNodal, over: nodes, body: func(c *refRun, lo, hi int) { kernels.CalcAcceleration(c.d, lo, hi) }},
	{over: symmX, group: 1, body: func(c *refRun, lo, hi int) { kernels.ApplyAccelBCList(c.d, c.d.Mesh.SymmX, 0, lo, hi) }},
	{over: symmY, group: 1, body: func(c *refRun, lo, hi int) { kernels.ApplyAccelBCList(c.d, c.d.Mesh.SymmY, 1, lo, hi) }},
	{over: symmZ, group: 1, body: func(c *refRun, lo, hi int) { kernels.ApplyAccelBCList(c.d, c.d.Mesh.SymmZ, 2, lo, hi) }},
	{over: nodes, body: func(c *refRun, lo, hi int) { kernels.CalcVelocity(c.d, c.d.Deltatime, c.d.Par.UCut, lo, hi) }},
	{over: nodes, body: func(c *refRun, lo, hi int) { kernels.CalcPosition(c.d, c.d.Deltatime, lo, hi) }},

	// LagrangeElements: kinematics, monotonic Q, the serial qstop scan,
	// and the vnewc preparation (one parallel region).
	{phase: PhaseElements, over: elems, body: func(c *refRun, lo, hi int) { kernels.CalcKinematics(c.d, c.d.Deltatime, lo, hi) }},
	{over: elems, check: true, body: func(c *refRun, lo, hi int) { kernels.CalcStrainRate(c.d, lo, hi, &c.flag) }},
	{over: elems, body: func(c *refRun, lo, hi int) { kernels.MonoQGradients(c.d, lo, hi) }},
	{perRegion: []loop{
		{over: region, body: func(c *refRun, lo, hi int) { kernels.MonoQRegion(c.d, c.list, lo, hi) }},
	}},
	{over: elems, serial: true, check: true, body: func(c *refRun, lo, hi int) { kernels.QStopCheck(c.d, lo, hi, &c.flag) }},
	{over: elems, group: 2, body: func(c *refRun, lo, hi int) { kernels.CopyVnewc(c.d, c.vnewc, lo, hi) }},
	{over: elems, group: 2, when: vMinOn, body: func(c *refRun, lo, hi int) {
		kernels.ClampVnewcLow(c.vnewc, c.d.Par.EOSvMin, lo, hi)
	}},
	{over: elems, group: 2, when: vMaxOn, body: func(c *refRun, lo, hi int) {
		kernels.ClampVnewcHigh(c.vnewc, c.d.Par.EOSvMax, lo, hi)
	}},
	{over: elems, group: 2, check: true, body: func(c *refRun, lo, hi int) { kernels.CheckVBounds(c.d, lo, hi, &c.flag) }},

	// ApplyMaterialPropertiesForElems: region after region, loop by loop.
	{phase: PhaseRegions, perRegion: evalEOSRegion},
	{phase: PhaseVolumes, over: elems, body: func(c *refRun, lo, hi int) { kernels.UpdateVolumes(c.d, c.d.Par.VCut, lo, hi) }},

	// CalcTimeConstraintsForElems: two reductions per region.
	{phase: PhaseConstraints, over: elems, serial: true, body: func(c *refRun, _, _ int) { c.ResetConstraints() }},
	{perRegion: []loop{
		{over: region, into: func(d *domain.Domain) *float64 { return &d.Dtcourant },
			reduce: func(c *refRun, lo, hi int) float64 { return kernels.CourantConstraint(c.d, c.list, lo, hi) }},
		{over: region, into: func(d *domain.Domain) *float64 { return &d.Dthydro },
			reduce: func(c *refRun, lo, hi int) float64 { return kernels.HydroConstraint(c.d, c.list, lo, hi) }},
	}},
}

// evalEOSRegion is EvalEOSForElems for one region: the gather/compress
// block (one parallel region of nowait loops) and the loops of
// CalcEnergyForElems, repeated for expensive materials, then the store
// and the sound speed.
var evalEOSRegion = []loop{
	{repeat: []loop{
		{over: region, group: 3, body: func(c *refRun, lo, hi int) { kernels.EOSGather(c.d, c.list, c.eos, lo, lo, hi) }},
		{over: region, group: 3, body: func(c *refRun, lo, hi int) {
			kernels.EOSCompression(c.d, c.vnewc, c.list, c.eos, lo, lo, hi)
		}},
		{over: region, group: 3, when: vMinOn, body: func(c *refRun, lo, hi int) {
			kernels.EOSClampVMin(c.d, c.vnewc, c.list, c.eos, c.d.Par.EOSvMin, lo, lo, hi)
		}},
		{over: region, group: 3, when: vMaxOn, body: func(c *refRun, lo, hi int) {
			kernels.EOSClampVMax(c.d, c.vnewc, c.list, c.eos, c.d.Par.EOSvMax, lo, lo, hi)
		}},
		{over: region, group: 3, body: func(c *refRun, lo, hi int) { kernels.EOSZeroWork(c.eos, lo, lo, hi) }},

		{over: region, body: func(c *refRun, lo, hi int) { kernels.EnergyStep1(c.eos, c.d.Par.Emin, lo, hi) }},
		{over: region, body: func(c *refRun, lo, hi int) {
			s, p := c.eos, &c.d.Par
			kernels.CalcPressure(s.PHalfStep, s.Bvc, s.Pbvc, s.ENew, s.CompHalfStep,
				c.vnewc, c.list, 0, p.Pmin, p.PCut, p.EOSvMax, lo, hi)
		}},
		{over: region, body: func(c *refRun, lo, hi int) { kernels.EnergyStep2(c.eos, c.d.Par.RefDens, lo, hi) }},
		{over: region, body: func(c *refRun, lo, hi int) { kernels.EnergyStep3(c.eos, c.d.Par.ECut, c.d.Par.Emin, lo, hi) }},
		{over: region, body: pressure},
		{over: region, body: func(c *refRun, lo, hi int) {
			p := &c.d.Par
			kernels.EnergyStep4(c.eos, c.vnewc, c.list, 0, p.RefDens, p.ECut, p.Emin, lo, hi)
		}},
		{over: region, body: pressure},
		{over: region, body: func(c *refRun, lo, hi int) {
			kernels.EnergyStep5(c.eos, c.vnewc, c.list, 0, c.d.Par.RefDens, c.d.Par.QCut, lo, hi)
		}},
	}},
	{over: region, body: func(c *refRun, lo, hi int) { kernels.EOSStore(c.d, c.list, c.eos, lo, lo, hi) }},
	{over: region, body: func(c *refRun, lo, hi int) { kernels.CalcSoundSpeed(c.d, c.vnewc, c.list, c.eos, lo, lo, hi) }},
}

// pressure is the full-step CalcPressureForElems, run twice per energy
// update.
func pressure(c *refRun, lo, hi int) {
	s, p := c.eos, &c.d.Par
	kernels.CalcPressure(s.PNew, s.Bvc, s.Pbvc, s.ENew, s.Compression,
		c.vnewc, c.list, 0, p.Pmin, p.PCut, p.EOSvMax, lo, hi)
}
