package core

import (
	"sync"

	"lulesh/internal/domain"
	"lulesh/internal/kernels"
)

// The paper's timestep, written once. Its kernels group into six families
// — stress, hourglass, nodal, elements, the per-region chain and volumes —
// each a short list of steps over one index space. The task, serial and
// distributed executors all run these lists; they differ only in how they
// partition an index space and which edges connect the partitions:
//
//	family     space    waits on                        steps (unfused)
//	stress     elems    —                               init, integrate+determ
//	hourglass  elems    stress (unless ParallelForces)  prep, force
//	nodal      nodes    B1: all forces                  gather, accel+BC, velocity, position
//	elements   elems    B2: all nodal                   kinematics+strain, Q gradients, qstop+vnewc
//	region     regions  B3: all elements (and region    monoQ, EOS, constraints
//	                    r-1 unless ParallelRegions)
//	volumes    elems    B3: all elements                update
//
// Fused, a partition runs its family's steps back to back in one task.
// Every step is per-datum over its range, so any partitioning of a space,
// and any order of the partitions, computes bitwise-identical values.

// Space is the index space a family's partitions cover.
type Space uint8

// Index spaces.
const (
	SpaceElems  Space = iota // element indices [0, numElem)
	SpaceNodes               // node indices [0, numNode)
	SpaceRegion              // positions in one region's element list
)

// Part is one partition of a family's index space: [Lo, Hi) of the
// element or node range, or of List — a region's element list, or any
// sublist of one — for the region family. A region part also carries its
// region's EOS repetition count and receives the partition's
// time-constraint minima.
type Part struct {
	Lo, Hi   int
	List     []int32
	Rep      int
	Dtc, Dth float64

	hg *hgScratch // held from the hourglass prep step to the force step
}

// Step is one kernel (or a kernel plus its check) over a partition.
type Step func(k *Kit, p *Part)

// Family is one of the paper's kernel families.
type Family struct {
	Phase uint32
	Space Space
	Steps []Step
}

// Split returns f's first i steps and the rest as two families over the
// same space — the seam a distributed rank exchanges halos at.
func (f *Family) Split(i int) (head, tail *Family) {
	h, t := *f, *f
	h.Steps, t.Steps = f.Steps[:i:i], f.Steps[i:]
	return &h, &t
}

// The six families, in graph order.
var (
	Stress    = &Family{PhaseForce, SpaceElems, []Step{initStress, integrateStress}}
	Hourglass = &Family{PhaseForce, SpaceElems, []Step{hourglassPrep, hourglassForce}}
	Nodal     = &Family{PhaseNodal, SpaceNodes, []Step{gatherForces, accelerate, velocity, position}}
	Elements  = &Family{PhaseElements, SpaceElems, []Step{kinematics, gradients, prepareEOS}}
	Region    = &Family{PhaseRegions, SpaceRegion, []Step{monoQ, evalEOS, constraints}}
	Volumes   = &Family{PhaseVolumes, SpaceElems, []Step{updateVolumes}}
)

func initStress(k *Kit, p *Part) {
	kernels.InitStressTerms(k.d, k.sigxx, k.sigyy, k.sigzz, p.Lo, p.Hi)
}

func integrateStress(k *Kit, p *Part) {
	kernels.IntegrateStress(k.d, k.sigxx, k.sigyy, k.sigzz, k.determS,
		k.fxS, k.fyS, k.fzS, p.Lo, p.Hi)
	kernels.CheckDeterm(k.determS, p.Lo, p.Hi, &k.flag)
}

// hourglassPrep takes the partition's hourglass scratch; hourglassForce,
// always the next step of the same partition, gives it back.
func hourglassPrep(k *Kit, p *Part) {
	p.hg = k.hg.get()
	sc := p.hg
	kernels.HourglassPrep(k.d, sc.dvdx, sc.dvdy, sc.dvdz,
		sc.x8n, sc.y8n, sc.z8n, k.determH, p.Lo, p.Lo, p.Hi, &k.flag)
}

func hourglassForce(k *Kit, p *Part) {
	sc := p.hg
	if hg := k.d.Par.HGCoef; hg > 0 {
		kernels.FBHourglass(k.d, sc.dvdx, sc.dvdy, sc.dvdz,
			sc.x8n, sc.y8n, sc.z8n, k.determH, hg, p.Lo, p.Lo, p.Hi,
			k.fxH, k.fyH, k.fzH)
	}
	k.hg.put(sc)
	p.hg = nil
}

func gatherForces(k *Kit, p *Part) {
	if k.d.Par.HGCoef > 0 {
		kernels.GatherTwoCornerForces(k.d, k.fxS, k.fyS, k.fzS,
			k.fxH, k.fyH, k.fzH, p.Lo, p.Hi)
	} else {
		kernels.GatherCornerForces(k.d, k.fxS, k.fyS, k.fzS, p.Lo, p.Hi, false)
	}
}

func accelerate(k *Kit, p *Part) {
	kernels.CalcAcceleration(k.d, p.Lo, p.Hi)
	kernels.ApplyAccelBCFlags(k.d, p.Lo, p.Hi)
}

func velocity(k *Kit, p *Part) {
	kernels.CalcVelocity(k.d, k.d.Deltatime, k.d.Par.UCut, p.Lo, p.Hi)
}

func position(k *Kit, p *Part) { kernels.CalcPosition(k.d, k.d.Deltatime, p.Lo, p.Hi) }

func kinematics(k *Kit, p *Part) {
	kernels.CalcKinematics(k.d, k.d.Deltatime, p.Lo, p.Hi)
	kernels.CalcStrainRate(k.d, p.Lo, p.Hi, &k.flag)
}

func gradients(k *Kit, p *Part) { kernels.MonoQGradients(k.d, p.Lo, p.Hi) }

// prepareEOS is the qstop scan and the vnewc preparation with its volume
// bound check.
func prepareEOS(k *Kit, p *Part) {
	d, par := k.d, &k.d.Par
	kernels.QStopCheck(d, p.Lo, p.Hi, &k.flag)
	kernels.CopyVnewc(d, k.vnewc, p.Lo, p.Hi)
	if par.EOSvMin != 0 {
		kernels.ClampVnewcLow(k.vnewc, par.EOSvMin, p.Lo, p.Hi)
	}
	if par.EOSvMax != 0 {
		kernels.ClampVnewcHigh(k.vnewc, par.EOSvMax, p.Lo, p.Hi)
	}
	kernels.CheckVBounds(d, p.Lo, p.Hi, &k.flag)
}

func monoQ(k *Kit, p *Part) { kernels.MonoQRegion(k.d, p.List, p.Lo, p.Hi) }

func evalEOS(k *Kit, p *Part) {
	sc := k.eos.get()
	kernels.EvalEOS(k.d, k.vnewc, p.List, sc, p.Rep, p.Lo, p.Hi)
	k.eos.put(sc)
}

func constraints(k *Kit, p *Part) {
	p.Dtc = kernels.CourantConstraint(k.d, p.List, p.Lo, p.Hi)
	p.Dth = kernels.HydroConstraint(k.d, p.List, p.Lo, p.Hi)
}

func updateVolumes(k *Kit, p *Part) { kernels.UpdateVolumes(k.d, k.d.Par.VCut, p.Lo, p.Hi) }

// Kit holds what the steps share for one domain shape: the mesh-sized
// temporaries (carved from one arena so consecutive kernels' working sets
// are contiguous), free lists of partition-local scratch, and the sticky
// error flag the kernels raise.
type Kit struct {
	d    *domain.Domain
	flag kernels.Flag

	sigxx, sigyy, sigzz []float64
	determS             []float64 // stress-integration volumes
	determH             []float64 // hourglass volumes (volo*v)
	// Per-element-corner forces (8 entries per element) of the two force
	// families.
	fxS, fyS, fzS []float64
	fxH, fyH, fzH []float64
	vnewc         []float64

	hg  freeList[*hgScratch]
	eos freeList[*kernels.EOSScratch]

	mu sync.Mutex // guards Fold
}

// NewKit sizes a kit for domains shaped like d whose element partitions
// hold at most part elements.
func NewKit(d *domain.Domain, part int) *Kit {
	ne := d.NumElem()
	eosN := 0 // no region partition is longer than its region
	for _, l := range d.Regions.ElemList {
		eosN = max(eosN, min(len(l), part))
	}
	// 5 element-sized planes + 6 corner-sized (8·ne) planes + vnewc.
	a := kernels.NewArena((5 + 6*8 + 1) * ne)
	k := &Kit{
		d:       d,
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
	k.hg.make = func() *hgScratch { return newHGScratch(part) }
	k.eos.make = func() *kernels.EOSScratch { return kernels.NewEOSScratch(eosN) }
	return k
}

// Begin binds the kit to the domain of the coming step and clears the
// error flag.
func (k *Kit) Begin(d *domain.Domain) {
	k.d = d
	k.flag.Reset()
}

// Err reports the first error a kernel raised since Begin.
func (k *Kit) Err() error { return k.flag.Err() }

// Run executes every step of f over p.
func (k *Kit) Run(f *Family, p *Part) {
	for _, s := range f.Steps {
		s(k, p)
	}
}

// ResetConstraints starts the time-constraint minima over.
func (k *Kit) ResetConstraints() {
	k.d.Dtcourant, k.d.Dthydro = kernels.HugeDt, kernels.HugeDt
}

// Fold takes the minimum of the domain's time constraints and those of
// region parts that ran the constraints step. Safe for concurrent use;
// min is exact, so the folding order cannot change the result.
func (k *Kit) Fold(parts ...Part) {
	k.mu.Lock()
	for i := range parts {
		k.d.Dtcourant = lesser(k.d.Dtcourant, parts[i].Dtc)
		k.d.Dthydro = lesser(k.d.Dthydro, parts[i].Dth)
	}
	k.mu.Unlock()
}

// lesser is the reference's min: b only when strictly smaller, so a NaN
// never replaces a value (unlike the builtin min).
func lesser(a, b float64) float64 {
	if b < a {
		return b
	}
	return a
}

// hgScratch holds the hourglass temporaries of one partition, carved from
// a single arena allocation so the six planes one task walks in lockstep
// are contiguous.
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

// freeList hands out partition scratch. Unlike sync.Pool it never drops
// entries, so a steady-state step allocates none.
type freeList[T any] struct {
	mu   sync.Mutex
	free []T
	make func() T
}

func (l *freeList[T]) get() T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		l.free = l.free[:n-1]
		return v
	}
	return l.make()
}

func (l *freeList[T]) put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}

// stepPlan partitions a domain's three index spaces for one step:
// element and node ranges, and each region's element list.
type stepPlan struct {
	Elems, Nodes []Part
	Regions      [][]Part
}

// build fills the plan for d at the given partition sizes (< 1: one
// partition per space or region), reusing its slices.
func (pl *stepPlan) build(d *domain.Domain, partElem, partNodal int) {
	pl.Elems = appendParts(pl.Elems[:0], d.NumElem(), partElem, nil, 0)
	pl.Nodes = appendParts(pl.Nodes[:0], d.NumNode(), partNodal, nil, 0)
	lists := d.Regions.ElemList
	if cap(pl.Regions) < len(lists) {
		pl.Regions = make([][]Part, len(lists))
	}
	pl.Regions = pl.Regions[:len(lists)]
	for r, l := range lists {
		pl.Regions[r] = appendParts(pl.Regions[r][:0], len(l), partElem, l, d.Regions.Rep(r))
	}
}

// appendParts appends the partitions of [0, n) at grain part.
func appendParts(dst []Part, n, part int, list []int32, rep int) []Part {
	partition(n, part, func(lo, hi int) {
		dst = append(dst, Part{Lo: lo, Hi: hi, List: list, Rep: rep})
	})
	return dst
}
