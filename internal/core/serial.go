package core

import (
	"time"

	"lulesh/internal/domain"
	"lulesh/internal/kernels"
	"lulesh/internal/perf"
)

// buffers holds the mesh-sized temporaries shared by the serial and
// fork-join backends. The reference implementation allocates these per
// call; persisting them across iterations is a pure allocator optimization
// with no numerical effect. All seventeen planes are carved from one
// scratch arena so the working set of consecutive kernels is contiguous.
type buffers struct {
	arena *kernels.Arena

	sigxx, sigyy, sigzz []float64
	determS             []float64 // stress-integration volumes
	determH             []float64 // hourglass volumes (volo*v)

	// Per-element-corner force arrays (8 entries per element) for the two
	// force families.
	fxS, fyS, fzS []float64
	fxH, fyH, fzH []float64

	// Hourglass volume-derivative scratch (8 entries per element).
	dvdx, dvdy, dvdz []float64
	x8n, y8n, z8n    []float64

	vnewc   []float64
	scratch *kernels.EOSScratch
	flag    kernels.Flag
}

func newBuffers(d *domain.Domain) *buffers {
	ne := d.NumElem()
	maxReg := 0
	for _, l := range d.Regions.ElemList {
		if len(l) > maxReg {
			maxReg = len(l)
		}
	}
	// 5 element-sized planes + 12 corner-sized (8·ne) planes + vnewc.
	a := kernels.NewArena((5 + 12*8 + 1) * ne)
	return &buffers{
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
		dvdx:    a.Take(8 * ne),
		dvdy:    a.Take(8 * ne),
		dvdz:    a.Take(8 * ne),
		x8n:     a.Take(8 * ne),
		y8n:     a.Take(8 * ne),
		z8n:     a.Take(8 * ne),
		vnewc:   a.Take(ne),
		scratch: kernels.NewEOSScratch(maxReg),
	}
}

// BackendSerial runs every kernel sequentially. It is the ground truth the
// parallel backends are compared against (both for correctness — bitwise —
// and as the single-thread baseline of Figure 9).
type BackendSerial struct {
	buf  *buffers
	prof *perf.Profiler // nil unless SetProfiler attached one
}

// NewBackendSerial creates a serial backend for domains shaped like d.
func NewBackendSerial(d *domain.Domain) *BackendSerial {
	return &BackendSerial{buf: newBuffers(d)}
}

func (b *BackendSerial) Name() string { return "serial" }

// Threads reports 1.
func (b *BackendSerial) Threads() int { return 1 }

// Utilization is not measured for the serial backend.
func (b *BackendSerial) Utilization() (float64, bool) { return 0, false }

// ResetCounters is a no-op.
func (b *BackendSerial) ResetCounters() {}

// Close is a no-op.
func (b *BackendSerial) Close() {}

// phase runs one kernel family and, with a profiler attached, records it
// as one task of the given phase on worker 0 — one record per kernel
// family per step, grouped as the omp backend groups its regions.
func (b *BackendSerial) phase(id uint32, fn func()) {
	if b.prof == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	b.prof.RecordTask(0, id, t0, time.Since(t0), 0, false)
}

// Step advances one leapfrog iteration sequentially, in the exact kernel
// order of the reference implementation.
func (b *BackendSerial) Step(d *domain.Domain) error {
	buf := b.buf
	buf.flag.Reset()
	ne := d.NumElem()
	nn := d.NumNode()
	delt := d.Deltatime
	p := &d.Par

	// --- LagrangeNodal -------------------------------------------------
	b.phase(PhaseForce, func() {
		kernels.ZeroForces(d, 0, nn)
		kernels.InitStressTerms(d, buf.sigxx, buf.sigyy, buf.sigzz, 0, ne)
		kernels.IntegrateStress(d, buf.sigxx, buf.sigyy, buf.sigzz, buf.determS,
			buf.fxS, buf.fyS, buf.fzS, 0, ne)
		kernels.GatherCornerForces(d, buf.fxS, buf.fyS, buf.fzS, 0, nn, false)
		kernels.CheckDeterm(buf.determS, 0, ne, &buf.flag)
		if buf.flag.Err() != nil {
			return
		}
		kernels.HourglassPrep(d, buf.dvdx, buf.dvdy, buf.dvdz,
			buf.x8n, buf.y8n, buf.z8n, buf.determH, 0, 0, ne, &buf.flag)
		if buf.flag.Err() != nil {
			return
		}
		if p.HGCoef > 0 {
			kernels.FBHourglass(d, buf.dvdx, buf.dvdy, buf.dvdz,
				buf.x8n, buf.y8n, buf.z8n, buf.determH, p.HGCoef, 0, 0, ne,
				buf.fxH, buf.fyH, buf.fzH)
			kernels.GatherCornerForces(d, buf.fxH, buf.fyH, buf.fzH, 0, nn, true)
		}
	})
	if err := buf.flag.Err(); err != nil {
		return err
	}

	b.phase(PhaseNodal, func() {
		kernels.CalcAcceleration(d, 0, nn)
		kernels.ApplyAccelBCList(d, d.Mesh.SymmX, 0, 0, len(d.Mesh.SymmX))
		kernels.ApplyAccelBCList(d, d.Mesh.SymmY, 1, 0, len(d.Mesh.SymmY))
		kernels.ApplyAccelBCList(d, d.Mesh.SymmZ, 2, 0, len(d.Mesh.SymmZ))
		kernels.CalcVelocity(d, delt, p.UCut, 0, nn)
		kernels.CalcPosition(d, delt, 0, nn)
	})

	// --- LagrangeElements ----------------------------------------------
	b.phase(PhaseElements, func() {
		kernels.CalcKinematics(d, delt, 0, ne)
		kernels.CalcStrainRate(d, 0, ne, &buf.flag)
		if buf.flag.Err() != nil {
			return
		}
		kernels.MonoQGradients(d, 0, ne)
		for _, regList := range d.Regions.ElemList {
			kernels.MonoQRegion(d, regList, 0, len(regList))
		}
		kernels.QStopCheck(d, 0, ne, &buf.flag)
		if buf.flag.Err() != nil {
			return
		}
		kernels.CopyVnewc(d, buf.vnewc, 0, ne)
		if p.EOSvMin != 0 {
			kernels.ClampVnewcLow(buf.vnewc, p.EOSvMin, 0, ne)
		}
		if p.EOSvMax != 0 {
			kernels.ClampVnewcHigh(buf.vnewc, p.EOSvMax, 0, ne)
		}
		kernels.CheckVBounds(d, 0, ne, &buf.flag)
	})
	if err := buf.flag.Err(); err != nil {
		return err
	}

	b.phase(PhaseRegions, func() {
		for r, regList := range d.Regions.ElemList {
			rep := d.Regions.Rep(r)
			kernels.EvalEOS(d, buf.vnewc, regList, buf.scratch, rep, 0, len(regList))
		}
	})
	b.phase(PhaseVolumes, func() { kernels.UpdateVolumes(d, p.VCut, 0, ne) })

	// --- CalcTimeConstraintsForElems ------------------------------------
	b.phase(PhaseConstraints, func() {
		d.Dtcourant = kernels.HugeDt
		d.Dthydro = kernels.HugeDt
		for _, regList := range d.Regions.ElemList {
			if dtc := kernels.CourantConstraint(d, regList, 0, len(regList)); dtc < d.Dtcourant {
				d.Dtcourant = dtc
			}
			if dth := kernels.HydroConstraint(d, regList, 0, len(regList)); dth < d.Dthydro {
				d.Dthydro = dth
			}
		}
	})
	return nil
}
