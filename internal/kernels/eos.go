package kernels

import (
	"math"

	"lulesh/internal/domain"
)

// Equation-of-state kernels (ApplyMaterialPropertiesForElems /
// EvalEOSForElems / CalcEnergyForElems / CalcPressureForElems /
// CalcSoundSpeedForElems).
//
// The EOS operates on a compacted view of one region's elements: scratch
// arrays are indexed by position within the region element list, and
// regList maps back to element numbers. Each function below corresponds to
// one worksharing loop of the reference so the fork-join backend can put a
// barrier after each, while the task backend calls them back-to-back inside
// one region-chain task.
//
// Every loop walks equal-length views of the scratch planes and the region
// list (re-sliced to a common length so the compiler drops the bounds
// checks; verified with -d=ssa/check_bce). Only the indirect element-plane
// accesses through regList keep their checks.

// EOSScratch holds the per-region temporary arrays of EvalEOSForElems. The
// paper's HPX version allocates these task-locally for data locality; the
// reference allocates them per region call. Ensure resizes lazily so
// backends can pool scratch across iterations.
//
// All fifteen planes are carved from one arena (a single backing
// allocation), so one partition's EOS temporaries are contiguous in memory
// and growing the scratch costs one allocation, not fifteen.
type EOSScratch struct {
	EOld, Delvc, POld, QOld   []float64
	Compression, CompHalfStep []float64
	QqOld, QlOld, Work        []float64
	PNew, ENew, QNew          []float64
	Bvc, Pbvc, PHalfStep      []float64

	arena Arena
}

// eosPlanes is the number of scratch planes carved per region element.
const eosPlanes = 15

// NewEOSScratch allocates scratch for up to n region elements.
func NewEOSScratch(n int) *EOSScratch {
	s := &EOSScratch{}
	s.Ensure(n)
	return s
}

// Ensure grows the scratch arrays to hold at least n entries.
func (s *EOSScratch) Ensure(n int) {
	if len(s.EOld) >= n {
		return
	}
	s.arena.Grow(eosPlanes * n)
	s.EOld = s.arena.Take(n)
	s.Delvc = s.arena.Take(n)
	s.POld = s.arena.Take(n)
	s.QOld = s.arena.Take(n)
	s.Compression = s.arena.Take(n)
	s.CompHalfStep = s.arena.Take(n)
	s.QqOld = s.arena.Take(n)
	s.QlOld = s.arena.Take(n)
	s.Work = s.arena.Take(n)
	s.PNew = s.arena.Take(n)
	s.ENew = s.arena.Take(n)
	s.QNew = s.arena.Take(n)
	s.Bvc = s.arena.Take(n)
	s.Pbvc = s.arena.Take(n)
	s.PHalfStep = s.arena.Take(n)
}

// Allocs reports backing allocations performed so far (tests assert the
// steady state adds none).
func (s *EOSScratch) Allocs() int { return s.arena.Allocs() }

// EOSGather compresses the element state of regList[lo:hi] into the scratch
// arrays (the gather loop of EvalEOSForElems). base is the scratch offset
// of regList[lo] (0 when scratch covers the whole region; lo's partition
// offset for task-local scratch).
func EOSGather(d *domain.Domain, regList []int32, s *EOSScratch, base, lo, hi int) {
	rl := regList[lo:hi]
	eOld := s.EOld[base : base+len(rl)]
	delvc := s.Delvc[base : base+len(rl)]
	pOld := s.POld[base : base+len(rl)]
	qOld := s.QOld[base : base+len(rl)]
	qqOld := s.QqOld[base : base+len(rl)]
	qlOld := s.QlOld[base : base+len(rl)]
	eP, delvP, pP, qP, qqP, qlP := d.E, d.Delv, d.P, d.Q, d.Qq, d.Ql
	for j, elem := range rl {
		eOld[j] = eP[elem]
		delvc[j] = delvP[elem]
		pOld[j] = pP[elem]
		qOld[j] = qP[elem]
		qqOld[j] = qqP[elem]
		qlOld[j] = qlP[elem]
	}
}

// EOSCompression computes compression and half-step compression for
// regList[lo:hi] (the second loop of EvalEOSForElems).
func EOSCompression(d *domain.Domain, vnewc []float64, regList []int32,
	s *EOSScratch, base, lo, hi int) {
	rl := regList[lo:hi]
	compression := s.Compression[base : base+len(rl)]
	compHalfStep := s.CompHalfStep[base : base+len(rl)]
	delvc := s.Delvc[base : base+len(rl)]
	for j, elem := range rl {
		compression[j] = 1.0/vnewc[elem] - 1.0
		vchalf := vnewc[elem] - delvc[j]*0.5
		compHalfStep[j] = 1.0/vchalf - 1.0
	}
}

// EOSClampVMin applies the eosvmin special case.
func EOSClampVMin(d *domain.Domain, vnewc []float64, regList []int32,
	s *EOSScratch, eosvmin float64, base, lo, hi int) {
	rl := regList[lo:hi]
	compression := s.Compression[base : base+len(rl)]
	compHalfStep := s.CompHalfStep[base : base+len(rl)]
	for j, elem := range rl {
		if vnewc[elem] <= eosvmin {
			compHalfStep[j] = compression[j]
		}
	}
}

// EOSClampVMax applies the eosvmax special case.
func EOSClampVMax(d *domain.Domain, vnewc []float64, regList []int32,
	s *EOSScratch, eosvmax float64, base, lo, hi int) {
	rl := regList[lo:hi]
	pOld := s.POld[base : base+len(rl)]
	compression := s.Compression[base : base+len(rl)]
	compHalfStep := s.CompHalfStep[base : base+len(rl)]
	for j, elem := range rl {
		if vnewc[elem] >= eosvmax {
			pOld[j] = 0
			compression[j] = 0
			compHalfStep[j] = 0
		}
	}
}

// EOSZeroWork clears the work array (LULESH carries a work term that is
// identically zero for the Sedov problem but participates in the energy
// update).
func EOSZeroWork(s *EOSScratch, base, lo, hi int) {
	work := s.Work[base : base+(hi-lo)]
	for j := range work {
		work[j] = 0
	}
}

// CalcPressure computes pressure from energy and compression for scratch
// entries [jlo, jhi) (CalcPressureForElems). vnewc is element-indexed via
// regList; regOff maps scratch index j to regList position j+regOff.
func CalcPressure(pNew, bvc, pbvc, eOld, compression []float64,
	vnewc []float64, regList []int32, regOff int,
	pmin, pCut, eosvmax float64, jlo, jhi int) {

	const c1s = 2.0 / 3.0
	b := bvc[jlo:jhi]
	pb := pbvc[jlo:jhi]
	comp := compression[jlo:jhi]
	for i := range b {
		b[i] = c1s * (comp[i] + 1.0)
		pb[i] = c1s
	}
	pn := pNew[jlo:jhi]
	e := eOld[jlo:jhi]
	rl := regList[jlo+regOff : jhi+regOff][:len(b)]
	for i := range pn {
		pn[i] = b[i] * e[i]
		if math.Abs(pn[i]) < pCut {
			pn[i] = 0
		}
		if vnewc[rl[i]] >= eosvmax {
			pn[i] = 0
		}
		if pn[i] < pmin {
			pn[i] = pmin
		}
	}
}

// EnergyStep1 is the first energy predictor of CalcEnergyForElems.
func EnergyStep1(s *EOSScratch, emin float64, jlo, jhi int) {
	eNew := s.ENew[jlo:jhi]
	eOld := s.EOld[jlo:jhi]
	delvc := s.Delvc[jlo:jhi]
	pOld := s.POld[jlo:jhi]
	qOld := s.QOld[jlo:jhi]
	work := s.Work[jlo:jhi]
	for i := range eNew {
		eNew[i] = eOld[i] - 0.5*delvc[i]*(pOld[i]+qOld[i]) + 0.5*work[i]
		if eNew[i] < emin {
			eNew[i] = emin
		}
	}
}

// EnergyStep2 computes the half-step viscosity and corrects the energy
// (second loop of CalcEnergyForElems).
func EnergyStep2(s *EOSScratch, rho0 float64, jlo, jhi int) {
	eNew := s.ENew[jlo:jhi]
	compHalfStep := s.CompHalfStep[jlo:jhi]
	delvc := s.Delvc[jlo:jhi]
	qNew := s.QNew[jlo:jhi]
	pbvc := s.Pbvc[jlo:jhi]
	bvc := s.Bvc[jlo:jhi]
	pHalfStep := s.PHalfStep[jlo:jhi]
	pOld := s.POld[jlo:jhi]
	qOld := s.QOld[jlo:jhi]
	qlOld := s.QlOld[jlo:jhi]
	qqOld := s.QqOld[jlo:jhi]
	for i := range eNew {
		vhalf := 1.0 / (1.0 + compHalfStep[i])
		if delvc[i] > 0 {
			qNew[i] = 0
		} else {
			ssc := (pbvc[i]*eNew[i] + vhalf*vhalf*bvc[i]*pHalfStep[i]) / rho0
			if ssc <= 0.1111111e-36 {
				ssc = 0.3333333e-18
			} else {
				ssc = math.Sqrt(ssc)
			}
			qNew[i] = ssc*qlOld[i] + qqOld[i]
		}
		eNew[i] = eNew[i] + 0.5*delvc[i]*
			(3.0*(pOld[i]+qOld[i])-4.0*(pHalfStep[i]+qNew[i]))
	}
}

// EnergyStep3 adds the remaining work term and applies cutoffs (third loop
// of CalcEnergyForElems).
func EnergyStep3(s *EOSScratch, eCut, emin float64, jlo, jhi int) {
	eNew := s.ENew[jlo:jhi]
	work := s.Work[jlo:jhi]
	for i := range eNew {
		eNew[i] += 0.5 * work[i]
		if math.Abs(eNew[i]) < eCut {
			eNew[i] = 0
		}
		if eNew[i] < emin {
			eNew[i] = emin
		}
	}
}

// EnergyStep4 applies the full-step corrector (fourth loop of
// CalcEnergyForElems).
func EnergyStep4(s *EOSScratch, vnewc []float64, regList []int32, regOff int,
	rho0, eCut, emin float64, jlo, jhi int) {

	const sixth = 1.0 / 6.0
	eNew := s.ENew[jlo:jhi]
	delvc := s.Delvc[jlo:jhi]
	pbvc := s.Pbvc[jlo:jhi]
	bvc := s.Bvc[jlo:jhi]
	pNew := s.PNew[jlo:jhi]
	pHalfStep := s.PHalfStep[jlo:jhi]
	pOld := s.POld[jlo:jhi]
	qOld := s.QOld[jlo:jhi]
	qNew := s.QNew[jlo:jhi]
	qlOld := s.QlOld[jlo:jhi]
	qqOld := s.QqOld[jlo:jhi]
	rl := regList[jlo+regOff : jhi+regOff][:len(eNew)]
	for i := range eNew {
		var qTilde float64
		if delvc[i] > 0 {
			qTilde = 0
		} else {
			v := vnewc[rl[i]]
			ssc := (pbvc[i]*eNew[i] + v*v*bvc[i]*pNew[i]) / rho0
			if ssc <= 0.1111111e-36 {
				ssc = 0.3333333e-18
			} else {
				ssc = math.Sqrt(ssc)
			}
			qTilde = ssc*qlOld[i] + qqOld[i]
		}
		eNew[i] = eNew[i] - (7.0*(pOld[i]+qOld[i])-
			8.0*(pHalfStep[i]+qNew[i])+(pNew[i]+qTilde))*delvc[i]*sixth
		if math.Abs(eNew[i]) < eCut {
			eNew[i] = 0
		}
		if eNew[i] < emin {
			eNew[i] = emin
		}
	}
}

// EnergyStep5 finalizes the viscosity (fifth loop of CalcEnergyForElems).
func EnergyStep5(s *EOSScratch, vnewc []float64, regList []int32, regOff int,
	rho0, qCut float64, jlo, jhi int) {

	delvc := s.Delvc[jlo:jhi]
	pbvc := s.Pbvc[jlo:jhi]
	bvc := s.Bvc[jlo:jhi]
	eNew := s.ENew[jlo:jhi]
	pNew := s.PNew[jlo:jhi]
	qNew := s.QNew[jlo:jhi]
	qlOld := s.QlOld[jlo:jhi]
	qqOld := s.QqOld[jlo:jhi]
	rl := regList[jlo+regOff : jhi+regOff][:len(delvc)]
	for i := range delvc {
		if delvc[i] <= 0 {
			v := vnewc[rl[i]]
			ssc := (pbvc[i]*eNew[i] + v*v*bvc[i]*pNew[i]) / rho0
			if ssc <= 0.1111111e-36 {
				ssc = 0.3333333e-18
			} else {
				ssc = math.Sqrt(ssc)
			}
			qNew[i] = ssc*qlOld[i] + qqOld[i]
			if math.Abs(qNew[i]) < qCut {
				qNew[i] = 0
			}
		}
	}
}

// CalcEnergy runs the complete energy/pressure update of CalcEnergyForElems
// for scratch entries [jlo, jhi).
func CalcEnergy(d *domain.Domain, vnewc []float64, regList []int32,
	s *EOSScratch, regOff, jlo, jhi int) {

	p := &d.Par
	rho0 := p.RefDens
	EnergyStep1(s, p.Emin, jlo, jhi)
	CalcPressure(s.PHalfStep, s.Bvc, s.Pbvc, s.ENew, s.CompHalfStep,
		vnewc, regList, regOff, p.Pmin, p.PCut, p.EOSvMax, jlo, jhi)
	EnergyStep2(s, rho0, jlo, jhi)
	EnergyStep3(s, p.ECut, p.Emin, jlo, jhi)
	CalcPressure(s.PNew, s.Bvc, s.Pbvc, s.ENew, s.Compression,
		vnewc, regList, regOff, p.Pmin, p.PCut, p.EOSvMax, jlo, jhi)
	EnergyStep4(s, vnewc, regList, regOff, rho0, p.ECut, p.Emin, jlo, jhi)
	CalcPressure(s.PNew, s.Bvc, s.Pbvc, s.ENew, s.Compression,
		vnewc, regList, regOff, p.Pmin, p.PCut, p.EOSvMax, jlo, jhi)
	EnergyStep5(s, vnewc, regList, regOff, rho0, p.QCut, jlo, jhi)
}

// EOSStore writes the new pressure, energy and viscosity back to the
// domain for regList[lo:hi].
func EOSStore(d *domain.Domain, regList []int32, s *EOSScratch, base, lo, hi int) {
	rl := regList[lo:hi]
	pNew := s.PNew[base : base+len(rl)]
	eNew := s.ENew[base : base+len(rl)]
	qNew := s.QNew[base : base+len(rl)]
	pP, eP, qP := d.P, d.E, d.Q
	for j, elem := range rl {
		pP[elem] = pNew[j]
		eP[elem] = eNew[j]
		qP[elem] = qNew[j]
	}
}

// CalcSoundSpeed updates the element sound speeds for regList[lo:hi]
// (CalcSoundSpeedForElems).
func CalcSoundSpeed(d *domain.Domain, vnewc []float64, regList []int32,
	s *EOSScratch, base, lo, hi int) {

	rho0 := d.Par.RefDens
	rl := regList[lo:hi]
	pbvc := s.Pbvc[base : base+len(rl)]
	eNew := s.ENew[base : base+len(rl)]
	bvc := s.Bvc[base : base+len(rl)]
	pNew := s.PNew[base : base+len(rl)]
	ssP := d.SS
	for j, elem := range rl {
		ssTmp := (pbvc[j]*eNew[j] +
			vnewc[elem]*vnewc[elem]*bvc[j]*pNew[j]) / rho0
		if ssTmp <= 0.1111111e-36 {
			ssTmp = 0.3333333e-18
		} else {
			ssTmp = math.Sqrt(ssTmp)
		}
		ssP[elem] = ssTmp
	}
}

// EvalEOS runs the full equation-of-state update for the elements
// regList[lo:hi] of one region, repeating the computation rep times to
// model expensive materials exactly as the reference does (only the last
// repetition's values are stored). Scratch must hold hi-lo entries
// starting at index 0.
func EvalEOS(d *domain.Domain, vnewc []float64, regList []int32,
	s *EOSScratch, rep, lo, hi int) {

	p := &d.Par
	n := hi - lo
	s.Ensure(n)
	for j := 0; j < rep; j++ {
		EOSGather(d, regList, s, 0, lo, hi)
		EOSCompression(d, vnewc, regList, s, 0, lo, hi)
		if p.EOSvMin != 0 {
			EOSClampVMin(d, vnewc, regList, s, p.EOSvMin, 0, lo, hi)
		}
		if p.EOSvMax != 0 {
			EOSClampVMax(d, vnewc, regList, s, p.EOSvMax, 0, lo, hi)
		}
		EOSZeroWork(s, 0, lo, hi)
		CalcEnergy(d, vnewc, regList, s, lo, 0, n)
	}
	EOSStore(d, regList, s, 0, lo, hi)
	CalcSoundSpeed(d, vnewc, regList, s, 0, lo, hi)
}
