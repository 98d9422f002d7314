package mesh

import "fmt"

// Region cost models: how the EOS repetition factor Rep is derived from a
// region's index. CostModelReference is LULESH 2.0's distribution;
// CostModelExtreme (the multimat scenario) pushes far more of the regions
// into the expensive tiers and adds a 10x-steeper top tier, producing the
// many-small-expensive-regions imbalance regime that stresses the task
// scheduler.
const (
	CostModelReference = "" // zero value: the LULESH 2.0 distribution
	CostModelExtreme   = "extreme"
)

// Regions is the material-region decomposition of the mesh elements.
// LULESH models heterogeneous materials by splitting elements into regions
// of differing size and by repeating the equation-of-state evaluation for
// some regions (the rep factor), creating deliberate load imbalance.
type Regions struct {
	NumReg  int
	Cost    int    // the reference's -c flag (default 1)
	Balance int    // the reference's -b flag (default 1)
	Model   string // cost model (CostModelReference or CostModelExtreme)

	// RegNumList[e] is the 1-based region number of element e.
	RegNumList []int32
	// ElemList[r] lists the elements of region r (0-based region index),
	// in ascending element order as produced by the reference.
	ElemList [][]int32
}

// lcg is a portable substitute for the C rand()/srand(0) stream the
// reference uses to build regions. It follows the classic MS LCG
// (state*214013+2531011, output bits 16..30 → [0,32767]). Only the shape
// of the resulting size distribution matters for the experiments
// (load imbalance between regions), not the exact glibc stream, which is
// neither portable nor specified.
type lcg struct{ state uint32 }

func (r *lcg) next() int {
	r.state = r.state*214013 + 2531011
	return int(r.state>>16) & 0x7fff
}

// NewRegions reproduces LULESH 2.0's CreateRegionIndexSets for a single
// domain (myRank = 0): elements are assigned in random runs, where the
// region of each run is drawn from a distribution weighted by
// (regionIndex+1)^balance and run lengths follow the reference's binned
// distribution.
func NewRegions(m *Mesh, numReg, balance, cost int) *Regions {
	if numReg < 1 {
		panic(fmt.Sprintf("mesh: numReg must be >= 1, got %d", numReg))
	}
	r := &Regions{
		NumReg:     numReg,
		Cost:       cost,
		Balance:    balance,
		RegNumList: make([]int32, m.NumElem),
	}
	rng := &lcg{state: 0} // srand(0)

	if numReg == 1 {
		for i := range r.RegNumList {
			r.RegNumList[i] = 1
		}
	} else {
		// Relative weights of the regions (regBinEnd is the CDF).
		regBinEnd := make([]int, numReg)
		costDenominator := 0
		for i := 0; i < numReg; i++ {
			costDenominator += ipow(i+1, balance)
			regBinEnd[i] = costDenominator
		}
		pickRegion := func() int32 {
			v := rng.next() % costDenominator
			i := 0
			for v >= regBinEnd[i] {
				i++
			}
			return int32(i%numReg) + 1
		}
		lastReg := int32(-1)
		nextIndex := 0
		for nextIndex < m.NumElem {
			regionNum := pickRegion()
			for regionNum == lastReg {
				regionNum = pickRegion()
			}
			// Run length from the reference's binned distribution.
			binSize := rng.next() % 1000
			var elements int
			switch {
			case binSize < 773:
				elements = rng.next()%15 + 1
			case binSize < 937:
				elements = rng.next()%16 + 16
			case binSize < 970:
				elements = rng.next()%32 + 32
			case binSize < 974:
				elements = rng.next()%64 + 64
			case binSize < 978:
				elements = rng.next()%128 + 128
			case binSize < 981:
				elements = rng.next()%256 + 256
			default:
				elements = rng.next()%1537 + 512
			}
			runto := nextIndex + elements
			for nextIndex < runto && nextIndex < m.NumElem {
				r.RegNumList[nextIndex] = regionNum
				nextIndex++
			}
			lastReg = regionNum
		}
	}

	// Compact per-region element lists (ascending element order).
	sizes := make([]int, numReg)
	for _, rn := range r.RegNumList {
		sizes[rn-1]++
	}
	r.ElemList = make([][]int32, numReg)
	for i, sz := range sizes {
		r.ElemList[i] = make([]int32, 0, sz)
	}
	for e, rn := range r.RegNumList {
		r.ElemList[rn-1] = append(r.ElemList[rn-1], int32(e))
	}
	return r
}

// Rep returns the EOS repetition factor of region r (0-based).
//
// Under CostModelReference it reproduces the reference's load-imbalance
// model: the cheapest half of the regions evaluate the EOS once, most of
// the rest (1+cost) times, and the last ~5 % of regions 10*(1+cost) times.
// With the default cost of 1 that is 1x / 2x / 20x, the "doubles the
// computation for 45 % of the regions and increases it even by twenty
// times for 5 %" of the paper.
//
// Under CostModelExtreme only the cheapest quarter stays at 1x, the next
// quarter costs (1+cost), the next 10*(1+cost), and the top eighth
// 100*(1+cost) — a two-decade spread designed to overwhelm static
// partitioning.
func (r *Regions) Rep(reg int) int {
	if r.Model == CostModelExtreme {
		switch {
		case reg < r.NumReg/4:
			return 1
		case reg < r.NumReg/2:
			return 1 + r.Cost
		case reg < r.NumReg-(r.NumReg+7)/8:
			return 10 * (1 + r.Cost)
		default:
			return 100 * (1 + r.Cost)
		}
	}
	switch {
	case reg < r.NumReg/2:
		return 1
	case reg < r.NumReg-(r.NumReg+15)/20:
		return 1 + r.Cost
	default:
		return 10 * (1 + r.Cost)
	}
}

func ipow(base, exp int) int {
	p := 1
	for i := 0; i < exp; i++ {
		p *= base
	}
	return p
}
