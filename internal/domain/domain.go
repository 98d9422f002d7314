// Package domain defines the central LULESH data structure: the Domain,
// which owns every node- and element-centred state array of the simulation,
// plus the Sedov blast wave initialization that the proxy application
// solves. It corresponds to the Domain class of LULESH 2.0.
package domain

import (
	"fmt"
	"math"

	"lulesh/internal/mesh"
)

// Domain holds the complete mutable state of one LULESH problem instance.
// Slices are indexed by node number or element number; see the Mesh for the
// index conventions.
type Domain struct {
	Mesh    *mesh.Mesh
	Regions *mesh.Regions
	Par     Params

	// Scenario identifies the problem setup that built this domain (name
	// plus full effective options); Box is the geometry it was built for.
	// Checkpoints persist both so restore rebuilds the same topology
	// through the scenario registry.
	Scenario ScenarioSpec
	Box      BoxConfig

	// nodeSlab/elemSlab/gradSlab back the field slices below (see
	// slab.go).
	nodeSlab []float64
	elemSlab []float64
	gradSlab []float64

	// Node-centred state.
	X, Y, Z       []float64 // coordinates
	Xd, Yd, Zd    []float64 // velocities
	Xdd, Ydd, Zdd []float64 // accelerations
	Fx, Fy, Fz    []float64 // forces
	NodalMass     []float64

	// Element-centred state.
	E        []float64 // internal energy
	P        []float64 // pressure
	Q        []float64 // artificial viscosity
	Ql, Qq   []float64 // linear and quadratic terms for Q
	V        []float64 // relative volume
	Volo     []float64 // reference (initial) volume
	Vnew     []float64 // new relative volume, temporary per step
	Delv     []float64 // vnew - v
	Vdov     []float64 // volume derivative over volume
	Arealg   []float64 // element characteristic length
	SS       []float64 // sound speed
	ElemMass []float64

	// Principal strains, temporary per step.
	Dxx, Dyy, Dzz []float64

	// Velocity and position gradients, temporary per step.
	DelvXi, DelvEta, DelvZeta []float64
	DelxXi, DelxEta, DelxZeta []float64

	// Time stepping state.
	Time      float64
	Deltatime float64
	Dtcourant float64
	Dthydro   float64
	Cycle     int
}

// Config selects a problem instance.
type Config struct {
	EdgeElems int // problem size s (elements per edge)
	NumReg    int // number of material regions (reference default 11)
	Balance   int // region size weighting (reference -b, default 1)
	Cost      int // extra EOS cost multiplier (reference -c, default 1)
}

// DefaultConfig mirrors the reference defaults for a given problem size.
func DefaultConfig(edgeElems int) Config {
	return Config{EdgeElems: edgeElems, NumReg: 11, Balance: 1, Cost: 1}
}

// BoxConfig selects a general box-shaped (sub)domain, the building block
// of the multi-domain decomposition (internal/dist). The zero values of
// the extra fields reproduce the classic single-domain Sedov setup.
type BoxConfig struct {
	Nx, Ny, Nz int // elements per dimension
	NumReg     int
	Balance    int
	Cost       int

	// CommZMin / CommZMax mark zeta faces shared with neighbour domains.
	CommZMin, CommZMax bool

	// Spacing is the element edge length (0 = 1.125/Nx, the reference's
	// cube spacing). ZOffset shifts the box along z for stacked domains.
	Spacing float64
	ZOffset float64

	// EInit is the Sedov deposit used for the initial time-step formula
	// on every rank (0 = the reference formula scaled by Nx).
	// DepositEnergy controls whether this domain's element 0 actually
	// receives the energy — true only on the rank owning the global
	// origin.
	EInit         float64
	DepositEnergy bool
}

// NewSedov allocates a Domain and initializes the spherical Sedov blast
// wave problem exactly as LULESH 2.0 does: a cube of edge length 1.125,
// unit relative volumes, all initial energy deposited in the origin
// element, and an initial time step derived from the origin element volume.
func NewSedov(cfg Config) *Domain {
	return NewSedovBox(BoxConfig{
		Nx: cfg.EdgeElems, Ny: cfg.EdgeElems, Nz: cfg.EdgeElems,
		NumReg: cfg.NumReg, Balance: cfg.Balance, Cost: cfg.Cost,
		DepositEnergy: true,
	})
}

// NewSedovBox allocates and initializes a general box (sub)domain.
func NewSedovBox(cfg BoxConfig) *Domain {
	d := newBox(cfg)
	d.initSedovEnergy(cfg)
	d.Scenario = ScenarioSpec{Name: ScenarioSedov}
	return d
}

// newBox allocates a domain and builds everything every scenario shares:
// mesh topology, state arrays, node coordinates, reference volumes and
// masses, unit relative volumes, and a reset clock. Scenarios layer their
// initial energy/velocity fields, boundary conditions and initial time
// step on top.
func newBox(cfg BoxConfig) *Domain {
	if cfg.NumReg < 1 {
		panic(fmt.Sprintf("domain: NumReg must be >= 1, got %d", cfg.NumReg))
	}
	m := mesh.NewBox(cfg.Nx, cfg.Ny, cfg.Nz,
		mesh.WithCommZ(cfg.CommZMin, cfg.CommZMax))
	d := &Domain{
		Mesh:    m,
		Regions: mesh.NewRegions(m, cfg.NumReg, cfg.Balance, cfg.Cost),
		Par:     DefaultParams(),
		Box:     cfg,
	}
	nn, ne := m.NumNode, m.NumElem

	// Field arrays: SoA planes, slab-backed by default (the gradient
	// planes carry ghost slots for COMM faces; see slab.go).
	d.allocFields(nn, ne, m.NumElemGhost)

	// Node coordinates: the classic cube spans [0, 1.125] per dimension;
	// stacked boxes use the same spacing shifted by ZOffset.
	sz := cfg.Spacing
	if sz == 0 {
		sz = 1.125 / float64(cfg.Nx)
	}
	nidx := 0
	for plane := 0; plane <= cfg.Nz; plane++ {
		tz := cfg.ZOffset + sz*float64(plane)
		for row := 0; row <= cfg.Ny; row++ {
			ty := sz * float64(row)
			for col := 0; col <= cfg.Nx; col++ {
				d.X[nidx] = sz * float64(col)
				d.Y[nidx] = ty
				d.Z[nidx] = tz
				nidx++
			}
		}
	}

	// Element reference volumes and masses.
	var xl, yl, zl [8]float64
	for e := 0; e < ne; e++ {
		nl := m.Nodelist[8*e : 8*e+8]
		for c := 0; c < 8; c++ {
			xl[c] = d.X[nl[c]]
			yl[c] = d.Y[nl[c]]
			zl[c] = d.Z[nl[c]]
		}
		vol := ElemVolume(&xl, &yl, &zl)
		d.Volo[e] = vol
		d.ElemMass[e] = vol
		for c := 0; c < 8; c++ {
			d.NodalMass[nl[c]] += vol / 8.0
		}
		d.V[e] = 1.0
	}

	d.Dtcourant = 1.0e20
	d.Dthydro = 1.0e20
	d.Time = 0
	d.Cycle = 0
	return d
}

// initSedovEnergy deposits the Sedov blast energy in the origin element,
// scaled so the problem is self-similar across mesh sizes, and derives the
// reference's initial time increment. Non-origin ranks of a multi-domain
// run use the same einit for the time-step formula but deposit nothing.
func (d *Domain) initSedovEnergy(cfg BoxConfig) {
	einit := cfg.EInit
	if einit == 0 {
		scale := float64(cfg.Nx) / 45.0
		einit = 3.948746e+7 * scale * scale * scale
	}
	if cfg.DepositEnergy {
		d.E[0] = einit
	}
	d.Deltatime = (0.5 * math.Cbrt(d.Volo[0])) / math.Sqrt(2.0*einit)
}

// NumElem is the number of mesh elements.
func (d *Domain) NumElem() int { return d.Mesh.NumElem }

// NumNode is the number of mesh nodes.
func (d *Domain) NumNode() int { return d.Mesh.NumNode }

// ElemVolume computes the volume of a hexahedral element from its corner
// coordinates using the triple-product formula of LULESH (CalcElemVolume).
func ElemVolume(x, y, z *[8]float64) float64 {
	const twelveth = 1.0 / 12.0

	dx61 := x[6] - x[1]
	dy61 := y[6] - y[1]
	dz61 := z[6] - z[1]

	dx70 := x[7] - x[0]
	dy70 := y[7] - y[0]
	dz70 := z[7] - z[0]

	dx63 := x[6] - x[3]
	dy63 := y[6] - y[3]
	dz63 := z[6] - z[3]

	dx20 := x[2] - x[0]
	dy20 := y[2] - y[0]
	dz20 := z[2] - z[0]

	dx50 := x[5] - x[0]
	dy50 := y[5] - y[0]
	dz50 := z[5] - z[0]

	dx64 := x[6] - x[4]
	dy64 := y[6] - y[4]
	dz64 := z[6] - z[4]

	dx31 := x[3] - x[1]
	dy31 := y[3] - y[1]
	dz31 := z[3] - z[1]

	dx72 := x[7] - x[2]
	dy72 := y[7] - y[2]
	dz72 := z[7] - z[2]

	dx43 := x[4] - x[3]
	dy43 := y[4] - y[3]
	dz43 := z[4] - z[3]

	dx57 := x[5] - x[7]
	dy57 := y[5] - y[7]
	dz57 := z[5] - z[7]

	dx14 := x[1] - x[4]
	dy14 := y[1] - y[4]
	dz14 := z[1] - z[4]

	dx25 := x[2] - x[5]
	dy25 := y[2] - y[5]
	dz25 := z[2] - z[5]

	tp := func(x1, y1, z1, x2, y2, z2, x3, y3, z3 float64) float64 {
		return x1*(y2*z3-z2*y3) + x2*(z1*y3-y1*z3) + x3*(y1*z2-z1*y2)
	}

	volume := tp(dx31+dx72, dx63, dx20, dy31+dy72, dy63, dy20, dz31+dz72, dz63, dz20) +
		tp(dx43+dx57, dx64, dx70, dy43+dy57, dy64, dy70, dz43+dz57, dz64, dz70) +
		tp(dx14+dx25, dx61, dx50, dy14+dy25, dy61, dy50, dz14+dz25, dz61, dz50)

	return volume * twelveth
}

// CollectElemNodes gathers the coordinates of element e's corner nodes.
func (d *Domain) CollectElemNodes(e int, x, y, z *[8]float64) {
	nl := d.Mesh.Nodelist[8*e : 8*e+8]
	for c := 0; c < 8; c++ {
		x[c] = d.X[nl[c]]
		y[c] = d.Y[nl[c]]
		z[c] = d.Z[nl[c]]
	}
}

// TotalEnergy sums element internal energies (diagnostic; the Sedov blast
// problem reports the origin element energy as its figure of merit).
func (d *Domain) TotalEnergy() float64 {
	t := 0.0
	for _, e := range d.E {
		t += e
	}
	return t
}
