package domain

// Structure-of-arrays slab layout.
//
// A Domain's field slices are backed by slabs: all node-centred planes in
// one contiguous allocation and all element-centred planes in another,
// grouped by the phase that touches them together: coordinates next to
// each other, then velocities, accelerations, forces, and the nodal mass;
// element state grouped as EOS state, volume bookkeeping, geometry,
// principal strains and position gradients. The scheduler's
// partition→worker affinity map hands each worker a contiguous index
// block of every index space, so a worker's working set is a small number
// of contiguous runs at fixed plane stride — resident lines stay resident
// across the kernels of one phase instead of being scattered over
// independently-allocated slices.

// Plane counts of the two slabs. The gradient slab is separate because its
// planes carry ghost slots (NumElemGhost ≥ NumElem) for COMM faces.
const (
	nodePlanes = 13
	elemPlanes = 19
	gradPlanes = 3
)

// carve cuts the next n entries off buf as a capacity-capped view, so an
// append through one plane can never bleed into its neighbour.
func carve(buf []float64, off *int, n int) []float64 {
	v := buf[*off : *off+n : *off+n]
	*off += n
	return v
}

// allocFields populates every field slice of d for nn nodes, ne elements
// and ngh ghost-carrying gradient slots.
func (d *Domain) allocFields(nn, ne, ngh int) {
	d.nodeSlab = make([]float64, nodePlanes*nn)
	d.elemSlab = make([]float64, elemPlanes*ne)
	d.gradSlab = make([]float64, gradPlanes*ngh)

	off := 0
	// Coordinates, velocities, accelerations, forces, mass — in the order
	// the nodal phase walks them.
	d.X = carve(d.nodeSlab, &off, nn)
	d.Y = carve(d.nodeSlab, &off, nn)
	d.Z = carve(d.nodeSlab, &off, nn)
	d.Xd = carve(d.nodeSlab, &off, nn)
	d.Yd = carve(d.nodeSlab, &off, nn)
	d.Zd = carve(d.nodeSlab, &off, nn)
	d.Xdd = carve(d.nodeSlab, &off, nn)
	d.Ydd = carve(d.nodeSlab, &off, nn)
	d.Zdd = carve(d.nodeSlab, &off, nn)
	d.Fx = carve(d.nodeSlab, &off, nn)
	d.Fy = carve(d.nodeSlab, &off, nn)
	d.Fz = carve(d.nodeSlab, &off, nn)
	d.NodalMass = carve(d.nodeSlab, &off, nn)

	off = 0
	// EOS state, volume bookkeeping, geometry, strains, position
	// gradients — grouped by the region ordering the scheduler iterates.
	d.E = carve(d.elemSlab, &off, ne)
	d.P = carve(d.elemSlab, &off, ne)
	d.Q = carve(d.elemSlab, &off, ne)
	d.Ql = carve(d.elemSlab, &off, ne)
	d.Qq = carve(d.elemSlab, &off, ne)
	d.V = carve(d.elemSlab, &off, ne)
	d.Volo = carve(d.elemSlab, &off, ne)
	d.Vnew = carve(d.elemSlab, &off, ne)
	d.Delv = carve(d.elemSlab, &off, ne)
	d.Vdov = carve(d.elemSlab, &off, ne)
	d.Arealg = carve(d.elemSlab, &off, ne)
	d.SS = carve(d.elemSlab, &off, ne)
	d.ElemMass = carve(d.elemSlab, &off, ne)
	d.Dxx = carve(d.elemSlab, &off, ne)
	d.Dyy = carve(d.elemSlab, &off, ne)
	d.Dzz = carve(d.elemSlab, &off, ne)
	d.DelxXi = carve(d.elemSlab, &off, ne)
	d.DelxEta = carve(d.elemSlab, &off, ne)
	d.DelxZeta = carve(d.elemSlab, &off, ne)

	off = 0
	d.DelvXi = carve(d.gradSlab, &off, ngh)
	d.DelvEta = carve(d.gradSlab, &off, ngh)
	d.DelvZeta = carve(d.gradSlab, &off, ngh)
}

// NodeBlock is the [lo,hi) window of the node-centred planes one node
// partition works on: equal-length views that the hot nodal kernels index
// with a shared loop variable, which both expresses the partition's
// working set and lets the compiler eliminate per-element bounds checks.
type NodeBlock struct {
	X, Y, Z       []float64
	Xd, Yd, Zd    []float64
	Xdd, Ydd, Zdd []float64
	Fx, Fy, Fz    []float64
	Mass          []float64
}

// NodeBlock returns the partition window [lo,hi) of every node plane.
func (d *Domain) NodeBlock(lo, hi int) NodeBlock {
	return NodeBlock{
		X: d.X[lo:hi], Y: d.Y[lo:hi], Z: d.Z[lo:hi],
		Xd: d.Xd[lo:hi], Yd: d.Yd[lo:hi], Zd: d.Zd[lo:hi],
		Xdd: d.Xdd[lo:hi], Ydd: d.Ydd[lo:hi], Zdd: d.Zdd[lo:hi],
		Fx: d.Fx[lo:hi], Fy: d.Fy[lo:hi], Fz: d.Fz[lo:hi],
		Mass: d.NodalMass[lo:hi],
	}
}

// ElemBlock is the [lo,hi) window of the element-centred planes one
// element partition works on, the element-space counterpart of NodeBlock.
// The position-gradient planes (Delx··/Delv··) are included because the
// monotonic-Q gradient kernel writes them densely; the Delv·· views cover
// only the owned range even though their backing planes carry ghost slots.
type ElemBlock struct {
	E, P, Q       []float64
	Ql, Qq        []float64
	V, Volo, Vnew []float64
	Delv, Vdov    []float64
	Arealg, SS    []float64
	Mass          []float64
	Dxx, Dyy, Dzz []float64

	DelxXi, DelxEta, DelxZeta []float64
	DelvXi, DelvEta, DelvZeta []float64
}

// ElemBlock returns the partition window [lo,hi) of every element plane.
func (d *Domain) ElemBlock(lo, hi int) ElemBlock {
	return ElemBlock{
		E: d.E[lo:hi], P: d.P[lo:hi], Q: d.Q[lo:hi],
		Ql: d.Ql[lo:hi], Qq: d.Qq[lo:hi],
		V: d.V[lo:hi], Volo: d.Volo[lo:hi], Vnew: d.Vnew[lo:hi],
		Delv: d.Delv[lo:hi], Vdov: d.Vdov[lo:hi],
		Arealg: d.Arealg[lo:hi], SS: d.SS[lo:hi],
		Mass: d.ElemMass[lo:hi],
		Dxx:  d.Dxx[lo:hi], Dyy: d.Dyy[lo:hi], Dzz: d.Dzz[lo:hi],
		DelxXi: d.DelxXi[lo:hi], DelxEta: d.DelxEta[lo:hi], DelxZeta: d.DelxZeta[lo:hi],
		DelvXi: d.DelvXi[lo:hi], DelvEta: d.DelvEta[lo:hi], DelvZeta: d.DelvZeta[lo:hi],
	}
}
