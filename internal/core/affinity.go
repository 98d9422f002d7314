package core

// Locality-aware task placement for the task backend. The AMT runtime
// load-balances by stealing, but stealing is locality-blind: without a
// placement policy a mesh partition can execute on a different worker at
// every stage of every timestep, so the ~45 kernel launches per iteration
// keep re-loading the partition's state into cold caches. affinityMap is
// the missing layer: a persistent partition→worker table (block
// distribution over the mesh) consulted by every launch site, so the same
// worker re-touches the same mesh slice across stages and timesteps.
// Because element and node indices advance through the mesh in the same
// k-major order, the block maps for the two index spaces assign the same
// spatial slab of the mesh to the same worker, and a partition's nodal
// tasks land next to its element tasks.
//
// The map is a hint, never a constraint: placement honors it, stealing
// ignores it, so load balance (including the region imbalance of
// Figure 10) is preserved and results stay bitwise identical.
type affinityMap struct {
	partElem  int
	partNodal int
	elemHome  []int // element partition index → home worker
	nodeHome  []int // nodal partition index → home worker
}

// newAffinityMap builds the placement table for a mesh with numElem
// elements and numNode nodes on nw workers at the given partition grains.
// A partition's home is derived from its first index's position in the
// mesh.
func newAffinityMap(numElem, numNode, nw, partElem, partNodal int) *affinityMap {
	return &affinityMap{
		partElem:  partElem,
		partNodal: partNodal,
		elemHome:  buildHomes(numElem, partElem, nw),
		nodeHome:  buildHomes(numNode, partNodal, nw),
	}
}

func buildHomes(n, part, nw int) []int {
	homes := make([]int, numPartitions(n, part))
	for p := range homes {
		homes[p] = blockHome(p*part, n, nw)
	}
	return homes
}

// blockHome maps index lo of the space [0, n) to its home worker under a
// block distribution: worker w owns the contiguous slab
// [w*n/nw, (w+1)*n/nw).
func blockHome(lo, n, nw int) int {
	if n <= 0 || nw <= 1 || lo <= 0 {
		return 0
	}
	h := lo * nw / n
	if h >= nw {
		h = nw - 1
	}
	return h
}

// elemWorker returns the home worker of the element partition containing
// element e.
func (m *affinityMap) elemWorker(e int) int {
	return m.elemHome[e/m.partElem]
}

// nodeWorker returns the home worker of the nodal partition containing
// node n.
func (m *affinityMap) nodeWorker(n int) int {
	return m.nodeHome[n/m.partNodal]
}

// regionWorker returns the home worker of a region-chain partition
// covering regList[lo:hi]: the chain inherits the affinity of its element
// range, i.e. of the element partition holding its first element, so the
// EOS re-touches v/p/e/q state still warm from the kinematics stage.
func (m *affinityMap) regionWorker(regList []int32, lo int) int {
	return m.elemWorker(int(regList[lo]))
}
