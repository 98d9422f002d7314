package core

import (
	"testing"

	"lulesh/internal/domain"
)

// TestTaskGraphShape pins the number of tasks the paper-configured backend
// creates per iteration: with fusion on, the graph is
//
//	stress family      : one task per element partition
//	hourglass family   : one task per element partition
//	nodal chains       : one task per node partition
//	element chains     : one task per element partition
//	region chains      : one task per region partition
//	volume commits     : one task per element partition
//	constraint fold    : one task
//
// A change to this count means the orchestration changed shape — the
// paper's "number of tasks remains similar when regions grow" property
// (Figure 10's discussion) depends on it.
func TestTaskGraphShape(t *testing.T) {
	d := domain.NewSedov(domain.DefaultConfig(6))
	opt := DefaultOptions(6, 2)
	b := NewBackendTask(d, opt)
	defer b.Close()

	nPartE := numPartitions(d.NumElem(), opt.PartElem)
	nPartN := numPartitions(d.NumNode(), opt.PartNodal)
	nRegParts := 0
	for _, l := range d.Regions.ElemList {
		nRegParts += numPartitions(len(l), opt.PartElem)
	}
	want := int64(4*nPartE + nPartN + nRegParts + 1)

	// Warm one step (first iteration pays no special cost, but keep the
	// measurement isolated anyway), then count a clean iteration.
	TimeIncrement(d)
	if err := b.Step(d); err != nil {
		t.Fatal(err)
	}
	b.ResetCounters()
	TimeIncrement(d)
	if err := b.Step(d); err != nil {
		t.Fatal(err)
	}
	got := b.s.CountersSnapshot().Tasks
	if got != want {
		t.Fatalf("task graph has %d tasks per iteration, want %d "+
			"(4*%d elem parts + %d node parts + %d region parts + 1 fold)",
			got, want, nPartE, nPartN, nRegParts)
	}
}

// TestTaskGraphShapeStableAcrossRegions: the paper observes that the task
// count stays (nearly) constant as the region count grows — only the
// region-partition term can change, and with partition size >> region size
// it grows by at most one task per extra region.
func TestTaskGraphShapeStableAcrossRegions(t *testing.T) {
	count := func(nr int) int64 {
		d := domain.NewSedov(domain.Config{EdgeElems: 6, NumReg: nr, Balance: 1, Cost: 1})
		opt := DefaultOptions(6, 2)
		b := NewBackendTask(d, opt)
		defer b.Close()
		TimeIncrement(d)
		if err := b.Step(d); err != nil {
			t.Fatal(err)
		}
		b.ResetCounters()
		TimeIncrement(d)
		if err := b.Step(d); err != nil {
			t.Fatal(err)
		}
		return b.s.CountersSnapshot().Tasks
	}
	base := count(11)
	grown := count(21)
	if grown-base > 10 {
		t.Fatalf("task count grew from %d to %d across 11→21 regions; "+
			"the graph should stay nearly constant", base, grown)
	}
	// The fork-join model, by contrast, adds ~14 loops per extra region
	// (TestForkJoinShape).
}

// stepCount warms one step, resets the counters, runs one more step and
// returns what count reports for it.
func stepCount(t *testing.T, d *domain.Domain, b Backend, count func() int64) int64 {
	t.Helper()
	defer b.Close()
	TimeIncrement(d)
	if err := b.Step(d); err != nil {
		t.Fatal(err)
	}
	b.ResetCounters()
	TimeIncrement(d)
	if err := b.Step(d); err != nil {
		t.Fatal(err)
	}
	return count()
}

// TestTaskGraphShapeToggles pins the per-step task count of every
// Chain×Fuse×ParallelForces×ParallelRegions combination (sedov size 6,
// 2 workers: 4 element, 6 node and 9 region partitions). Fuse alone sets
// the count — one task per family per partition, or one per step
// unfused; the other three toggles only move edges.
func TestTaskGraphShapeToggles(t *testing.T) {
	for mask := 0; mask < 16; mask++ {
		opt := DefaultOptions(6, 2)
		opt.Chain = mask&1 != 0
		opt.Fuse = mask&2 != 0
		opt.ParallelForces = mask&4 != 0
		opt.ParallelRegions = mask&8 != 0
		want := int64(84)
		if opt.Fuse {
			want = 32
		}
		d := domain.NewSedov(domain.DefaultConfig(6))
		b := NewBackendTask(d, opt)
		if got := stepCount(t, d, b, func() int64 { return b.Counters().Tasks }); got != want {
			t.Errorf("chain=%v fuse=%v pforces=%v pregions=%v: %d tasks per step, want %d",
				opt.Chain, opt.Fuse, opt.ParallelForces, opt.ParallelRegions, got, want)
		}
	}
}

// TestForkJoinShape pins the fork-join baselines' per-step dispatch
// counts on 2 threads: parallel regions for omp, executed tasks for
// naive. Unlike the task graph, both grow with the region count — the
// omp count by the per-region loops of monoQ, EOS and the constraints,
// the naive count with how the chunker splits each region's loops.
func TestForkJoinShape(t *testing.T) {
	for _, tc := range []struct {
		regions           int
		ompRegions, naive int64
	}{
		{11, 387, 4919},
		{21, 572, 2112},
	} {
		cfg := domain.Config{EdgeElems: 6, NumReg: tc.regions, Balance: 1, Cost: 1}
		d := domain.NewSedov(cfg)
		omp := NewBackendOMP(d, 2)
		if got := stepCount(t, d, omp, func() int64 { return omp.pool.CountersSnapshot().Regions }); got != tc.ompRegions {
			t.Errorf("omp, %d regions: %d parallel regions per step, want %d", tc.regions, got, tc.ompRegions)
		}
		d = domain.NewSedov(cfg)
		naive := NewBackendNaive(d, 2)
		if got := stepCount(t, d, naive, func() int64 { return naive.s.CountersSnapshot().Tasks }); got != tc.naive {
			t.Errorf("naive, %d regions: %d tasks per step, want %d", tc.regions, got, tc.naive)
		}
	}
}
