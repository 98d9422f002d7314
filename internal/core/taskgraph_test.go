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
	// (verified implicitly by the Figure 10 benchmarks).
}
