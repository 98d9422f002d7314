package core

import (
	"runtime"
	"testing"

	"lulesh/internal/domain"
)

// Tests for the locality layer: the partition→worker affinity map. Like
// the rest of the scheduling machinery it may change only *where* work
// runs — never the answer.

// TestAffinityMapBlockDistribution: homes are a non-decreasing block
// distribution over both index spaces, every home is a valid worker, and
// element/node partitions covering the same mesh fraction share a worker.
func TestAffinityMapBlockDistribution(t *testing.T) {
	const ne, nn, nw = 1000, 1331, 4
	m := newAffinityMap(ne, nn, nw, 64, 128)
	last := 0
	for e := 0; e < ne; e++ {
		h := m.elemWorker(e)
		if h < 0 || h >= nw {
			t.Fatalf("elemWorker(%d) = %d out of range", e, h)
		}
		if h < last {
			t.Fatalf("elemWorker not monotonic at %d: %d after %d", e, h, last)
		}
		last = h
	}
	if m.elemWorker(0) != 0 || m.elemWorker(ne-1) != nw-1 {
		t.Fatalf("block ends: first=%d last=%d", m.elemWorker(0), m.elemWorker(ne-1))
	}
	// The same relative mesh position maps to the same worker in both
	// index spaces (up to partition rounding): check the block centers.
	for w := 0; w < nw; w++ {
		e := (2*w + 1) * ne / (2 * nw)
		n := (2*w + 1) * nn / (2 * nw)
		if m.elemWorker(e) != w || m.nodeWorker(n) != w {
			t.Fatalf("center of slab %d: elem→%d node→%d", w, m.elemWorker(e), m.nodeWorker(n))
		}
	}
	// Region chains inherit their first element's home.
	regList := []int32{999, 0, 500}
	if got := m.regionWorker(regList, 0); got != m.elemWorker(999) {
		t.Fatalf("regionWorker = %d, want %d", got, m.elemWorker(999))
	}
}

// TestAffinityHitRateHighWhenBalanced: on a balanced run most hinted tasks should actually execute on their preferred worker —
// the whole point of the layer. The bound is deliberately loose (steals
// legitimately move work) but catches a placement layer that stopped
// honoring hints entirely (rate ≈ 1/nw). The rate assertion needs real
// parallelism: on a single CPU the running worker legitimately steals
// everything the descheduled worker cannot execute, capping the hit rate
// near 1/nw no matter how frames were placed.
func TestAffinityHitRateHighWhenBalanced(t *testing.T) {
	cfg := domain.DefaultConfig(8)
	d := domain.NewSedov(cfg)
	opt := DefaultOptions(8, 2)
	b := NewBackendTask(d, opt)
	defer b.Close()
	if _, err := Run(d, b, RunConfig{MaxIterations: 20}); err != nil {
		t.Fatal(err)
	}
	c := b.Counters()
	rate, ok := c.AffinityHitRate()
	if !ok {
		t.Fatal("no hinted tasks ran")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Logf("hit rate %.2f on a single CPU (placement unobservable); skipping the bound", rate)
		return
	}
	if rate < 0.55 {
		t.Fatalf("affinity hit rate %.2f: hints are not being honored", rate)
	}
}
