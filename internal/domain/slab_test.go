package domain

import "testing"

// TestSlabViewsCapacityCapped checks that every plane carved from a slab
// is capacity-capped: growing one plane must reallocate, never spill into
// the neighbouring plane's storage.
func TestSlabViewsCapacityCapped(t *testing.T) {
	d := NewSedov(DefaultConfig(4))
	nodePlanes := [][]float64{d.X, d.Y, d.Z, d.Xd, d.Yd, d.Zd,
		d.Xdd, d.Ydd, d.Zdd, d.Fx, d.Fy, d.Fz, d.NodalMass}
	elemPlanes := [][]float64{d.E, d.P, d.Q, d.Ql, d.Qq, d.V, d.Volo,
		d.Vnew, d.Delv, d.Vdov, d.Arealg, d.SS, d.ElemMass,
		d.Dxx, d.Dyy, d.Dzz, d.DelxXi, d.DelxEta, d.DelxZeta,
		d.DelvXi, d.DelvEta, d.DelvZeta}
	for i, p := range append(nodePlanes, elemPlanes...) {
		if cap(p) != len(p) {
			t.Fatalf("plane %d: cap %d > len %d (append could bleed into the next plane)",
				i, cap(p), len(p))
		}
	}
}

// TestBlockViewsAliasPlanes checks NodeBlock and ElemBlock hand out
// windows of the planes themselves, not copies: a write through the block
// must land in the domain's field.
func TestBlockViewsAliasPlanes(t *testing.T) {
	d := NewSedov(DefaultConfig(4))
	lo, hi := 3, 17

	nb := d.NodeBlock(lo, hi)
	if len(nb.X) != hi-lo || len(nb.Mass) != hi-lo {
		t.Fatalf("node block window: %d, want %d", len(nb.X), hi-lo)
	}
	nb.Fx[0] = 42.5
	if d.Fx[lo] != 42.5 {
		t.Fatal("NodeBlock.Fx is not a view of d.Fx")
	}
	nb.Xdd[2] = -1.5
	if d.Xdd[lo+2] != -1.5 {
		t.Fatal("NodeBlock.Xdd is not a view of d.Xdd")
	}

	eb := d.ElemBlock(lo, hi)
	if len(eb.E) != hi-lo || len(eb.DelvZeta) != hi-lo {
		t.Fatalf("elem block window: %d, want %d", len(eb.E), hi-lo)
	}
	eb.P[1] = 7.25
	if d.P[lo+1] != 7.25 {
		t.Fatal("ElemBlock.P is not a view of d.P")
	}
	eb.DelvXi[0] = 3.5
	if d.DelvXi[lo] != 3.5 {
		t.Fatal("ElemBlock.DelvXi is not a view of d.DelvXi")
	}
}
