package dist

import (
	"math"
	"testing"

	"lulesh/internal/domain"
	"lulesh/internal/perf"
)

// sameDomains asserts two rank sets hold bitwise-identical state in
// every array the physics advances — far stricter than comparing the
// two energy scalars.
func sameDomains(t *testing.T, label string, a, b []*domain.Domain) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d ranks", label, len(a), len(b))
	}
	for r := range a {
		da, db := a[r], b[r]
		arrays := []struct {
			name string
			x, y []float64
		}{
			{"E", da.E, db.E}, {"P", da.P, db.P}, {"Q", da.Q, db.Q},
			{"V", da.V, db.V},
			{"X", da.X, db.X}, {"Y", da.Y, db.Y}, {"Z", da.Z, db.Z},
			{"Xd", da.Xd, db.Xd}, {"Yd", da.Yd, db.Yd}, {"Zd", da.Zd, db.Zd},
		}
		for _, arr := range arrays {
			if len(arr.x) != len(arr.y) {
				t.Fatalf("%s: rank %d %s length %d vs %d",
					label, r, arr.name, len(arr.x), len(arr.y))
			}
			for i := range arr.x {
				if math.Float64bits(arr.x[i]) != math.Float64bits(arr.y[i]) {
					t.Fatalf("%s: rank %d %s[%d]: %v vs %v",
						label, r, arr.name, i, arr.x[i], arr.y[i])
				}
			}
		}
	}
}

// TestOverlapToggleMatrixBitwise: every combination of the two overlap
// toggles — boundary-first schedule, tree allreduce — must reproduce the synchronous baseline bit for bit, in every state
// array of every rank.
func TestOverlapToggleMatrixBitwise(t *testing.T) {
	const s = 4
	base := Config{
		Nx: s, Ny: s, NzPerRank: s, Ranks: 3,
		NumReg: 5, Balance: 1, Cost: 1, MaxIterations: 15,
	}
	refRes, refDoms, err := RunDomains(base)
	if err != nil {
		t.Fatal(err)
	}
	for mask := 1; mask < 4; mask++ {
		cfg := base
		cfg.Async = mask&1 != 0
		cfg.TreeReduce = mask&2 != 0
		label := cfg.Schedule()
		res, doms, err := RunDomains(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.OriginEnergy != refRes.OriginEnergy || res.TotalEnergy != refRes.TotalEnergy {
			t.Fatalf("%s: energies (%v, %v) vs sync (%v, %v)", label,
				res.OriginEnergy, res.TotalEnergy, refRes.OriginEnergy, refRes.TotalEnergy)
		}
		if res.FinalTime != refRes.FinalTime || res.Iterations != refRes.Iterations {
			t.Fatalf("%s: time stepping diverged", label)
		}
		sameDomains(t, label, refDoms, doms)
	}
}

// TestOverlapThinSlabDegenerate: NzPerRank=1 collapses the boundary
// classification — both communicated faces live on the same plane, so
// the plan must merge them into one span instead of computing the plane
// twice. The overlapped schedule must still match the synchronous one.
func TestOverlapThinSlabDegenerate(t *testing.T) {
	base := Config{
		Nx: 4, Ny: 4, NzPerRank: 1, Ranks: 4,
		NumReg: 1, Balance: 1, Cost: 1, MaxIterations: 10,
	}
	_, refDoms, err := RunDomains(base)
	if err != nil {
		t.Fatal(err)
	}
	over := base
	over.Async = true
	over.TreeReduce = true
	_, doms, err := RunDomains(over)
	if err != nil {
		t.Fatal(err)
	}
	sameDomains(t, "thin-slab overlap", refDoms, doms)
}

// TestTreeReduceMessageCounts pins down the point of the binomial tree:
// rank 0 handles ⌈log2 n⌉ reduction messages per step instead of n−1.
// The in-process fabric makes the counts exact: per cycle rank 0 (one
// neighbour) sends one force frame and one gradient frame plus its
// reduction traffic, and the only other message is the init-time
// nodal-mass send.
func TestTreeReduceMessageCounts(t *testing.T) {
	const ranks = 8
	base := Config{
		Nx: 2, Ny: 2, NzPerRank: 2, Ranks: ranks,
		NumReg: 1, Balance: 1, Cost: 1, MaxIterations: 5,
	}
	sent := func(cfg Config) (perCycle int64, iters int) {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Ranks[0].Comm.Sent, res.Iterations
	}

	linSent, linIters := sent(base)
	tree := base
	tree.TreeReduce = true
	treeSent, treeIters := sent(tree)

	if linIters != treeIters {
		t.Fatalf("iteration counts diverged: %d/%d", linIters, treeIters)
	}
	n := int64(linIters)
	// Linear: 2 ghost frames + 7 broadcast fan-out sends per cycle, plus
	// the nodal-mass send. Tree: the fan-out drops to log2(8) = 3.
	if want := 1 + n*(2+ranks-1); linSent != want {
		t.Errorf("linear rank-0 sends: %d, want %d", linSent, want)
	}
	if want := 1 + n*(2+3); treeSent != want {
		t.Errorf("tree rank-0 sends: %d, want %d", treeSent, want)
	}
}

// TestAttributeStep: the wall attribution must hand back buckets that
// sum exactly to wall, trimming any measured-bucket overshoot from the
// least-trusted bucket first (steal-idle, then allreduce-wait, then
// ghost-wait) instead of letting the waits exceed the step window.
func TestAttributeStep(t *testing.T) {
	cases := []struct {
		name                       string
		wall, ghost, red, idle     int64
		wantC, wantG, wantR, wantI int64
	}{
		{"plain residual", 100, 20, 10, 5, 65, 20, 10, 5},
		{"exact fit", 100, 60, 30, 10, 0, 60, 30, 10},
		{"trim idle first", 100, 60, 30, 20, 0, 60, 30, 10},
		{"trim idle then red", 100, 60, 50, 20, 0, 60, 40, 0},
		{"trim into ghost", 100, 150, 30, 20, 0, 100, 0, 0},
		{"zero exchange", 100, 0, 0, 0, 100, 0, 0, 0},
		{"negative deltas clamped", 100, -5, -7, -1, 100, 0, 0, 0},
	}
	for _, c := range cases {
		gotC, gotG, gotR, gotI := attributeStep(c.wall, c.ghost, c.red, c.idle)
		if gotC != c.wantC || gotG != c.wantG || gotR != c.wantR || gotI != c.wantI {
			t.Errorf("%s: attributeStep(%d,%d,%d,%d) = (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				c.name, c.wall, c.ghost, c.red, c.idle,
				gotC, gotG, gotR, gotI, c.wantC, c.wantG, c.wantR, c.wantI)
		}
		if sum := gotC + gotG + gotR + gotI; sum != c.wall {
			t.Errorf("%s: buckets sum to %d, want wall %d", c.name, sum, c.wall)
		}
	}
}

// TestZeroExchangePhaseRows is the regression test for the exit-table
// mislabeling: a single-rank run never exchanges and never reduces over
// the fabric, yet the profiler mirror used to record zero-duration
// ghost-wait and allreduce-wait tasks every cycle, surfacing spurious
// wait rows (and, with the old clamp path, inflated wait shares) in the
// per-phase exit table. Phases with nothing to report must stay absent.
func TestZeroExchangePhaseRows(t *testing.T) {
	prof := perf.NewProfiler(1, 0)
	perf.RegisterDistPhases(prof)
	res, err := Run(Config{
		Nx: 4, Ny: 4, NzPerRank: 4, Ranks: 1,
		NumReg: 1, Balance: 1, Cost: 1, MaxIterations: 8,
		Trace: true, Profiler: prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("run did not advance")
	}
	rows := map[string]bool{}
	for _, ph := range prof.Snapshot().Phases {
		rows[ph.Name] = true
	}
	if !rows["compute"] {
		t.Error("compute row missing from the phase table")
	}
	for _, name := range []string{"ghost-wait", "allreduce-wait"} {
		if rows[name] {
			t.Errorf("zero-exchange run grew a spurious %q phase row", name)
		}
	}
	// And the buckets attribute the whole wall to compute.
	for _, b := range res.Fleet.Traces[0].Steps {
		if b.GhostNs != 0 || b.ReduceNs != 0 {
			t.Fatalf("step %d: nonzero wait buckets (%d, %d) without exchanges",
				b.Step, b.GhostNs, b.ReduceNs)
		}
		if b.ComputeNs+b.IdleNs != b.WallNs {
			t.Fatalf("step %d: buckets do not sum to wall", b.Step)
		}
	}
}
