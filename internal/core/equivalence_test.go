package core

import (
	"fmt"
	"testing"

	"lulesh/internal/domain"
)

// runSteps advances cfg's Sedov problem n cycles under the given backend
// factory and returns the final domain.
func runSteps(t *testing.T, cfg domain.Config, n int, mk func(*domain.Domain) Backend) *domain.Domain {
	t.Helper()
	d := domain.NewSedov(cfg)
	b := mk(d)
	defer b.Close()
	if _, err := Run(d, b, RunConfig{MaxIterations: n}); err != nil {
		t.Fatalf("%s: %v", b.Name(), err)
	}
	return d
}

// compareDomains checks bitwise equality of every physically meaningful
// state array plus the time-stepping state.
func compareDomains(t *testing.T, name string, a, b *domain.Domain) {
	t.Helper()
	arrays := []struct {
		label string
		x, y  []float64
	}{
		{"X", a.X, b.X}, {"Y", a.Y, b.Y}, {"Z", a.Z, b.Z},
		{"Xd", a.Xd, b.Xd}, {"Yd", a.Yd, b.Yd}, {"Zd", a.Zd, b.Zd},
		{"Xdd", a.Xdd, b.Xdd}, {"Ydd", a.Ydd, b.Ydd}, {"Zdd", a.Zdd, b.Zdd},
		{"Fx", a.Fx, b.Fx}, {"Fy", a.Fy, b.Fy}, {"Fz", a.Fz, b.Fz},
		{"E", a.E, b.E}, {"P", a.P, b.P}, {"Q", a.Q, b.Q},
		{"Ql", a.Ql, b.Ql}, {"Qq", a.Qq, b.Qq},
		{"V", a.V, b.V}, {"Vdov", a.Vdov, b.Vdov},
		{"Arealg", a.Arealg, b.Arealg}, {"SS", a.SS, b.SS},
		{"Delv", a.Delv, b.Delv},
	}
	for _, arr := range arrays {
		for i := range arr.x {
			if arr.x[i] != arr.y[i] {
				t.Fatalf("%s: %s[%d] differs: %v vs %v",
					name, arr.label, i, arr.x[i], arr.y[i])
			}
		}
	}
	if a.Time != b.Time || a.Deltatime != b.Deltatime ||
		a.Dtcourant != b.Dtcourant || a.Dthydro != b.Dthydro || a.Cycle != b.Cycle {
		t.Fatalf("%s: time-stepping state differs: t=%v/%v dt=%v/%v dtc=%v/%v",
			name, a.Time, b.Time, a.Deltatime, b.Deltatime, a.Dtcourant, b.Dtcourant)
	}
}

// TestBackendsBitwiseEquivalent is the central correctness property of the
// reproduction: every backend, at every thread count, executes the same
// floating-point operations in the same order per datum, so the entire
// simulation state must match the serial run bit for bit.
func TestBackendsBitwiseEquivalent(t *testing.T) {
	cfg := domain.DefaultConfig(6)
	const steps = 15
	ref := runSteps(t, cfg, steps, func(d *domain.Domain) Backend {
		return NewBackendSerial(d)
	})

	for _, threads := range []int{1, 2, 3, 4} {
		threads := threads
		t.Run(fmt.Sprintf("omp-%dt", threads), func(t *testing.T) {
			got := runSteps(t, cfg, steps, func(d *domain.Domain) Backend {
				return NewBackendOMP(d, threads)
			})
			compareDomains(t, "omp", ref, got)
		})
		t.Run(fmt.Sprintf("naive-%dt", threads), func(t *testing.T) {
			got := runSteps(t, cfg, steps, func(d *domain.Domain) Backend {
				return NewBackendNaive(d, threads)
			})
			compareDomains(t, "naive", ref, got)
		})
		t.Run(fmt.Sprintf("task-%dt", threads), func(t *testing.T) {
			got := runSteps(t, cfg, steps, func(d *domain.Domain) Backend {
				return NewBackendTask(d, DefaultOptions(6, threads))
			})
			compareDomains(t, "task", ref, got)
		})
	}
}

// TestTaskBackendPartitionInvariance: the result must not depend on the
// partition sizes (Table I tunes performance, never values).
func TestTaskBackendPartitionInvariance(t *testing.T) {
	cfg := domain.DefaultConfig(5)
	const steps = 10
	ref := runSteps(t, cfg, steps, func(d *domain.Domain) Backend {
		return NewBackendSerial(d)
	})
	for _, part := range []struct{ nodal, elem int }{
		{1, 1}, {7, 13}, {64, 64}, {1000000, 1000000},
	} {
		part := part
		t.Run(fmt.Sprintf("part-%d-%d", part.nodal, part.elem), func(t *testing.T) {
			got := runSteps(t, cfg, steps, func(d *domain.Domain) Backend {
				opt := DefaultOptions(5, 2)
				opt.PartNodal = part.nodal
				opt.PartElem = part.elem
				return NewBackendTask(d, opt)
			})
			compareDomains(t, "task-part", ref, got)
		})
	}
}

// TestTaskBackendAblationInvariance: every combination of the paper's four
// techniques and steal-half — all 2^5 on/off configurations of the task
// backend — computes the identical answer: the toggles trade performance,
// not correctness. Subtest mask-bbbb prints the four paper bits as a
// binary number (ParallelRegions first, Chain last) with steal-half on,
// the default; the -no-steal-half suffix marks the other sixteen.
func TestTaskBackendAblationInvariance(t *testing.T) {
	cfg := domain.DefaultConfig(5)
	const steps = 8
	ref := runSteps(t, cfg, steps, func(d *domain.Domain) Backend {
		return NewBackendSerial(d)
	})
	for mask := 0; mask < 32; mask++ {
		name := fmt.Sprintf("mask-%04b", mask&15)
		if mask&16 != 0 {
			name += "-no-steal-half"
		}
		t.Run(name, func(t *testing.T) {
			got := runSteps(t, cfg, steps, func(d *domain.Domain) Backend {
				opt := DefaultOptions(5, 2)
				opt.Chain = mask&1 != 0
				opt.Fuse = mask&2 != 0
				opt.ParallelForces = mask&4 != 0
				opt.ParallelRegions = mask&8 != 0
				opt.StealHalf = mask&16 == 0
				return NewBackendTask(d, opt)
			})
			compareDomains(t, "task-ablation", ref, got)
		})
	}
}

// TestBackendsEquivalentAcrossRegionCounts covers the Figure 10 parameter
// axis: region decomposition changes the work structure, not the answer's
// backend-independence.
func TestBackendsEquivalentAcrossRegionCounts(t *testing.T) {
	for _, nr := range []int{1, 2, 16, 21} {
		nr := nr
		t.Run(fmt.Sprintf("regions-%d", nr), func(t *testing.T) {
			cfg := domain.Config{EdgeElems: 5, NumReg: nr, Balance: 1, Cost: 1}
			const steps = 8
			ref := runSteps(t, cfg, steps, func(d *domain.Domain) Backend {
				return NewBackendSerial(d)
			})
			got := runSteps(t, cfg, steps, func(d *domain.Domain) Backend {
				return NewBackendTask(d, DefaultOptions(5, 2))
			})
			compareDomains(t, "task-regions", ref, got)
			got2 := runSteps(t, cfg, steps, func(d *domain.Domain) Backend {
				return NewBackendOMP(d, 2)
			})
			compareDomains(t, "omp-regions", ref, got2)
		})
	}
}

// TestBackendsEquivalentFullRun drives a tiny problem to its stop time on
// all backends, covering the dt ramp, shock formation and the final-step
// clamping logic end to end.
func TestBackendsEquivalentFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full run in -short mode")
	}
	cfg := domain.DefaultConfig(4)
	ref := runSteps(t, cfg, 0, func(d *domain.Domain) Backend {
		return NewBackendSerial(d)
	})
	for _, mk := range []struct {
		name string
		f    func(*domain.Domain) Backend
	}{
		{"omp", func(d *domain.Domain) Backend { return NewBackendOMP(d, 2) }},
		{"naive", func(d *domain.Domain) Backend { return NewBackendNaive(d, 2) }},
		{"task", func(d *domain.Domain) Backend { return NewBackendTask(d, DefaultOptions(4, 2)) }},
	} {
		mk := mk
		t.Run(mk.name, func(t *testing.T) {
			got := runSteps(t, cfg, 0, mk.f)
			compareDomains(t, mk.name, ref, got)
		})
	}
}

// TestOMPScheduleInvariance: dynamic and guided worksharing change which
// thread runs which chunk, never the per-datum arithmetic.
func TestOMPScheduleInvariance(t *testing.T) {
	cfg := domain.DefaultConfig(5)
	const steps = 10
	ref := runSteps(t, cfg, steps, func(d *domain.Domain) Backend {
		return NewBackendSerial(d)
	})
	for _, sched := range []Schedule{ScheduleStatic, ScheduleDynamic, ScheduleGuided} {
		sched := sched
		t.Run(fmt.Sprintf("schedule-%d", sched), func(t *testing.T) {
			got := runSteps(t, cfg, steps, func(d *domain.Domain) Backend {
				return NewBackendOMPSchedule(d, 3, sched)
			})
			compareDomains(t, "omp-schedule", ref, got)
		})
	}
}
