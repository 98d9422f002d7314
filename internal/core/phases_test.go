package core

import (
	"testing"

	"lulesh/internal/domain"
	"lulesh/internal/perf"
)

// runProfiled advances a Sedov problem n cycles with a profiler attached and
// returns the final domain plus the profiler snapshot.
func runProfiled(t *testing.T, cfg domain.Config, n int,
	mk func(*domain.Domain) Backend) (*domain.Domain, perf.Snapshot) {
	t.Helper()
	d := domain.NewSedov(cfg)
	b := mk(d)
	defer b.Close()
	pb, ok := b.(PhaseProfiled)
	if !ok {
		t.Fatalf("%s does not implement PhaseProfiled", b.Name())
	}
	p := perf.NewProfiler(4, 0)
	pb.SetProfiler(p)
	if _, err := Run(d, b, RunConfig{MaxIterations: n}); err != nil {
		t.Fatalf("%s: %v", b.Name(), err)
	}
	pb.SetProfiler(nil)
	return d, p.Snapshot()
}

// TestProfilerPhaseAttribution checks that each profiled backend tags the
// paper's kernel families: after a few cycles every solver phase must have
// recorded work, and the records must carry real durations.
func TestProfilerPhaseAttribution(t *testing.T) {
	cfg := domain.DefaultConfig(6)
	const steps = 5
	backends := []struct {
		name string
		mk   func(*domain.Domain) Backend
	}{
		{"task", func(d *domain.Domain) Backend { return NewBackendTask(d, DefaultOptions(6, 2)) }},
		{"omp", func(d *domain.Domain) Backend { return NewBackendOMP(d, 2) }},
		{"naive", func(d *domain.Domain) Backend { return NewBackendNaive(d, 2) }},
		{"serial", func(d *domain.Domain) Backend { return NewBackendSerial(d) }},
	}
	for _, bk := range backends {
		bk := bk
		t.Run(bk.name, func(t *testing.T) {
			_, snap := runProfiled(t, cfg, steps, bk.mk)
			if snap.Tasks == 0 {
				t.Fatal("profiler recorded no tasks")
			}
			got := map[string]perf.PhaseStats{}
			for _, ph := range snap.Phases {
				got[ph.Name] = ph
			}
			for _, want := range []string{
				"force", "nodal", "elements", "eos-regions", "volumes", "constraints",
			} {
				ph, ok := got[want]
				if !ok {
					t.Errorf("phase %q never recorded; got %v", want, snap.Phases)
					continue
				}
				if ph.Count == 0 || ph.Busy <= 0 {
					t.Errorf("phase %q has count=%d busy=%v", want, ph.Count, ph.Busy)
				}
			}
		})
	}
}

// TestProfilerDoesNotPerturbResults is the observability analogue of the
// bitwise-equivalence property: attaching a profiler must not change a
// single bit of the simulation state.
func TestProfilerDoesNotPerturbResults(t *testing.T) {
	cfg := domain.DefaultConfig(6)
	const steps = 10
	for _, bk := range []struct {
		name string
		mk   func(*domain.Domain) Backend
	}{
		{"task", func(d *domain.Domain) Backend { return NewBackendTask(d, DefaultOptions(6, 3)) }},
		{"omp", func(d *domain.Domain) Backend { return NewBackendOMP(d, 3) }},
		{"naive", func(d *domain.Domain) Backend { return NewBackendNaive(d, 3) }},
		{"serial", func(d *domain.Domain) Backend { return NewBackendSerial(d) }},
	} {
		bk := bk
		t.Run(bk.name, func(t *testing.T) {
			plain := runSteps(t, cfg, steps, bk.mk)
			profiled, snap := runProfiled(t, cfg, steps, bk.mk)
			if snap.Tasks == 0 {
				t.Fatal("profiled run recorded nothing")
			}
			compareDomains(t, bk.name, plain, profiled)
		})
	}
}
