package core

import (
	"sync"
	"testing"
	"time"

	"lulesh/internal/domain"
	"lulesh/internal/trace"
)

// TestSerialProfilingPhases: the serial backend speaks the same phase
// vocabulary as the parallel ones — exactly one profiler record per kernel
// family per step, under the omp backend's phase names.
func TestSerialProfilingPhases(t *testing.T) {
	const steps = 5
	_, snap := runProfiled(t, domain.DefaultConfig(6), steps,
		func(d *domain.Domain) Backend { return NewBackendSerial(d) })
	want := []string{"force", "nodal", "elements", "eos-regions", "volumes", "constraints"}
	if snap.Tasks != int64(steps*len(want)) {
		t.Fatalf("%d records over %d steps, want %d", snap.Tasks, steps, steps*len(want))
	}
	got := map[string]int64{}
	for _, ph := range snap.Phases {
		got[ph.Name] = ph.Count
	}
	for _, name := range want {
		if got[name] != steps {
			t.Errorf("phase %q recorded %d times, want one per step (%d)", name, got[name], steps)
		}
	}
}

func TestBackendsImplementTraceSource(t *testing.T) {
	d := domain.NewSedov(domain.DefaultConfig(4))
	for _, b := range []Backend{
		NewBackendOMP(d, 2),
		NewBackendNaive(d, 2),
		NewBackendTask(d, DefaultOptions(4, 2)),
	} {
		if _, ok := b.(TraceSource); !ok {
			t.Errorf("%s does not implement TraceSource", b.Name())
		}
		b.Close()
	}
}

func TestTaskBackendFeedsTraceRecorder(t *testing.T) {
	d := domain.NewSedov(domain.DefaultConfig(5))
	b := NewBackendTask(d, DefaultOptions(5, 2))
	defer b.Close()
	rec := trace.NewRecorder(0)
	var mu sync.Mutex
	maxWorker := -1
	b.SetObserver(func(worker int, start time.Time, dur time.Duration) {
		rec.Record("task", worker, start, dur)
		mu.Lock()
		if worker > maxWorker {
			maxWorker = worker
		}
		mu.Unlock()
	})
	if _, err := Run(d, b, RunConfig{MaxIterations: 3}); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no spans recorded")
	}
	mu.Lock()
	defer mu.Unlock()
	if maxWorker < 0 || maxWorker > 1 {
		t.Fatalf("worker ids out of range: max %d", maxWorker)
	}
}

func TestOMPBackendFeedsTraceRecorder(t *testing.T) {
	d := domain.NewSedov(domain.DefaultConfig(5))
	b := NewBackendOMP(d, 2)
	defer b.Close()
	rec := trace.NewRecorder(0)
	b.SetObserver(func(worker int, start time.Time, dur time.Duration) {
		rec.Record("region", worker, start, dur)
	})
	if _, err := Run(d, b, RunConfig{MaxIterations: 2}); err != nil {
		t.Fatal(err)
	}
	// Two threads per region, dozens of regions per iteration.
	if rec.Len() < 50 {
		t.Fatalf("only %d spans for a fork-join run", rec.Len())
	}
}
