package amt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Microbenchmarks of the runtime primitives that set the task backend's
// overhead floor. Run with `go test -bench=. -benchmem ./internal/amt/`.
// Every benchmark reports allocations so a regression on the dispatch
// path's alloc-free invariant (pooled frames, latch joins) fails review
// visibly.

func BenchmarkSpawnThroughput(b *testing.B) {
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Spawn(func() {})
	}
	s.Quiesce()
}

func BenchmarkRunGetLatency(b *testing.B) {
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(s, func() {}).Get()
	}
}

func BenchmarkThenChain(b *testing.B) {
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := Run(s, func() {})
		for k := 0; k < 3; k++ {
			f = ThenRun(f, func(Unit) {})
		}
		f.Get()
	}
}

func BenchmarkAfterAllJoin(b *testing.B) {
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	fs := make([]*Void, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs = fs[:0]
		for k := 0; k < 16; k++ {
			fs = append(fs, Run(s, func() {}))
		}
		AfterAll(s, fs).Get()
	}
}

func BenchmarkForEachChunked(b *testing.B) {
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	data := make([]float64, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForEachBlock(s, 0, len(data), 4096, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				data[j] += 1
			}
		}).Get()
	}
}

func BenchmarkForEach(b *testing.B) {
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	data := make([]float64, 1<<13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForEach(s, 0, len(data), 1024, func(j int) {
			data[j] += 1
		}).Get()
	}
}

func BenchmarkForEachInlineSubGrain(b *testing.B) {
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	data := make([]float64, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForEachBlock(s, 0, len(data), 4096, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				data[j] += 1
			}
		}).Get()
	}
}

func BenchmarkReduce(b *testing.B) {
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	data := make([]float64, 1<<13)
	for i := range data {
		data[i] = float64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reduce(s, 0, len(data), 1024, 0.0,
			func(acc float64, j int) float64 { return acc + data[j] },
			func(x, y float64) float64 { return x + y }).Get()
	}
}

// TestQuiesceRacesConcurrentSpawn stresses the Quiesce/Spawn interplay:
// Quiesce must never hang, never observe a negative inflight count, and a
// final Quiesce after the producer joins must account for every task —
// the invariant the batched submission path (counts before frames) exists
// to protect, exercised here through ForEachBlock's chunk batches. Run
// under -race as part of the race lane.
func TestQuiesceRacesConcurrentSpawn(t *testing.T) {
	s := NewScheduler(WithWorkers(2))
	defer s.Close()
	var n atomic.Int64
	const spawns, batch = 3000, 8
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < spawns; i++ {
			if i%3 == 0 {
				ForEachBlock(s, 0, batch, 1, func(lo, hi int) { n.Add(int64(hi - lo)) })
			} else {
				s.Spawn(func() { n.Add(1) })
			}
			if i%64 == 0 {
				runtime.Gosched()
			}
		}
	}()
	for i := 0; i < 100; i++ {
		s.Quiesce()
		if got := s.Inflight(); got < 0 {
			t.Fatalf("inflight went negative: %d", got)
		}
	}
	wg.Wait()
	s.Quiesce()
	batches := int64((spawns + 2) / 3)
	want := batches*batch + (int64(spawns) - batches)
	if got := n.Load(); got != want {
		t.Fatalf("after final Quiesce ran %d tasks, want %d", got, want)
	}
	if got := s.Inflight(); got != 0 {
		t.Fatalf("inflight = %d after Quiesce, want 0", got)
	}
}
