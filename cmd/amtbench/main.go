// Command amtbench microbenchmarks the two parallel runtimes the LULESH
// backends are built on: the fork-join pool (internal/omp) and the AMT
// scheduler (internal/amt). It reports the raw synchronization costs that
// explain the application-level results — the cost of one fork-join
// dispatch (what the OpenMP reference pays per loop) versus the cost of
// task spawning, chaining and when_all joins (what the task backend pays)
// — together with the heap allocations each dispatch performs, since the
// pooled-frame fast path lives or dies by allocs/op.
package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"lulesh/internal/amt"
	"lulesh/internal/omp"
	"lulesh/internal/perf"
)

func main() {
	workers := flag.Int("threads", runtime.GOMAXPROCS(0), "worker threads")
	n := flag.Int("n", 20000, "operations per measurement")
	flag.Parse()

	fmt.Printf("runtime microbenchmarks, %d threads, %d ops each\n\n", *workers, *n)

	bench := func(name string, once func()) {
		// Warm up (also populates the frame pool), then measure both wall
		// time and the caller-side allocation count via Mallocs deltas.
		for i := 0; i < 100; i++ {
			once()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < *n; i++ {
			once()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(*n)
		fmt.Printf("  %-34s %v/op  %6.1f allocs/op\n",
			name, d/time.Duration(*n), allocs)
	}

	p := omp.NewPool(*workers)
	bench("omp: empty parallel region", func() {
		p.Parallel(func(tid int) {})
	})
	bench("omp: empty parallel-for (1k iters)", func() {
		p.ParallelFor(1000, func(i int) {})
	})
	bench("omp: static region (1k iters)", func() {
		p.ParallelStatic(1000, func(tid, lo, hi int) {})
	})
	p.Close()

	s := amt.NewScheduler(amt.WithWorkers(*workers))
	defer s.Close()

	bench("amt: spawn+complete one task", func() {
		amt.Run(s, func() {}).Get()
	})
	bench("amt: chain of 4 continuations", func() {
		f := amt.Run(s, func() {})
		for i := 0; i < 3; i++ {
			f = amt.ThenRun(f, func(amt.Unit) {})
		}
		f.Get()
	})
	fs := make([]*amt.Void, 0, 2**workers)
	bench("amt: fork/join across workers", func() {
		fs = fs[:0]
		for i := 0; i < 2**workers; i++ {
			fs = append(fs, amt.Run(s, func() {}))
		}
		amt.AfterAll(s, fs).Get()
	})
	bench("amt: for_each (1k iters, chunked)", func() {
		amt.ForEach(s, 0, 1000, 128, func(i int) {}).Get()
	})
	bench("amt: for_each (sub-grain, inline)", func() {
		amt.ForEach(s, 0, 100, 128, func(i int) {}).Get()
	})

	// Fire-and-forget throughput: how many empty tasks per second the
	// scheduler drains, submitted one at a time.
	const burst = 200000
	t0 := time.Now()
	for i := 0; i < burst; i++ {
		s.Spawn(func() {})
	}
	s.Quiesce()
	d := time.Since(t0)
	fmt.Printf("  %-34s %v/op (%.1fM tasks/s)\n", "amt: fire-and-forget throughput",
		d/time.Duration(burst), float64(burst)/d.Seconds()/1e6)

	c := s.CountersSnapshot()
	fmt.Printf("\nscheduler counters: %v\n", c)

	// Instrumented dispatch: a perf sink timestamps every frame at enqueue,
	// so the queue-wait column is the spawn-to-start latency the solver's
	// tasks experience, and the park counters price the wake protocol.
	prof := perf.NewProfiler(*workers, 0)
	s.ResetCounters()
	s.SetSink(prof)
	for i := 0; i < burst/10; i++ {
		s.Spawn(func() {})
	}
	s.Quiesce()
	s.SetSink(nil)
	if snap := prof.Snapshot(); len(snap.Phases) > 0 {
		ph := snap.Phases[0]
		ci := s.CountersSnapshot()
		fmt.Printf("\ninstrumented dispatch (%d tasks)\n", ph.Count)
		fmt.Printf("  %-34s p50=%v p95=%v p99=%v\n", "task duration", ph.P50, ph.P95, ph.P99)
		fmt.Printf("  %-34s avg=%v total=%v\n", "queue wait (enqueue to start)",
			ph.QueueWait/time.Duration(ph.Count), ph.QueueWait)
		fmt.Printf("  %-34s parks=%d parked=%.1f%% of worker time\n", "park/unpark",
			ci.Parks, 100*ci.ParkedRate())
	}

	// Contended stealing: every task in a burst is pinned to worker 0, so
	// all other workers can make progress only by stealing — the worst
	// case for the steal path and the workload where steal-half batching
	// pays. Reported per burst: drain time, successful steal sweeps per
	// task, and frames migrated per sweep (1.0 without steal-half).
	const pinBurst = 512
	sink := 0.0
	pinned := func() {
		acc := 0.0
		for k := 0; k < 200; k++ {
			acc += float64(k)
		}
		sink += acc
	}
	fmt.Printf("\ncontended stealing (%d-task bursts pinned to worker 0, %d workers)\n",
		pinBurst, *workers)
	for _, half := range []bool{false, true} {
		sc := amt.NewScheduler(amt.WithWorkers(*workers), amt.WithStealHalf(half))
		drain := func() {
			for i := 0; i < pinBurst; i++ {
				sc.SpawnAt(0, pinned)
			}
			sc.Quiesce()
		}
		for i := 0; i < 20; i++ {
			drain()
		}
		sc.ResetCounters()
		reps := *n / pinBurst
		if reps < 10 {
			reps = 10
		}
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			drain()
		}
		d = time.Since(t0)
		cc := sc.CountersSnapshot()
		fmt.Printf("  %-34s %v/burst  %.4f steals/task  %.2f frames/steal\n",
			fmt.Sprintf("steal-half=%v", half),
			d/time.Duration(reps),
			float64(cc.Steals)/float64(cc.Tasks), cc.FramesPerSteal())
		sc.Close()
	}

	_ = sink
}
