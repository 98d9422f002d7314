// Command luleshbench regenerates the evaluation of the paper
// "Speeding-Up LULESH on HPX" (SC 2024): one sub-experiment per table or
// figure, printing the same rows/series the paper reports.
//
//	luleshbench -fig 9             runtime vs. execution threads (Figure 9)
//	luleshbench -fig 10            speed-up vs. size and regions (Figure 10)
//	luleshbench -fig 11            productive-time ratio (Figure 11)
//	luleshbench -fig naive         naive for_each port vs. omp vs. task (§III)
//	luleshbench -table 1           partition-size tuning (Table I)
//	luleshbench -ablation          contribution of each technique (§IV)
//	luleshbench -sweep             scenarios × sizes × threads × backends
//	luleshbench -benchgate         regression gate against committed BENCH_<n>.json
//
// Every experiment accepts -scenario to swap the problem setup (sedov,
// piston, multimat); all scenarios run the identical kernels, so relative
// backend comparisons stay meaningful per scenario.
//
// Problem sizes and thread counts default to values scaled to this
// machine; pass -sizes and -threads to override (e.g. the paper's full
// -sizes 45,60,75,90,120,150 -threads 1,2,4,8,16,24,32,48 on a 24-core
// host). Iteration counts are capped (-i) exactly as the paper's reduced
// artifact-evaluation protocol does; relative comparisons are preserved.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lulesh/internal/core"
	"lulesh/internal/dist"
	"lulesh/internal/domain"
	"lulesh/internal/perf"
	"lulesh/internal/stats"
)

type config struct {
	sizes    []int
	threads  []int
	regions  []int
	iters    int
	reps     int
	csv      bool
	record   string              // directory for BENCH_<n>.json records ("" = off)
	name     string              // experiment label stamped into records
	scenario domain.ScenarioSpec // normalized problem scenario (zero = sedov)
}

// liveSrv, when non-nil, is the -metrics-addr endpoint; measure points it
// at whichever profiler belongs to the measurement currently running.
var liveSrv *perf.Server

func main() {
	var (
		fig     = flag.String("fig", "", "figure to reproduce: 9 | 10 | 11 | naive | dist")
		table   = flag.String("table", "", "table to reproduce: 1")
		ablate  = flag.Bool("ablation", false, "run the technique ablation study")
		sched   = flag.Bool("schedules", false, "compare OpenMP loop schedules against the task backend")
		sizes   = flag.String("sizes", "", "comma-separated problem sizes (default machine-scaled)")
		threads = flag.String("threads", "", "comma-separated thread counts (default 1..2*cores)")
		regs    = flag.String("regions", "11,16,21", "comma-separated region counts (Figure 10)")
		iters   = flag.Int("i", 0, "iteration cap per run (0 = size-scaled default)")
		reps    = flag.Int("reps", 1, "repetitions per measurement (min is reported)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		record  = flag.String("record", "", "write one machine-readable BENCH_<n>.json per measurement to this directory")
		metrics = flag.String("metrics-addr", "", "serve live Prometheus/JSON metrics and pprof for the measurement in flight")

		scenario = flag.String("scenario", "", "problem scenario name[:key=val,...] (sedov | piston | multimat)")
		sweepF   = flag.Bool("sweep", false, "run the scenario sweep: scenarios x sizes x threads x backends")
		scens    = flag.String("scenarios", "sedov,piston,multimat", "comma-separated scenario specs for -sweep")
		backs    = flag.String("backends", "omp,task", "comma-separated backends for -sweep (serial|naive|omp|task)")
		gateF    = flag.Bool("benchgate", false, "re-measure the baseline BENCH_<n>.json configurations and fail on grind-time regression")
		baseDir  = flag.String("baseline", ".", "directory holding the baseline BENCH_<n>.json records for -benchgate")
		gateTol  = flag.Float64("gate-tol", 0.10, "benchgate relative grind-time tolerance")
		gateAbs  = flag.Bool("gate-absolute", false, "benchgate: compare raw grind times (same machine) instead of median-normalized ratios")
		stallF   = flag.String("stall-report", "", "print the critical-path/stall report of a fleet snapshot JSON (written by lulesh -fleet-out)")
	)
	flag.Parse()

	spec, err := domain.ParseScenarioSpec(*scenario)
	if err == nil {
		spec, err = domain.NormalizeScenarioSpec(spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}

	cores := runtime.GOMAXPROCS(0)
	cfg := config{
		sizes:    parseList(*sizes, []int{10, 16, 24}),
		threads:  parseList(*threads, defaultThreads(cores)),
		regions:  parseList(*regs, []int{11, 16, 21}),
		iters:    *iters,
		reps:     *reps,
		csv:      *csv,
		record:   *record,
		scenario: spec,
	}
	if *metrics != "" {
		srv, err := perf.StartServer(*metrics, nil, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		liveSrv = srv
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics (JSON at /metrics.json, pprof at /debug/pprof/)\n", srv.Addr)
	}

	switch {
	case *fig == "9":
		cfg.name = "figure9"
		figure9(cfg)
	case *fig == "dist":
		cfg.name = "dist"
		figureDist(cfg)
	case *fig == "10":
		cfg.name = "figure10"
		figure10(cfg)
	case *fig == "11":
		cfg.name = "figure11"
		figure11(cfg)
	case *fig == "naive":
		cfg.name = "naive"
		figureNaive(cfg)
	case *table == "1":
		cfg.name = "table1"
		tableI(cfg)
	case *ablate:
		cfg.name = "ablation"
		ablation(cfg)
	case *sched:
		cfg.name = "schedules"
		schedules(cfg)
	case *sweepF:
		cfg.name = "sweep"
		sweep(cfg, splitList(*scens), splitList(*backs))
	case *gateF:
		benchgate(cfg, *baseDir, *gateTol, *gateAbs)
	case *stallF != "":
		stallReport(*stallF)
	default:
		fmt.Fprintln(os.Stderr, "pick one of: -fig 9 | -fig 10 | -fig 11 | -fig naive | -fig dist | -table 1 | -ablation | -schedules | -sweep | -benchgate | -stall-report FILE")
		flag.Usage()
		os.Exit(2)
	}
}

// stallReport loads a fleet snapshot (lulesh -fleet-out) and prints its
// post-run critical-path / stall analysis.
func stallReport(path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stall-report: %v\n", err)
		os.Exit(1)
	}
	fs, err := perf.LoadFleetSnapshot(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "stall-report: %v\n", err)
		os.Exit(1)
	}
	perf.BuildStallReport(fs).WriteText(os.Stdout)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseList(s string, def []int) []int {
	if s == "" {
		return def
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad list entry %q: %v\n", part, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func defaultThreads(cores int) []int {
	var out []int
	for t := 1; t < cores; t *= 2 {
		out = append(out, t)
	}
	out = append(out, cores, 2*cores)
	return out
}

// iterCap mirrors the paper's reduced-iteration protocol: larger problems
// run fewer cycles so every measurement fits a comparable time budget.
func (c config) iterCap(size int) int {
	if c.iters > 0 {
		return c.iters
	}
	switch {
	case size <= 10:
		return 80
	case size <= 16:
		return 40
	case size <= 24:
		return 20
	case size <= 32:
		return 12
	default:
		return 6
	}
}

// buildDomain constructs the scenario domain for one cubic measurement.
// Scenarios with their own region model (multimat) override the regions
// argument with their option set.
func buildDomain(c config, size, regions int) *domain.Domain {
	d, err := domain.BuildScenarioCube(c.scenario, domain.Config{
		EdgeElems: size, NumReg: regions, Balance: 1, Cost: 1,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
		os.Exit(2)
	}
	return d
}

// measure runs one configuration reps times and returns the minimum
// runtime in seconds together with the last run's utilization.
func measure(c config, size, regions, threads int, backend string) (sec, util float64, hasUtil bool) {
	best, util, hasUtil := measureBest(c, size, regions, threads, backend)
	return best.Elapsed.Seconds(), util, hasUtil
}

// measureBest is measure returning the full best-rep Result (iterations,
// FOM). When -record or -metrics-addr is active, a per-measurement
// profiler collects the phase breakdown: the live endpoint follows it,
// and the best rep is written out as a BENCH_<n>.json record.
func measureBest(c config, size, regions, threads int, backend string) (best core.Result, util float64, hasUtil bool) {
	var prof *perf.Profiler
	if c.record != "" || liveSrv != nil {
		prof = perf.NewProfiler(threads, 0)
		if liveSrv != nil {
			liveSrv.SetProfiler(prof)
		}
	}
	for r := 0; r < c.reps; r++ {
		d := buildDomain(c, size, regions)
		var b core.Backend
		switch backend {
		case "serial":
			b = core.NewBackendSerial(d)
		case "omp":
			b = core.NewBackendOMP(d, threads)
		case "naive":
			b = core.NewBackendNaive(d, threads)
		case "task":
			b = core.NewBackendTask(d, core.DefaultOptions(size, threads))
		default:
			panic("unknown backend " + backend)
		}
		if prof != nil {
			if pb, ok := b.(core.PhaseProfiled); ok {
				pb.SetProfiler(prof)
			}
		}
		var counters map[string]float64
		res, err := core.Run(d, b, core.RunConfig{MaxIterations: c.iterCap(size)})
		if tb, ok := b.(*core.BackendTask); ok && c.record != "" {
			ctr := tb.Counters()
			counters = map[string]float64{
				"tasks":       float64(ctr.Tasks),
				"steals":      float64(ctr.Steals),
				"parks":       float64(ctr.Parks),
				"utilization": ctr.Utilization(),
			}
			if rate, ok := ctr.AffinityHitRate(); ok {
				counters["affinity_hit_rate"] = rate
			}
		}
		b.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "run failed (%s s=%d r=%d t=%d): %v\n",
				backend, size, regions, threads, err)
			os.Exit(1)
		}
		util, hasUtil = res.Utilization, res.HasUtil
		if r == 0 || res.Elapsed < best.Elapsed {
			best = res
		}
		if c.record != "" && r == c.reps-1 {
			rec := perf.BenchRecord{
				Name: c.name, Scenario: c.scenario.String(),
				Backend: backend, Workers: threads,
				Size: size, Regions: d.Regions.NumReg, Iterations: best.Iterations,
				Counters: counters,
			}
			rec.SetThroughput(size*size*size, best.Iterations, best.Elapsed)
			if prof != nil {
				rec.Phases = prof.Snapshot().Phases
			}
			if path, err := perf.WriteBenchJSON(c.record, rec); err != nil {
				fmt.Fprintf(os.Stderr, "record: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "recorded %s\n", path)
			}
		}
	}
	return best, util, hasUtil
}

func emit(c config, t *stats.Table) {
	if c.csv {
		t.WriteCSV(os.Stdout)
		return
	}
	t.Write(os.Stdout)
}

// figure9 reproduces Figure 9: total runtime over the number of execution
// threads, one series per problem size, for the fork-join reference and
// the task backend.
func figure9(c config) {
	fmt.Printf("Figure 9: runtime [s] vs execution threads (iteration caps applied)\n\n")
	for _, size := range c.sizes {
		t := stats.NewTable("threads", "omp [s]", "task [s]", "task/omp speedup")
		for _, th := range c.threads {
			omp, _, _ := measure(c, size, 11, th, "omp")
			task, _, _ := measure(c, size, 11, th, "task")
			t.AddRow(th, omp, task, omp/task)
		}
		fmt.Printf("problem size %d (%d iterations)\n", size, c.iterCap(size))
		emit(c, t)
		fmt.Println()
	}
}

// figure10 reproduces Figure 10: speed-up of the task backend over the
// fork-join reference at a fixed thread count, for varying problem sizes
// and region counts.
func figure10(c config) {
	th := c.threads[len(c.threads)-1]
	if cores := runtime.GOMAXPROCS(0); contains(c.threads, cores) {
		th = cores // the paper fixes threads at the core count (24)
	}
	fmt.Printf("Figure 10: task-over-omp speed-up at %d threads\n\n", th)
	t := stats.NewTable(append([]string{"size"}, regionHeaders(c.regions)...)...)
	for _, size := range c.sizes {
		row := []interface{}{size}
		for _, nr := range c.regions {
			omp, _, _ := measure(c, size, nr, th, "omp")
			task, _, _ := measure(c, size, nr, th, "task")
			row = append(row, omp/task)
		}
		t.AddRow(row...)
	}
	emit(c, t)
}

func regionHeaders(regions []int) []string {
	out := make([]string, len(regions))
	for i, r := range regions {
		out[i] = fmt.Sprintf("speedup @%d regions", r)
	}
	return out
}

// figure11 reproduces Figure 11: the ratio of productive worker time to
// total execution time for both runtimes.
func figure11(c config) {
	th := runtime.GOMAXPROCS(0)
	fmt.Printf("Figure 11: productive-time ratio at %d threads\n\n", th)
	t := stats.NewTable("size", "omp util", "task util")
	for _, size := range c.sizes {
		_, ompU, _ := measure(c, size, 11, th, "omp")
		_, taskU, _ := measure(c, size, 11, th, "task")
		t.AddRow(size, ompU, taskU)
	}
	emit(c, t)
}

// figureNaive reproduces the Section III observation: the prior
// hpx::for_each port performs significantly worse than the OpenMP
// reference, while the task-based approach beats it.
func figureNaive(c config) {
	th := runtime.GOMAXPROCS(0)
	fmt.Printf("Naive for_each port vs reference vs task backend at %d threads\n\n", th)
	t := stats.NewTable("size", "serial [s]", "naive [s]", "omp [s]", "task [s]")
	for _, size := range c.sizes {
		ser, _, _ := measure(c, size, 11, 1, "serial")
		nai, _, _ := measure(c, size, 11, th, "naive")
		omp, _, _ := measure(c, size, 11, th, "omp")
		task, _, _ := measure(c, size, 11, th, "task")
		t.AddRow(size, ser, nai, omp, task)
	}
	emit(c, t)
}

// tableI reproduces Table I: the partition-size tuning sweep. For each
// problem size it reports the runtime across partition sizes and marks the
// fastest.
func tableI(c config) {
	th := runtime.GOMAXPROCS(0)
	parts := []int{256, 512, 1024, 2048, 4096, 8192}
	fmt.Printf("Table I: task partition-size sweep at %d threads (runtime [s], * = best)\n\n", th)
	header := []string{"size"}
	for _, p := range parts {
		header = append(header, fmt.Sprintf("P=%d", p))
	}
	header = append(header, "best")
	t := stats.NewTable(header...)
	for _, size := range c.sizes {
		row := []interface{}{size}
		best, bestP := 1e300, 0
		times := make([]float64, len(parts))
		for i, p := range parts {
			d := buildDomain(c, size, 11)
			opt := core.DefaultOptions(size, th)
			opt.PartNodal = p
			opt.PartElem = p
			b := core.NewBackendTask(d, opt)
			res, err := core.Run(d, b, core.RunConfig{MaxIterations: c.iterCap(size)})
			b.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "tableI run failed: %v\n", err)
				os.Exit(1)
			}
			times[i] = res.Elapsed.Seconds()
			if times[i] < best {
				best, bestP = times[i], p
			}
		}
		for i := range parts {
			cell := fmt.Sprintf("%.4g", times[i])
			if parts[i] == bestP {
				cell += "*"
			}
			row = append(row, cell)
		}
		row = append(row, bestP)
		t.AddRow(row...)
	}
	emit(c, t)
}

// ablation isolates each technique of Section IV by disabling it while
// keeping the rest of the paper configuration.
func ablation(c config) {
	th := runtime.GOMAXPROCS(0)
	fmt.Printf("Ablation: runtime [s] with one technique disabled (at %d threads)\n\n", th)
	variants := []struct {
		name string
		mod  func(*core.Options)
	}{
		{"full (paper)", func(o *core.Options) {}},
		{"-chaining", func(o *core.Options) { o.Chain = false }},
		{"-fusion", func(o *core.Options) { o.Fuse = false }},
		{"-parallel forces", func(o *core.Options) { o.ParallelForces = false }},
		{"-parallel regions", func(o *core.Options) { o.ParallelRegions = false }},
		{"-steal half", func(o *core.Options) { o.StealHalf = false }},
	}
	header := []string{"size"}
	for _, v := range variants {
		header = append(header, v.name)
	}
	t := stats.NewTable(header...)
	for _, size := range c.sizes {
		row := []interface{}{size}
		for _, v := range variants {
			start := time.Now()
			d := buildDomain(c, size, 11)
			opt := core.DefaultOptions(size, th)
			v.mod(&opt)
			b := core.NewBackendTask(d, opt)
			if _, err := core.Run(d, b, core.RunConfig{MaxIterations: c.iterCap(size)}); err != nil {
				fmt.Fprintf(os.Stderr, "ablation run failed: %v\n", err)
				os.Exit(1)
			}
			b.Close()
			row = append(row, time.Since(start).Seconds())
		}
		t.AddRow(row...)
	}
	emit(c, t)
}

// figureDist runs the future-work experiment (Section VI): multi-domain
// LULESH with the synchronous MPI-style exchange versus the overlapped
// asynchronous schedule, on a fabric with simulated link latency.
func figureDist(c config) {
	const latency = 500 * time.Microsecond
	size := c.sizes[len(c.sizes)-1]
	iters := c.iterCap(size)
	fmt.Printf("Future work: multi-domain, %d^3 elems/rank, %d iterations, %v link latency\n\n",
		size, iters, latency)
	t := stats.NewTable("ranks", "sync [s]", "sync wait [s]", "async [s]",
		"async wait [s]", "speedup")
	for _, ranks := range []int{1, 2, 3, 4} {
		run := func(async bool) (float64, float64) {
			cfg := dist.DefaultConfig(size, ranks)
			cfg.Async = async
			cfg.Latency = latency
			cfg.MaxIterations = iters
			res, err := dist.Run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dist run failed: %v\n", err)
				os.Exit(1)
			}
			maxWait := 0.0
			for _, rs := range res.Ranks {
				if w := rs.Comm.Wait.Seconds(); w > maxWait {
					maxWait = w
				}
			}
			return res.Elapsed.Seconds(), maxWait
		}
		syncSec, syncWait := run(false)
		asyncSec, asyncWait := run(true)
		t.AddRow(ranks, syncSec, syncWait, asyncSec, asyncWait, syncSec/asyncSec)
	}
	emit(c, t)
}

// schedules tests whether intra-loop dynamic scheduling lets the fork-join
// model catch the task backend. It cannot: LULESH's loops are internally
// uniform — the imbalance lives across loop and region boundaries, where a
// loop schedule has no leverage. (Section IV's motivation, quantified.)
func schedules(c config) {
	th := runtime.GOMAXPROCS(0)
	fmt.Printf("OpenMP loop schedules vs the task backend at %d threads\n\n", th)
	t := stats.NewTable("size", "static [s]", "dynamic [s]", "guided [s]", "task [s]")
	for _, size := range c.sizes {
		row := []interface{}{size}
		for _, sched := range []core.Schedule{core.ScheduleStatic,
			core.ScheduleDynamic, core.ScheduleGuided} {
			sched := sched
			var s stats.Sample
			for rep := 0; rep < c.reps; rep++ {
				d := buildDomain(c, size, 11)
				b := core.NewBackendOMPSchedule(d, th, sched)
				res, err := core.Run(d, b, core.RunConfig{MaxIterations: c.iterCap(size)})
				b.Close()
				if err != nil {
					fmt.Fprintf(os.Stderr, "schedules run failed: %v\n", err)
					os.Exit(1)
				}
				s.Add(res.Elapsed.Seconds())
			}
			row = append(row, s.Min())
		}
		task, _, _ := measure(c, size, 11, th, "task")
		row = append(row, task)
		t.AddRow(row...)
	}
	emit(c, t)
}

// sweep runs the full scenario grid — scenarios × sizes × threads ×
// backends — and prints one row per cell with the grind time (us per zone
// per cycle) and FOM (zones/s). With -record each cell also writes a
// BENCH_<n>.json; the committed baselines at the repo root were produced
// this way and are what -benchgate compares against.
func sweep(c config, scenarioSpecs, backends []string) {
	if len(scenarioSpecs) == 0 || len(backends) == 0 {
		fmt.Fprintln(os.Stderr, "sweep: -scenarios and -backends must be non-empty")
		os.Exit(2)
	}
	fmt.Printf("Scenario sweep: %s x sizes %v x threads %v x %s\n\n",
		strings.Join(scenarioSpecs, ","), c.sizes, c.threads, strings.Join(backends, ","))
	t := stats.NewTable("scenario", "backend", "size", "threads", "iters",
		"runtime [s]", "grind [us/z/c]", "FOM [z/s]")
	for _, raw := range scenarioSpecs {
		spec, err := domain.ParseScenarioSpec(raw)
		if err == nil {
			spec, err = domain.NormalizeScenarioSpec(spec)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(2)
		}
		cc := c
		cc.scenario = spec
		for _, size := range c.sizes {
			for _, th := range c.threads {
				for _, backend := range backends {
					best, _, _ := measureBest(cc, size, 11, th, backend)
					var r perf.BenchRecord
					r.SetThroughput(size*size*size, best.Iterations, best.Elapsed)
					t.AddRow(spec.String(), backend, size, th, best.Iterations,
						best.Elapsed.Seconds(), r.GrindUsZC, r.FOM)
				}
			}
		}
	}
	emit(c, t)
}

// benchgate is the committed-trajectory regression gate: load the
// baseline BENCH_<n>.json records, re-measure exactly the configurations
// they pin (same scenario, backend, size, workers and iteration count),
// and fail — exit status 1 — if any configuration's grind time regressed
// by more than the tolerance. Cross-machine noise is absorbed by
// median-ratio normalization unless -gate-absolute is set (see
// internal/perf.Gate).
func benchgate(c config, dir string, tol float64, absolute bool) {
	baseline, err := perf.ReadBenchDir(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	if len(baseline) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no BENCH_<n>.json records in %s\n", dir)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchgate: %d baseline records from %s\n", len(baseline), dir)

	// The pinned subset: one measurement target per distinct baseline
	// configuration, re-run with the baseline's own iteration count.
	type target struct {
		rec     perf.BenchRecord
		spec    domain.ScenarioSpec
		regions int
	}
	seen := make(map[string]bool)
	var targets []target
	for _, rec := range baseline {
		key := rec.ConfigKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		spec, err := domain.ParseScenarioSpec(rec.Scenario)
		if err == nil {
			spec, err = domain.NormalizeScenarioSpec(spec)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: baseline %s: %v\n", key, err)
			os.Exit(1)
		}
		regions := rec.Regions
		if regions == 0 {
			regions = 11
		}
		targets = append(targets, target{rec: rec, spec: spec, regions: regions})
	}

	remeasure := func(tg target) perf.BenchRecord {
		cc := c
		cc.scenario = tg.spec
		cc.iters = tg.rec.Iterations // measure the same cycle count the baseline did
		cc.record = ""               // the gate measures, it does not append to the trajectory
		best, _, _ := measureBest(cc, tg.rec.Size, tg.regions, tg.rec.Workers, tg.rec.Backend)
		rec := perf.BenchRecord{
			Name: "benchgate", Scenario: tg.spec.String(),
			Backend: tg.rec.Backend, Workers: tg.rec.Workers,
			Size: tg.rec.Size, Regions: tg.regions, Iterations: best.Iterations,
		}
		rec.SetThroughput(best.Size*best.Size*best.Size, best.Iterations, best.Elapsed)
		return rec
	}

	current := make(map[string]perf.BenchRecord, len(targets))
	for _, tg := range targets {
		fmt.Fprintf(os.Stderr, "benchgate: measuring %s (%d reps)\n", tg.rec.ConfigKey(), c.reps)
		current[tg.rec.ConfigKey()] = remeasure(tg)
	}

	// A failing config gets re-measured (keeping its best grind) before
	// the gate believes it: a contention spike on a shared machine goes
	// away on retry, a real regression does not.
	const maxRounds = 3
	var rep perf.GateReport
	for round := 1; ; round++ {
		recs := make([]perf.BenchRecord, 0, len(current))
		for _, r := range current {
			recs = append(recs, r)
		}
		rep, err = perf.Gate(baseline, recs, tol, absolute)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		if rep.Pass() || round == maxRounds {
			break
		}
		for _, e := range rep.Entries {
			if e.Pass {
				continue
			}
			for _, tg := range targets {
				if tg.rec.ConfigKey() != e.Key {
					continue
				}
				fmt.Fprintf(os.Stderr, "benchgate: retry %d for %s (norm ratio %.3f)\n",
					round, e.Key, e.NormalizedRatio)
				if r := remeasure(tg); r.GrindUsZC < current[e.Key].GrindUsZC {
					current[e.Key] = r
				}
			}
		}
	}

	fmt.Print(rep)
	if !rep.Pass() {
		fmt.Fprintln(os.Stderr, "benchgate: FAIL")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "benchgate: ok")
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
