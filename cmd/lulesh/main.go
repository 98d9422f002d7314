// Command lulesh runs one LULESH Sedov problem under a selected parallel
// backend, mirroring the artifact CLI of the paper:
//
//	lulesh --s 45 --r 11 --i 100 --threads 24 --backend task --q
//
// At the end it prints a CSV-compatible result line with the header
// size,regions,iterations,threads,runtime,result — the format the paper's
// artifact-evaluation scripts consume.
//
// With -ranks N (N >= 1) the same binary runs the multi-domain driver
// instead: N simulated ranks stacked along z, optionally under injected
// communication faults (-faults, -fault-seed) with deadline/retry recovery
// (-exchange-deadline, -retry-limit) and checkpoint-based rank restart
// (-checkpoint-every, -max-restarts). See DISTRIBUTED.md for the protocol
// and worked invocations.
//
// With -np N the driver leaves the process: the binary becomes a launcher
// forking N copies of itself, one rank per OS process, exchanging over
// localhost TCP (internal/wire). Checkpoints become durable files
// (-checkpoint-dir), a SIGKILLed worker (-wire-kill RANK@STEP) triggers a
// fabric relaunch restoring from the last committed epoch, and each rank
// serves its own metrics endpoint (port base+rank, series labeled
// rank="N"). Workers can also be placed by hand across machines with
// -rank/-rendezvous. See DISTRIBUTED.md section 7.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"lulesh/internal/checkpoint"
	"lulesh/internal/comm"
	"lulesh/internal/core"
	"lulesh/internal/dist"
	"lulesh/internal/domain"
	"lulesh/internal/perf"
	"lulesh/internal/stats"
	"lulesh/internal/trace"
	"lulesh/internal/vtk"
)

func main() {
	var (
		size     = flag.Int("s", 30, "problem size (mesh elements per edge)")
		scenario = flag.String("scenario", "", "problem scenario: name[:key=val,...] of sedov | piston | multimat (\"\" = sedov)")
		regions  = flag.Int("r", 11, "number of material regions")
		iters    = flag.Int("i", 0, "maximum iterations (0 = run to stop time)")
		balance  = flag.Int("b", 1, "region size balance exponent")
		cost     = flag.Int("c", 1, "extra region cost multiplier")
		quiet    = flag.Bool("q", false, "suppress verbose output")
		threads  = flag.Int("threads", runtime.GOMAXPROCS(0), "execution threads")
		backend  = flag.String("backend", "task", "backend: serial | omp | naive | task")
		partN    = flag.Int("part-nodal", 0, "task partition size for node loops (0 = Table I default)")
		partE    = flag.Int("part-elem", 0, "task partition size for element loops (0 = Table I default)")
		stealH   = flag.Bool("steal-half", true, "idle workers steal half a victim's queue per sweep (task backend)")
		showCtr  = flag.Bool("counters", false, "print utilization counters")
		metrics  = flag.String("metrics-addr", "", "serve live Prometheus text, JSON snapshots and pprof on this address (e.g. :8080, :0 = ephemeral)")
		phases   = flag.Bool("phases", false, "record per-phase breakdowns and print the table at exit (implied by -metrics-addr)")
		traceOut = flag.String("trace", "", "write a Chrome trace of task/region spans to this file")
		progress = flag.Bool("p", false, "print cycle/time/dt every iteration (reference -p)")
		vtkOut   = flag.String("vtk", "", "write the final state as a legacy VTK file")
		saveOut  = flag.String("save", "", "write a checkpoint of the final state to this file")
		restore  = flag.String("restore", "", "resume from a checkpoint file instead of a fresh Sedov setup")

		// Multi-domain (distributed) mode.
		ranks     = flag.Int("ranks", 0, "run the multi-domain driver with this many simulated ranks (0 = single-domain mode)")
		distAsync = flag.Bool("dist-async", false, "overlapped (asynchronous) exchange schedule instead of the synchronous one")
		treeRed   = flag.Bool("tree-reduce", false, "binomial-tree dt allreduce instead of the linear gather to rank 0")
		latency   = flag.Duration("latency", 0, "deterministic one-way link latency injected into the fabric (in-process and wire)")
		faults    = flag.String("faults", "", "fault injection spec: drop=P,delay=P[:DUR],dup=P,reorder=P,crash=RANK@STEP")
		faultSeed = flag.Uint64("fault-seed", 1, "PRNG seed for -faults (a run is reproducible from spec+seed)")
		ckptEvery = flag.Int("checkpoint-every", 0, "take a coordinated checkpoint every N cycles (0 = none)")
		deadline  = flag.Duration("exchange-deadline", 0, "per-exchange deadline before a resend request (0 = default; enables the fault-tolerant fabric)")
		retryLim  = flag.Int("retry-limit", 0, "resend requests per exchange before declaring a peer dead (0 = default)")
		restarts  = flag.Int("max-restarts", 3, "restarts from the last checkpoint after a rank failure before giving up")

		// Multi-process (wire) mode.
		np          = flag.Int("np", 0, "fork this many worker processes and run the driver over localhost TCP")
		wireRank    = flag.Int("rank", -1, "this process's rank of a multi-process run (set by the -np launcher)")
		rendezvous  = flag.String("rendezvous", "", "rank 0's bootstrap address for a multi-process run")
		wireCookie  = flag.String("wire-cookie", "", "shared handshake secret of a multi-process run (set by the -np launcher)")
		wireAttempt = flag.Int("wire-attempt", 0, "fabric relaunch count (set by the -np launcher)")
		ckptDir     = flag.String("checkpoint-dir", "", "directory for durable coordinated checkpoints in multi-process mode")
		wireKill    = flag.String("wire-kill", "", "chaos: RANK@STEP makes that worker SIGKILL itself at that cycle (multi-process mode)")
		peerTimeout = flag.Duration("peer-timeout", 0, "wire silence budget before declaring a peer process dead (0 = default)")
		fleetOut    = flag.String("fleet-out", "", "write the gathered fleet trace snapshot as JSON (distributed modes; rank 0 of a wire run)")
	)
	flag.Parse()

	spec, err := domain.ParseScenarioSpec(*scenario)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
		os.Exit(2)
	}
	if err := domain.ValidateScenarioSpec(spec); err != nil {
		fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
		os.Exit(2)
	}
	scenarioSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "scenario" {
			scenarioSet = true
		}
	})

	// Hybrid MPI+X only when -threads was given explicitly: the
	// single-domain default (GOMAXPROCS) would silently oversubscribe
	// every rank with a full team.
	threadsPerRank := 1
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "threads" {
			threadsPerRank = *threads
		}
	})
	df := distFlags{
		size: *size, regions: *regions, iters: *iters,
		balance: *balance, cost: *cost, quiet: *quiet,
		threads: threadsPerRank, metrics: *metrics,
		trace: *traceOut, fleetOut: *fleetOut,
		ranks: *ranks, async: *distAsync, scenario: spec,
		treeReduce: *treeRed, latency: *latency,
		faults: *faults, faultSeed: *faultSeed,
		checkpointEvery: *ckptEvery, deadline: *deadline,
		retryLimit: *retryLim, maxRestarts: *restarts,
	}

	if *wireRank >= 0 {
		// Worker process of a multi-process run (forked by the -np
		// launcher, or hand-started against an explicit -rendezvous).
		if *ranks < 1 {
			fmt.Fprintln(os.Stderr, "-rank requires -ranks (the fabric size)")
			os.Exit(2)
		}
		runWireWorker(wireFlags{
			distFlags: df,
			rank:      *wireRank, rendezvous: *rendezvous,
			cookie: *wireCookie, attempt: *wireAttempt,
			checkpointDir: *ckptDir, wireKill: *wireKill,
			peerTimeout: *peerTimeout,
		})
		return
	}
	if *np > 0 {
		runLauncher(*np, *restarts, *ckptEvery, *ckptDir, *quiet)
		return
	}

	if *ranks > 0 {
		runDist(df)
		return
	}

	domCfg := domain.Config{
		EdgeElems: *size, NumReg: *regions, Balance: *balance, Cost: *cost,
	}
	var d *domain.Domain
	if *restore != "" {
		f, err := os.Open(*restore)
		if err != nil {
			fmt.Fprintf(os.Stderr, "restore: %v\n", err)
			os.Exit(1)
		}
		d, err = checkpoint.Load(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "restore: %v\n", err)
			os.Exit(1)
		}
		// An explicit -scenario must match the checkpoint's tag; without
		// one the run adopts whatever scenario the checkpoint was taken
		// under.
		if scenarioSet {
			if err := checkpoint.ExpectScenario(d, spec); err != nil {
				fmt.Fprintf(os.Stderr, "restore: %v\n", err)
				os.Exit(1)
			}
		}
		spec = d.Scenario
		*size = d.Mesh.EdgeElems
		domCfg = domain.Config{EdgeElems: d.Mesh.Nx, NumReg: d.Regions.NumReg,
			Balance: d.Regions.Balance, Cost: d.Regions.Cost}
	} else {
		d, err = domain.BuildScenarioCube(spec, domCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
			os.Exit(2)
		}
	}

	var b core.Backend
	switch *backend {
	case "serial":
		b = core.NewBackendSerial(d)
	case "omp":
		b = core.NewBackendOMP(d, *threads)
	case "naive":
		b = core.NewBackendNaive(d, *threads)
	case "task":
		opt := core.DefaultOptions(*size, *threads)
		if *partN > 0 {
			opt.PartNodal = *partN
		}
		if *partE > 0 {
			opt.PartElem = *partE
		}
		opt.StealHalf = *stealH
		b = core.NewBackendTask(d, opt)
	default:
		fmt.Fprintf(os.Stderr, "unknown backend %q\n", *backend)
		os.Exit(2)
	}
	defer b.Close()

	// The perf profiler powers the live -metrics-addr endpoint and the
	// per-phase table at exit; combined with -trace it also supplies
	// phase-labeled spans for the Figure 11 timelines.
	var prof *perf.Profiler
	if *metrics != "" {
		*phases = true
	}
	if *phases {
		pb, ok := b.(core.PhaseProfiled)
		if !ok {
			fmt.Fprintf(os.Stderr, "backend %s does not support phase profiling\n", *backend)
			os.Exit(2)
		}
		ringCap := 0
		if *traceOut != "" {
			ringCap = 1 << 16 // raw spans feed the Chrome trace
		}
		workers := *threads
		if *backend == "serial" {
			workers = 1 // every serial record lands on worker 0
		}
		prof = perf.NewProfiler(workers, ringCap)
		pb.SetProfiler(prof)
	}

	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder(0)
		if prof != nil {
			// Spans come phase-labeled from the profiler rings, drained
			// once per timestep by the Progress hook below.
		} else if src, ok := b.(core.TraceSource); ok {
			src.SetObserver(func(worker int, start time.Time, dur time.Duration) {
				rec.Record(*backend, worker, start, dur)
			})
		} else {
			fmt.Fprintf(os.Stderr, "backend %s does not support tracing\n", *backend)
			os.Exit(2)
		}
	}

	var srv *perf.Server
	if *metrics != "" {
		extra := func() map[string]float64 {
			g := map[string]float64{}
			if tb, ok := b.(*core.BackendTask); ok {
				c := tb.Counters()
				g["amt utilization"] = c.Utilization()
				g["amt steals total"] = float64(c.Steals)
				g["amt parks total"] = float64(c.Parks)
				if rate, ok := c.AffinityHitRate(); ok {
					g["amt affinity hit rate"] = rate
				}
			} else if u, ok := b.Utilization(); ok {
				g["backend utilization"] = u
			}
			return g
		}
		var err error
		srv, err = perf.StartServer(*metrics, prof, extra)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics (JSON at /metrics.json, pprof at /debug/pprof/)\n", srv.Addr)
	}

	if !*quiet {
		fmt.Printf("Running scenario %s, problem size %d^3 per domain, %d regions, backend %s, %d threads\n",
			spec.String(), *size, *regions, b.Name(), *threads)
	}

	runCfg := core.RunConfig{MaxIterations: *iters}
	if *progress {
		runCfg.Progress = func(cycle int, t, dt float64) {
			fmt.Printf("cycle = %d, time = %e, dt=%e\n", cycle, t, dt)
		}
	}
	// Close each timestep's per-phase accounting window, and move any raw
	// spans out of the profiler rings while they are fresh — a once-per-step
	// drain keeps the rings from overflowing on long runs.
	if prof != nil {
		prev := runCfg.Progress
		runCfg.Progress = func(cycle int, t, dt float64) {
			if prev != nil {
				prev(cycle, t, dt)
			}
			prof.MarkStep(cycle)
			if rec != nil {
				prof.DrainSpans(rec)
			}
		}
	}
	// With both tracing and the task backend active, sample the scheduler's
	// locality counters once per timestep: they appear as Chrome "C" value
	// tracks above the worker timelines, the idle gaps' quantified twin.
	if rec != nil {
		if tb, ok := b.(*core.BackendTask); ok {
			prev := runCfg.Progress
			runCfg.Progress = func(cycle int, t, dt float64) {
				if prev != nil {
					prev(cycle, t, dt)
				}
				c := tb.Counters()
				now := time.Now()
				rec.RecordCounter("idle rate", now, 1-c.Utilization())
				if rate, ok := c.AffinityHitRate(); ok {
					rec.RecordCounter("affinity hit rate", now, rate)
				}
			}
		}
	}
	res, err := core.Run(d, b, runCfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "run failed: %v\n", err)
		os.Exit(1)
	}

	if !*quiet {
		fmt.Printf("Run completed:\n")
		fmt.Printf("  Problem size          = %d\n", res.Size)
		fmt.Printf("  Iteration count       = %d\n", res.Iterations)
		fmt.Printf("  Final simulation time = %.6e\n", res.FinalTime)
		fmt.Printf("  Final origin energy   = %.6e\n", res.OriginEnergy)
		fmt.Printf("  Elapsed time          = %v\n", res.Elapsed)
		fmt.Printf("  FOM                   = %.2f (z/s)\n", res.FOM())
		if res.HasUtil {
			fmt.Printf("  Worker utilization    = %.1f%%\n", 100*res.Utilization)
		}
	}
	if *showCtr && res.HasUtil {
		fmt.Printf("utilization=%.4f\n", res.Utilization)
	}
	if *showCtr {
		if tb, ok := b.(*core.BackendTask); ok {
			c := tb.Counters()
			busy := make([]float64, len(c.PerWorker))
			for i, d := range c.PerWorker {
				busy[i] = d.Seconds()
			}
			fmt.Printf("steals_per_task=%.4f frames_per_steal=%.2f busy_imbalance=%.3f\n",
				stats.Rate(c.Steals, c.Tasks), c.FramesPerSteal(), stats.Imbalance(busy))
			if rate, ok := c.AffinityHitRate(); ok {
				fmt.Printf("affinity_hit_rate=%.4f\n", rate)
			}
		}
	}
	if prof != nil {
		if rec != nil {
			prof.DrainSpans(rec) // pick up the tail past the last Progress call
		}
		snap := prof.Snapshot()
		fmt.Printf("\nPer-phase breakdown (%s backend, %d workers, utilization %.1f%%):\n",
			b.Name(), snap.Workers, 100*snap.Utilization())
		if err := snap.Table().Write(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "phase table: %v\n", err)
		}
		if snap.SpanDrops > 0 {
			fmt.Printf("(span ring dropped %d raw spans; aggregates unaffected)\n", snap.SpanDrops)
		}
	}
	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		if !*quiet {
			fmt.Printf("wrote %d spans to %s\n", rec.Len(), *traceOut)
		}
	}
	if *saveOut != "" {
		f, err := os.Create(*saveOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "save: %v\n", err)
			os.Exit(1)
		}
		if err := checkpoint.SaveCube(f, d, domCfg); err != nil {
			fmt.Fprintf(os.Stderr, "save: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		if !*quiet {
			fmt.Printf("wrote checkpoint to %s (cycle %d)\n", *saveOut, d.Cycle)
		}
	}
	if *vtkOut != "" {
		f, err := os.Create(*vtkOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vtk: %v\n", err)
			os.Exit(1)
		}
		if err := vtk.Write(f, d); err != nil {
			fmt.Fprintf(os.Stderr, "vtk: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		if !*quiet {
			fmt.Printf("wrote VTK snapshot to %s\n", *vtkOut)
		}
	}
	fmt.Println(core.CSVHeader())
	fmt.Println(res.CSVLine())
}

// distFlags carries the parsed command line into the multi-domain driver.
type distFlags struct {
	size, regions, iters   int
	balance, cost, threads int
	quiet                  bool
	metrics                string
	scenario               domain.ScenarioSpec

	// Distributed tracing outputs: trace is the merged Chrome trace
	// (rank 0), fleetOut the raw fleet snapshot JSON — either one (or a
	// live metrics endpoint) switches tracing on.
	trace    string
	fleetOut string

	ranks           int
	async           bool
	treeReduce      bool
	latency         time.Duration
	faults          string
	faultSeed       uint64
	checkpointEvery int
	deadline        time.Duration
	retryLimit      int
	maxRestarts     int
}

// config builds the distributed configuration both drivers run, the
// in-process one and a wire worker, exiting on a malformed -faults spec.
func (f distFlags) config() dist.Config {
	cfg := dist.Config{
		Nx: f.size, Ny: f.size, NzPerRank: f.size, Ranks: f.ranks,
		NumReg: f.regions, Balance: f.balance, Cost: f.cost,
		Scenario: f.scenario,
		Async:    f.async, ThreadsPerRank: f.threads,
		TreeReduce: f.treeReduce,
		Latency:    f.latency, MaxIterations: f.iters,
		ExchangeDeadline: f.deadline, RetryLimit: f.retryLimit,
		CheckpointEvery: f.checkpointEvery, MaxRestarts: f.maxRestarts,
	}
	if f.faults != "" {
		plan, err := comm.ParseFaultPlan(f.faults, f.faultSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faults: %v\n", err)
			os.Exit(2)
		}
		cfg.Faults = plan
	}
	return cfg
}

// runDist executes the multi-domain mode: N simulated ranks, optional fault
// injection, deadline/retry recovery, and checkpoint-based restart.
func runDist(f distFlags) {
	cfg := f.config()

	// Tracing: per-step compute/wait attribution and message spans,
	// mirrored into a profiler (one shard per rank) so the breakdown
	// also serves on the live metrics endpoint.
	var prof *perf.Profiler
	if f.traceOn() {
		cfg.Trace = true
		prof = perf.NewProfiler(f.ranks, 0)
		perf.RegisterDistPhases(prof)
		cfg.Profiler = prof
	}

	// The metrics endpoint serves the fault-tolerance counters live:
	// lulesh_comm_retries_total, lulesh_comm_timeouts_total,
	// lulesh_comm_recoveries_total, lulesh_comm_checkpoints_total, ...
	if f.metrics != "" {
		mon := &dist.Monitor{}
		cfg.Monitor = mon
		srv, err := perf.StartServer(f.metrics, prof, mon.Gauges)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics\n", srv.Addr)
	}

	sched := cfg.Schedule()
	if !f.quiet {
		fmt.Printf("Running %d ranks x %d^3 (%s exchange, %d threads/rank)\n",
			f.ranks, f.size, sched, f.threads)
		if f.latency > 0 {
			fmt.Printf("  injected link latency: %v one-way\n", f.latency)
		}
		if cfg.Faults.Active() {
			fmt.Printf("  fault plan: %q seed %d\n", f.faults, f.faultSeed)
		}
		if f.checkpointEvery > 0 {
			fmt.Printf("  coordinated checkpoints every %d cycles, up to %d restarts\n",
				f.checkpointEvery, f.maxRestarts)
		}
	}

	res, err := dist.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "run failed: %v\n", err)
		os.Exit(1)
	}

	if !f.quiet {
		fmt.Printf("Run completed:\n")
		fmt.Printf("  Iteration count       = %d\n", res.Iterations)
		fmt.Printf("  Final simulation time = %.6e\n", res.FinalTime)
		fmt.Printf("  Final origin energy   = %.6e\n", res.OriginEnergy)
		fmt.Printf("  Total energy          = %.6e\n", res.TotalEnergy)
		fmt.Printf("  Elapsed time          = %v\n", res.Elapsed)
		if res.Recoveries > 0 || res.Checkpoints > 0 {
			fmt.Printf("  Recoveries            = %d\n", res.Recoveries)
			fmt.Printf("  Checkpoints committed = %d\n", res.Checkpoints)
		}
		fs := res.Fabric
		if fs.Retries+fs.Timeouts+fs.Injected.Dropped+fs.Injected.Delayed+
			fs.Injected.Duplicated+fs.Injected.Reordered > 0 {
			fmt.Printf("  Fabric: %d retries, %d timeouts, %d resends served, %d dups filtered\n",
				fs.Retries, fs.Timeouts, fs.ResendsServed, fs.DuplicatesDropped)
			fmt.Printf("  Injected: %d dropped, %d delayed, %d duplicated, %d reordered\n",
				fs.Injected.Dropped, fs.Injected.Delayed,
				fs.Injected.Duplicated, fs.Injected.Reordered)
		}
		fmt.Printf("  %-6s %12s %10s %10s %8s %8s\n",
			"rank", "step time", "comm wait", "sent", "retries", "timeouts")
		for _, rs := range res.Ranks {
			fmt.Printf("  %-6d %12v %10v %10d %8d %8d\n",
				rs.Rank, rs.StepTime.Round(time.Microsecond),
				rs.Comm.Wait.Round(time.Microsecond),
				rs.Comm.Sent, rs.Comm.Retries, rs.Comm.Timeouts)
		}
	}
	if prof != nil && !f.quiet {
		printDistPhases(prof, f.ranks)
	}
	writeFleetArtifacts(f, res.Fleet)
	fmt.Println("size,ranks,schedule,iterations,runtime,origin_energy,recoveries")
	fmt.Printf("%d,%d,%s,%d,%.6f,%.6e,%d\n",
		f.size, f.ranks, sched, res.Iterations,
		res.Elapsed.Seconds(), res.OriginEnergy, res.Recoveries)
}

// traceOn reports whether the distributed run should record traces: any
// trace or fleet output file, or a live metrics endpoint (the
// attribution phases serve there).
func (f distFlags) traceOn() bool {
	return f.trace != "" || f.fleetOut != "" || f.metrics != ""
}

// printDistPhases renders the step-time attribution table: the
// compute / ghost-wait / allreduce-wait / steal-idle split, one profiler
// shard per rank.
func printDistPhases(prof *perf.Profiler, ranks int) {
	snap := prof.Snapshot()
	fmt.Printf("\nStep-time attribution (%d ranks):\n", ranks)
	if err := snap.Table().Write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "phase table: %v\n", err)
	}
}

// writeFleetArtifacts renders the traced run's outputs from the gathered
// fleet snapshot: the stall report, the raw snapshot JSON (the
// luleshbench -stall-report input), and the merged Chrome trace with one
// process row per rank and flow arrows on cross-rank sends.
func writeFleetArtifacts(f distFlags, fleet *perf.FleetSnapshot) {
	if fleet == nil {
		return
	}
	if !f.quiet {
		fmt.Println()
		perf.BuildStallReport(fleet).WriteText(os.Stdout)
	}
	if f.fleetOut != "" {
		fo, err := os.Create(f.fleetOut)
		if err == nil {
			err = fleet.WriteJSON(fo)
			if cerr := fo.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet-out: %v\n", err)
			os.Exit(1)
		}
		if !f.quiet {
			fmt.Printf("wrote fleet snapshot to %s\n", f.fleetOut)
		}
	}
	if f.trace != "" {
		rec, st := fleet.Merge()
		tf, err := os.Create(f.trace)
		if err == nil {
			err = rec.WriteChromeTrace(tf)
			if cerr := tf.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if !f.quiet {
			fmt.Printf("wrote merged trace to %s (%d flow arrows, %d unmatched sends, %d unmatched recvs, %d dead ranks)\n",
				f.trace, st.Flows, st.UnmatchedSends, st.UnmatchedRecvs, st.DeadRanks)
		}
	}
}
