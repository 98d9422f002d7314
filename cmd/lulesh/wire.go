package main

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"lulesh/internal/dist"
	"lulesh/internal/perf"
	"lulesh/internal/wire"
)

// Multi-process mode: -np N makes this binary a launcher that forks N
// copies of itself as rank workers over localhost TCP; the workers are
// invoked with the internal -rank/-rendezvous/-wire-cookie/-wire-attempt
// flags appended to the user's own arguments (later flags win), so every
// physics and fault knob passes through unchanged.

// wireFlags carries the parsed command line into one worker process.
type wireFlags struct {
	distFlags

	rank          int
	rendezvous    string
	cookie        string
	attempt       int
	checkpointDir string
	wireKill      string
	peerTimeout   time.Duration
}

// runLauncher forks the worker fabric and supervises it: a worker that
// exits wire.ExitRecoverable (or dies by signal) triggers a full
// relaunch, every rank restoring from the shared checkpoint directory.
func runLauncher(np, maxRestarts, ckptEvery int, ckptDir string, quiet bool) {
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "launch: %v\n", err)
		os.Exit(1)
	}
	cookie := wire.Cookie()
	dir := ckptDir
	cleanup := false
	if ckptEvery > 0 && dir == "" {
		dir, err = os.MkdirTemp("", "lulesh-wire-ckpt-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "launch: checkpoint dir: %v\n", err)
			os.Exit(1)
		}
		cleanup = true
	}
	base := os.Args[1:]
	spec := wire.LaunchSpec{
		NP:          np,
		Binary:      bin,
		MaxRestarts: maxRestarts,
		Args: func(rank, attempt int, rendezvous string) []string {
			args := append([]string(nil), base...)
			return append(args,
				"-np", "0",
				"-ranks", strconv.Itoa(np),
				"-rank", strconv.Itoa(rank),
				"-rendezvous", rendezvous,
				"-wire-cookie", cookie,
				"-wire-attempt", strconv.Itoa(attempt),
				"-checkpoint-dir", dir,
			)
		},
	}
	if !quiet {
		fmt.Printf("Launching %d worker processes over localhost TCP\n", np)
	}
	if err := wire.Launch(spec); err != nil {
		fmt.Fprintf(os.Stderr, "launch: %v\n", err)
		os.Exit(1)
	}
	if cleanup {
		os.RemoveAll(dir)
	}
}

// runWireWorker executes this process's single rank of a multi-process
// run. Only rank 0 prints the summary and CSV line; a recoverable
// failure exits wire.ExitRecoverable so the launcher relaunches the
// fabric.
func runWireWorker(f wireFlags) {
	cfg := f.config()

	// Tracing: the wire layer records the message spans (it owns the
	// header clock); the per-process profiler carries this rank's
	// attribution buckets onto its metrics endpoint.
	var prof *perf.Profiler
	if f.traceOn() {
		cfg.Trace = true
		prof = perf.NewProfiler(1, 0)
		perf.RegisterDistPhases(prof)
		cfg.Profiler = prof
	}

	if f.metrics != "" {
		mon := &dist.Monitor{}
		cfg.Monitor = mon
		// Per-rank ports: base+rank, so eight workers don't fight over
		// one socket; the rank label keeps the scraped series apart.
		srv, err := perf.StartServer(rankAddr(f.metrics, f.rank), prof, mon.Gauges)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rank %d: metrics: %v\n", f.rank, err)
			os.Exit(1)
		}
		srv.SetLabels(map[string]string{"rank": strconv.Itoa(f.rank)})
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "rank %d: serving metrics on http://%s/metrics\n", f.rank, srv.Addr)
		// Rank 0 additionally merges every rank's endpoint into one
		// fleet-level Prometheus page (needs fixed ports to find peers).
		if f.rank == 0 && f.ranks > 1 {
			if peers := fleetPeers(f.metrics, f.ranks); peers != nil {
				srv.EnableFleet(peers)
				fmt.Fprintf(os.Stderr, "rank 0: fleet metrics on http://%s/fleet/metrics\n", srv.Addr)
			}
		}
	}

	w := dist.WireOptions{
		Rank:          f.rank,
		Rendezvous:    f.rendezvous,
		Cookie:        f.cookie,
		CheckpointDir: f.checkpointDir,
		AttemptsTaken: f.attempt,
		PeerTimeout:   f.peerTimeout,
	}
	if killRank, killStep, ok := parseKill(f.wireKill); ok && killRank == f.rank {
		w.KillAtStep = killStep
	}

	if f.rank == 0 && !f.quiet {
		fmt.Printf("Running %d worker processes x %d^3 over TCP (%s exchange, %d threads/rank)\n",
			f.ranks, f.size, cfg.Schedule(), f.threads)
		if f.latency > 0 {
			fmt.Printf("  injected link latency: %v one-way\n", f.latency)
		}
		if cfg.Faults.Active() {
			fmt.Printf("  fault plan: %q seed %d\n", f.faults, f.faultSeed)
		}
		if f.checkpointEvery > 0 && f.checkpointDir != "" {
			fmt.Printf("  durable checkpoints every %d cycles in %s\n",
				f.checkpointEvery, f.checkpointDir)
		}
	}

	res, err := dist.RunWire(cfg, w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rank %d: %v\n", f.rank, err)
		if dist.Recoverable(err) {
			os.Exit(wire.ExitRecoverable)
		}
		os.Exit(1)
	}

	if f.rank != 0 {
		return
	}
	sched := cfg.Schedule()
	if !f.quiet {
		fmt.Printf("Run completed:\n")
		fmt.Printf("  Iteration count       = %d\n", res.Iterations)
		fmt.Printf("  Final simulation time = %.6e\n", res.FinalTime)
		fmt.Printf("  Final origin energy   = %.6e\n", res.OriginEnergy)
		fmt.Printf("  Total energy          = %.6e\n", res.TotalEnergy)
		fmt.Printf("  Elapsed time          = %v\n", res.Elapsed)
		if res.Recoveries > 0 || res.Checkpoints > 0 {
			fmt.Printf("  Recoveries            = %d\n", res.Recoveries)
			fmt.Printf("  Checkpoints filed     = %d\n", res.Checkpoints)
		}
		rs := res.Ranks[0]
		fmt.Printf("  rank 0: step time %v, comm wait %v, %d sent, %d retries\n",
			rs.StepTime.Round(time.Microsecond), rs.Comm.Wait.Round(time.Microsecond),
			rs.Comm.Sent, rs.Comm.Retries)
	}
	if prof != nil && !f.quiet {
		printDistPhases(prof, 1)
	}
	writeFleetArtifacts(f.distFlags, res.Fleet)
	fmt.Println("size,ranks,schedule,iterations,runtime,origin_energy,recoveries")
	fmt.Printf("%d,%d,%s,%d,%.6f,%.6e,%d\n",
		f.size, f.ranks, sched, res.Iterations,
		res.Elapsed.Seconds(), res.OriginEnergy, res.Recoveries)
}

// rankAddr derives a per-rank listen address from a base one: the port
// shifts by the rank (":8080" → ":8083" on rank 3). Port 0 stays 0 —
// the kernel already hands every rank its own.
func rankAddr(addr string, rank int) string {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port == 0 {
		return addr
	}
	return net.JoinHostPort(host, strconv.Itoa(port+rank))
}

// fleetPeers builds rank 0's scrape list for /fleet/metrics: every other
// rank's per-rank metrics address. Nil when the base address has no
// fixed port — ephemeral ports land each rank somewhere unknowable.
func fleetPeers(base string, ranks int) func() []string {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return nil
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port == 0 {
		return nil
	}
	if host == "" {
		host = "127.0.0.1"
	}
	peers := make([]string, 0, ranks-1)
	for r := 1; r < ranks; r++ {
		peers = append(peers, net.JoinHostPort(host, strconv.Itoa(port+r)))
	}
	return func() []string { return peers }
}

// parseKill parses the -wire-kill chaos spec RANK@STEP.
func parseKill(spec string) (rank, step int, ok bool) {
	if spec == "" {
		return 0, 0, false
	}
	rs, ss, found := strings.Cut(spec, "@")
	if !found {
		fmt.Fprintf(os.Stderr, "wire-kill: want RANK@STEP, got %q\n", spec)
		os.Exit(2)
	}
	r, err1 := strconv.Atoi(rs)
	s, err2 := strconv.Atoi(ss)
	if err1 != nil || err2 != nil || r < 0 || s < 1 {
		fmt.Fprintf(os.Stderr, "wire-kill: want RANK@STEP with step >= 1, got %q\n", spec)
		os.Exit(2)
	}
	return r, s, true
}
