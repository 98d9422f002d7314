// Package dist implements the paper's future-work experiment: multi-domain
// LULESH across simulated ranks, comparing a synchronous MPI-style
// exchange (compute everything, then block on neighbour data at each phase
// boundary) against an asynchronous exchange that overlaps communication
// with computation (boundary data is computed and sent first, interior
// work proceeds while messages are in flight) — the advantage the paper
// anticipates from "the asynchronous mechanisms of HPX instead of the
// mostly synchronous data exchange mechanisms of MPI".
//
// The global problem is an Nx × Ny × (Ranks·NzPerRank) box decomposed into
// slabs along zeta, one rank per slab, mirroring LULESH 2.0's domain
// decomposition restricted to one dimension. Each rank runs the identical
// kernels from internal/kernels; the per-iteration protocol exchanges
//
//   - boundary-plane nodal forces (summed on both owners, LULESH's
//     CommSBN),
//   - boundary-plane monotonic-Q velocity gradients into ghost element
//     slots (LULESH's CommMonoQ),
//   - the global minima of the Courant and hydro time constraints
//     (the dt allreduce).
//
// The synchronous and asynchronous schedules execute bitwise-identical
// arithmetic — only the overlap differs — which the tests assert.
//
// # Fault tolerance
//
// A run with Faults, ExchangeDeadline or CheckpointEvery set executes on a
// fault-tolerant fabric (comm.NewClusterOptions): every exchange runs
// under deadline/retry/backoff semantics, so dropped or delayed boundary
// planes and dt contributions are re-requested instead of deadlocking, and
// coordinated checkpoints every CheckpointEvery cycles let Run restart the
// whole cluster from the last committed epoch when a rank is lost (an
// injected crash, or a peer declared dead by exchange deadline). Restart
// is exact: the recovered run is bitwise-identical to an unfaulted run of
// the same configuration, which the tests assert. See DISTRIBUTED.md.
package dist

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lulesh/internal/checkpoint"
	"lulesh/internal/comm"
	"lulesh/internal/core"
	"lulesh/internal/domain"
	"lulesh/internal/omp"
	"lulesh/internal/perf"
)

// Config describes a multi-domain run.
type Config struct {
	// Nx, Ny are the per-rank (and global) lateral element counts;
	// NzPerRank is each slab's height. Ranks stacks that many slabs.
	Nx, Ny, NzPerRank int
	Ranks             int

	NumReg  int
	Balance int
	Cost    int

	// Scenario selects the problem setup each rank builds through the
	// scenario registry (zero value = sedov). Restores reject epoch
	// blobs whose recorded scenario tag disagrees with this.
	Scenario domain.ScenarioSpec

	// Async selects the overlapped exchange schedule: boundary planes are
	// computed and posted first, interior work overlaps the in-flight
	// exchange, and each receive is joined only in front of the work that
	// depends on remote data (see rank.step).
	Async bool

	// TreeReduce routes the dt allreduce over a binomial tree
	// (comm.AllReduceMinTree) instead of the linear gather to rank 0:
	// the root handles O(log n) messages per step instead of O(n), and
	// the critical path is 2·⌈log2 n⌉ hops. Bitwise identical — min is
	// exact, so the fold order cannot change the value.
	TreeReduce bool

	// ThreadsPerRank enables hybrid "MPI+X" execution: each rank
	// parallelizes its loops over a fork-join team of this size
	// (<= 1 = serial per rank, the MPI-everywhere model). Results are
	// bitwise independent of this setting.
	ThreadsPerRank int

	// Latency is the simulated one-way link latency of the fabric
	// (0 = instant delivery). With a nonzero latency the synchronous
	// schedule pays it as blocked time at every phase boundary while the
	// overlapped schedule computes through it.
	Latency time.Duration

	// MaxIterations caps the cycle count (0 = run to stop time).
	MaxIterations int

	// Faults injects deterministic message/rank failures (nil = none).
	// Any active plan switches the fabric into fault-tolerant mode.
	Faults *comm.FaultPlan

	// ExchangeDeadline bounds each wait for an expected message before a
	// resend request is issued (0 = comm.DefaultExchangeDeadline when the
	// fault-tolerant fabric is active). Setting it without Faults still
	// enables the fault-tolerant fabric — useful as pure failure
	// detection.
	ExchangeDeadline time.Duration

	// RetryLimit is the resend-request budget per exchange before a peer
	// is declared dead (0 = comm.DefaultRetryLimit).
	RetryLimit int

	// CheckpointEvery takes a coordinated checkpoint of all ranks every
	// that many cycles (0 = none). Requires no fabric support; restart
	// uses the last epoch for which every rank committed a blob.
	CheckpointEvery int

	// MaxRestarts bounds how many times Run restarts the cluster after a
	// recoverable failure before giving up.
	MaxRestarts int

	// Monitor, when non-nil, receives live fabric references and
	// fault-tolerance counters for the -metrics-addr endpoint.
	Monitor *Monitor

	// Trace enables distributed tracing: every rank records per-step
	// compute / ghost-wait / allreduce-wait / steal-idle buckets plus
	// paired send/recv message spans, gathered into Result.Fleet (and,
	// on a wire run, shipped to rank 0 over the fabric). Tracing never
	// changes the arithmetic — traced runs stay bitwise identical.
	Trace bool

	// Profiler, when non-nil with Trace set, additionally receives the
	// attribution buckets as perf phases (shard = rank), so they surface
	// on the live Prometheus endpoint and the per-phase exit table.
	Profiler *perf.Profiler
}

// DefaultConfig gives a cubic slab per rank with the reference region
// defaults.
func DefaultConfig(size, ranks int) Config {
	return Config{
		Nx: size, Ny: size, NzPerRank: size, Ranks: ranks,
		NumReg: 11, Balance: 1, Cost: 1,
	}
}

// faultTolerant reports whether the run needs the fault-tolerant fabric.
func (cfg Config) faultTolerant() bool {
	return cfg.Faults.Active() || cfg.ExchangeDeadline > 0
}

// Schedule names the exchange schedule with its overlap toggles: "sync"
// or "async", plus "+tree" with the binomial-tree dt reduction. The CSV
// schedule column, the verifier's output and the wire handshake all use
// this one name.
func (cfg Config) Schedule() string {
	s := "sync"
	if cfg.Async {
		s = "async"
	}
	if cfg.TreeReduce {
		s += "+tree"
	}
	return s
}

// RankStats reports one rank's communication behaviour.
type RankStats struct {
	Rank     int
	Comm     comm.Stats
	StepTime time.Duration // total time inside Step
}

// Result summarizes a completed multi-domain run.
type Result struct {
	Iterations   int
	FinalTime    float64
	OriginEnergy float64 // e(0) of rank 0, the global origin element
	TotalEnergy  float64 // sum of e*volo over all ranks
	Elapsed      time.Duration
	Ranks        []RankStats

	// Fault-tolerance outcomes (zero on a reliable run).
	Recoveries  int   // cluster restarts taken after rank failures
	Checkpoints int64 // coordinated checkpoint epochs committed
	Fabric      comm.FabricStats

	// Fleet holds every rank's trace when Config.Trace was set: the
	// input to the merged Chrome trace and the stall report. On a wire
	// run only rank 0 carries it (the gather lands there).
	Fleet *perf.FleetSnapshot
}

// Run executes the multi-domain problem and returns the global result.
// Each rank runs on its own goroutine with serial in-rank kernels (the
// MPI-everywhere execution model). With fault tolerance configured, Run
// restarts the cluster from the last coordinated checkpoint (or from the
// initial state when none committed yet) after a recoverable rank
// failure, up to MaxRestarts times.
func Run(cfg Config) (Result, error) {
	res, _, err := runToCompletion(cfg)
	return res, err
}

// RunDomains is Run, additionally returning every rank's final domain —
// the ground truth the multi-process verifier compares wire runs
// against, state array by state array.
func RunDomains(cfg Config) (Result, []*domain.Domain, error) {
	res, ranks, err := runToCompletion(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	doms := make([]*domain.Domain, len(ranks))
	for i, rk := range ranks {
		doms[i] = rk.d
	}
	return res, doms, nil
}

func runToCompletion(cfg Config) (Result, []*rank, error) {
	if cfg.Ranks < 1 {
		return Result{}, nil, fmt.Errorf("dist: need at least 1 rank, got %d", cfg.Ranks)
	}
	if err := domain.ValidateScenarioSpec(cfg.Scenario); err != nil {
		return Result{}, nil, fmt.Errorf("dist: %w", err)
	}
	var inj *comm.FaultInjector
	if cfg.Faults.Active() {
		inj = comm.NewFaultInjector(*cfg.Faults, cfg.Ranks)
	}
	var store *ckptStore
	if cfg.CheckpointEvery > 0 {
		store = newCkptStore(cfg.Ranks)
	}
	recoveries := 0
	start := time.Now()
	for {
		res, ranks, errs := runAttempt(cfg, inj, store)
		firstErr, allRecoverable := summarize(errs)
		if firstErr == nil {
			// Elapsed spans the whole run, including failed attempts,
			// failure-detection stalls, and restarts — that is the honest
			// cost of recovery as seen by the caller.
			res.Elapsed = time.Since(start)
			res.Recoveries = recoveries
			if store != nil {
				store.mu.Lock()
				res.Checkpoints = store.committed
				store.mu.Unlock()
			}
			return res, ranks, nil
		}
		if !allRecoverable || recoveries >= cfg.MaxRestarts {
			return Result{}, nil, firstErr
		}
		recoveries++
		if inj != nil {
			inj.Reset()
		}
		if store != nil {
			store.drop()
		}
		if cfg.Monitor != nil {
			cfg.Monitor.recoveries.Add(1)
		}
	}
}

// summarize picks the first rank error and classifies the set: recovery is
// only legal when every failure is a communication-layer one.
func summarize(errs []error) (first error, allRecoverable bool) {
	allRecoverable = true
	for r, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = fmt.Errorf("rank %d: %w", r, err)
		}
		if !recoverable(err) {
			allRecoverable = false
		}
	}
	return first, allRecoverable
}

// runAttempt executes one cluster lifetime: fresh domains, or domains
// restored from the store's last committed checkpoint.
func runAttempt(cfg Config, inj *comm.FaultInjector, store *ckptStore) (Result, []*rank, []error) {
	var cluster *comm.Cluster
	if cfg.faultTolerant() {
		var tr comm.Transport
		if inj != nil {
			tr = inj
		}
		cluster = comm.NewClusterOptions(cfg.Ranks, comm.Options{
			Latency:          cfg.Latency,
			Transport:        tr,
			ExchangeDeadline: cfg.ExchangeDeadline,
			RetryLimit:       cfg.RetryLimit,
		})
	} else {
		cluster = comm.NewClusterLatency(cfg.Ranks, cfg.Latency)
	}
	if cfg.Monitor != nil {
		cfg.Monitor.observe(cluster)
	}

	ranks := make([]*rank, cfg.Ranks)
	errs := make([]error, cfg.Ranks)
	if blobs, _, ok := restorePoint(store); ok {
		for r := 0; r < cfg.Ranks; r++ {
			d, meta, err := checkpoint.LoadRank(bytes.NewReader(blobs[r]))
			if err != nil {
				errs[r] = fmt.Errorf("restore: %w", err)
				return Result{}, nil, errs
			}
			if meta.Rank != r || meta.Ranks != cfg.Ranks {
				errs[r] = fmt.Errorf("restore: blob for rank %d/%d in slot %d",
					meta.Rank, meta.Ranks, r)
				return Result{}, nil, errs
			}
			if err := checkpoint.ExpectScenario(d, cfg.Scenario); err != nil {
				errs[r] = fmt.Errorf("restore rank %d: %w", r, err)
				return Result{}, nil, errs
			}
			ranks[r] = newRankWith(cfg, cluster, r, d)
			ranks[r].restored = true
		}
		if cfg.Monitor != nil {
			cfg.Monitor.restores.Add(1)
		}
	} else {
		for r := 0; r < cfg.Ranks; r++ {
			ranks[r] = newRankWith(cfg, cluster, r, nil)
		}
	}
	// Guard against the typed-nil trap: assigning a nil *ckptStore into
	// the interface field would make the rank's nil check pass.
	if store != nil {
		for _, rk := range ranks {
			rk.store = store
		}
	}
	if cfg.Trace {
		// In-process endpoints record message spans themselves; on a wire
		// run SetTraceSink no-ops and the fabric's reader/writer record
		// instead (never both layers at once).
		for _, rk := range ranks {
			rk.ep.SetTraceSink(rk.tracer)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	var finished atomic.Int64
	for r := 0; r < cfg.Ranks; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = ranks[r].run(cfg.MaxIterations)
			finished.Add(1)
			// Linger: a peer may still be waiting on a resend of this
			// rank's final message (e.g. the last dt broadcast was
			// dropped). Keep answering recovery traffic until every rank
			// has left its protocol loop.
			if cfg.faultTolerant() {
				for finished.Load() < int64(cfg.Ranks) {
					ranks[r].ep.Poll()
					time.Sleep(50 * time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, rk := range ranks {
		rk.close()
	}

	res := Result{
		Iterations: ranks[0].d.Cycle,
		FinalTime:  ranks[0].d.Time,
		Elapsed:    elapsed,
		Fabric:     cluster.FabricStats(),
	}
	res.OriginEnergy = ranks[0].d.E[0]
	for _, rk := range ranks {
		for e := 0; e < rk.d.NumElem(); e++ {
			res.TotalEnergy += rk.d.E[e] * rk.d.Volo[e]
		}
		res.Ranks = append(res.Ranks, RankStats{
			Rank:     rk.id,
			Comm:     rk.ep.StatsSnapshot(),
			StepTime: rk.stepTime,
		})
	}
	if cfg.Trace {
		// One process, one clock: every rank's offset to "rank 0" is zero.
		fleet := perf.NewFleetSnapshot(cfg.Ranks)
		for _, rk := range ranks {
			fleet.AddRank(rk.rankTrace(0, 0))
		}
		res.Fleet = fleet
	}
	return res, ranks, errs
}

// restorePoint fetches the last committed checkpoint, if any.
func restorePoint(store *ckptStore) ([][]byte, int, bool) {
	if store == nil {
		return nil, 0, false
	}
	return store.latest()
}

// Domains builds the per-rank domains of a configuration without running
// them (and without the init-time nodal-mass exchange) — used by tests
// that inspect the decomposition.
func Domains(cfg Config) []*domain.Domain {
	cluster := comm.NewCluster(cfg.Ranks)
	out := make([]*domain.Domain, cfg.Ranks)
	for r := 0; r < cfg.Ranks; r++ {
		out[r] = newRank(cfg, cluster, r).d
	}
	return out
}

// rank is one slab's executor.
type rank struct {
	id     int
	cfg    Config
	boxCfg domain.BoxConfig
	d      *domain.Domain
	ep     *comm.Endpoint

	// Overlap machinery: the dt-reduction topology toggle, the
	// boundary/interior classification of both index spaces (everything
	// is boundary under the synchronous schedule), and the region element
	// lists pre-split along the same seam (so the split region Q visits
	// exactly the original elements).
	treeReduce  bool
	nodePlan    domain.OverlapPlan
	elemPlan    domain.OverlapPlan
	regBoundary [][]int32 // per-region boundary-plane elements
	regInterior [][]int32 // per-region interior elements

	// Fault tolerance: the coordinated-checkpoint sink (in-memory for an
	// in-process cluster, on-disk for a wire run), and whether this
	// rank's domain was restored from it (restored ranks skip the
	// init-time nodal-mass exchange — the checkpoint carries the
	// exchanged masses). epochHook, when set, runs at the top of every
	// cycle; the wire chaos test uses it to kill the process for real.
	store     ckptSink
	restored  bool
	epochHook func(cycle int)

	// kit holds the kernel families' temporaries and error flag; pool is
	// the per-rank fork-join team for hybrid MPI+X execution (nil =
	// serial rank).
	kit  *core.Kit
	pool *omp.Pool

	planeN int // nodes per z-plane
	planeE int // elements per z-plane

	// The boundary exchanges — init-time nodal mass, per-step forces and
	// gradients — and the one frame buffer they all pack into.
	mass, forces, grads halo
	pack                []float64

	stepTime time.Duration

	// Distributed tracing (Config.Trace): tracer collects message spans,
	// buckets the per-step wall attribution, idleNs the team's
	// accumulated steal-idle from instrumented parallel regions. prof,
	// when set, mirrors the buckets into perf phases (worker = rank, so
	// the phase table splits per rank); markStep closes its step window
	// on rank 0. stepMark is the wire driver's per-cycle hook (frame
	// stamping + periodic clock refresh).
	trace    bool
	tracer   *perf.NetTracer
	buckets  []perf.StepBucket
	idleNs   int64
	prof     *perf.Profiler
	markStep bool
	stepMark func(cycle int)
}

func newRank(cfg Config, cluster *comm.Cluster, id int) *rank {
	return newRankWith(cfg, cluster, id, nil)
}

// newRankWith builds a rank around an existing domain (a checkpoint
// restore) or, when d is nil, a fresh slab built by cfg.Scenario. The spec
// must have passed domain.ValidateScenarioSpec (the drivers check it once
// up front), so a build failure here is a programming error.
func newRankWith(cfg Config, cluster *comm.Cluster, id int, d *domain.Domain) *rank {
	bc := domain.BoxConfig{
		Nx: cfg.Nx, Ny: cfg.Ny, Nz: cfg.NzPerRank,
		NumReg: cfg.NumReg, Balance: cfg.Balance, Cost: cfg.Cost,
		CommZMin:      id > 0,
		CommZMax:      id < cfg.Ranks-1,
		DepositEnergy: id == 0,
	}
	spacing := 1.125 / float64(cfg.Nx)
	bc.Spacing = spacing
	bc.ZOffset = spacing * float64(cfg.NzPerRank*id)
	if d == nil {
		var err error
		d, err = domain.BuildScenario(cfg.Scenario, bc)
		if err != nil {
			panic(fmt.Sprintf("dist: unvalidated scenario %q: %v",
				cfg.Scenario.String(), err))
		}
	}

	ne := d.NumElem()
	// A team splits every span into one block per thread, so partition
	// scratch never needs more than a thread's share of the elements.
	team := max(cfg.ThreadsPerRank, 1)
	r := &rank{
		id: id, cfg: cfg, boxCfg: bc, d: d,
		ep:     cluster.Endpoint(id),
		kit:    core.NewKit(d, (ne+team-1)/team),
		planeN: (cfg.Nx + 1) * (cfg.Ny + 1),
		planeE: cfg.Nx * cfg.Ny,
	}
	r.treeReduce = cfg.TreeReduce
	upperN := d.NumNode() - r.planeN
	r.mass = halo{tag: comm.TagNodalMass, fields: [][]float64{d.NodalMass},
		n: r.planeN, sendHi: upperN, recvHi: upperN, sum: true}
	r.forces = halo{tag: comm.TagForces, fields: [][]float64{d.Fx, d.Fy, d.Fz},
		n: r.planeN, sendHi: upperN, recvHi: upperN, sum: true}
	r.grads = halo{tag: comm.TagDelv, fields: [][]float64{d.DelvXi, d.DelvEta, d.DelvZeta},
		n: r.planeE, sendHi: ne - r.planeE,
		recvLo: d.Mesh.GhostZMin, recvHi: d.Mesh.GhostZMax}
	// The force frame (3·planeN) is the widest; the gradient frame is
	// 3·planeE < 3·planeN.
	r.pack = make([]float64, 3*r.planeN)
	// The overlapped schedule splits off the communicated faces; the
	// synchronous one is the same step over plans whose single boundary
	// span is the whole space.
	nn := d.NumNode()
	planeN, planeE, lower, upper := nn, ne, true, true
	if cfg.Async {
		planeN, planeE, lower, upper = r.planeN, r.planeE, bc.CommZMin, bc.CommZMax
	}
	r.nodePlan = domain.NewOverlapPlan(nn, planeN, lower, upper)
	r.elemPlan = domain.NewOverlapPlan(ne, planeE, lower, upper)
	r.regBoundary = make([][]int32, len(d.Regions.ElemList))
	r.regInterior = make([][]int32, len(d.Regions.ElemList))
	for i, l := range d.Regions.ElemList {
		r.regBoundary[i], r.regInterior[i] = r.elemPlan.SplitIndexList(l)
	}
	if cfg.Trace {
		r.trace = true
		r.tracer = perf.NewNetTracer(0)
		r.prof = cfg.Profiler
		r.markStep = cfg.Profiler != nil && id == 0
	}
	if cfg.ThreadsPerRank > 1 {
		r.pool = omp.NewPool(cfg.ThreadsPerRank)
	}
	return r
}

// rangeBlock applies body over [lo, hi), splitting it across the rank's
// team when hybrid execution is enabled. Under tracing each region also
// accumulates the team's steal-idle: the region's wall time minus the
// mean per-thread busy time is the share of the fork-join where threads
// sat without work.
func (r *rank) rangeBlock(lo, hi int, body func(lo, hi int)) {
	if r.pool == nil || hi-lo == 0 {
		if lo < hi {
			body(lo, hi)
		}
		return
	}
	if !r.trace {
		r.pool.ParallelForBlock(hi-lo, func(a, b int) {
			body(lo+a, lo+b)
		})
		return
	}
	var busy atomic.Int64
	t0 := time.Now()
	r.pool.ParallelForBlock(hi-lo, func(a, b int) {
		s := time.Now()
		body(lo+a, lo+b)
		busy.Add(int64(time.Since(s)))
	})
	if idle := int64(time.Since(t0)) - busy.Load()/int64(r.cfg.ThreadsPerRank); idle > 0 {
		r.idleNs += idle
	}
}

// close releases the rank's team.
func (r *rank) close() {
	if r.pool != nil {
		r.pool.Close()
	}
}

func (r *rank) hasLower() bool { return r.id > 0 }
func (r *rank) hasUpper() bool { return r.id < r.cfg.Ranks-1 }

// exchangeNodalMass sums the shared-plane nodal masses across neighbour
// ranks during initialization (both owners end up with the global value).
func (r *rank) exchangeNodalMass() error {
	r.sendHalo(&r.mass)
	return r.recvHalo(&r.mass)
}

// run drives the leapfrog to the stop time (or the iteration cap). All
// ranks make identical time-stepping decisions because the constraint
// minima are globally reduced every cycle.
func (r *rank) run(maxIter int) error {
	d := r.d
	// The init-time mass exchange happens here, where every rank has a
	// live goroutine to answer. A restored rank skips it: the checkpoint
	// already carries the exchanged masses, and the neighbours (also
	// restored) are not sending.
	if !r.restored {
		if err := r.exchangeNodalMass(); err != nil {
			return err
		}
	}
	for d.Time < d.Par.StopTime {
		if maxIter > 0 && d.Cycle >= maxIter {
			break
		}
		core.TimeIncrement(d)
		// The comm epoch is the cycle number; an injected whole-rank crash
		// abandons the protocol right here, before any of the cycle's
		// sends, like a node dying between timesteps.
		if err := r.ep.EnterEpoch(d.Cycle); err != nil {
			return err
		}
		if r.epochHook != nil {
			r.epochHook(d.Cycle)
		}
		var cycleStart time.Time
		var ghost0, red0 time.Duration
		var idle0 int64
		if r.trace {
			r.ep.SetTraceStep(d.Cycle)
			if r.stepMark != nil {
				r.stepMark(d.Cycle)
			}
			ghost0, red0 = r.ep.WaitBuckets()
			idle0 = r.idleNs
			cycleStart = time.Now()
		}
		t0 := time.Now()
		err := r.step()
		r.stepTime += time.Since(t0)

		// A communication failure means a peer is gone: abandon the
		// protocol immediately (the other survivors' deadlines fire too)
		// and let the driver restart from the last checkpoint. A physics
		// error instead travels through the dt reduction so every rank
		// aborts deterministically without deadlocking.
		if err != nil && recoverable(err) {
			return fmt.Errorf("cycle %d: %w", d.Cycle, err)
		}
		code := 0.0
		if err != nil {
			code = -1
		}
		mins, rerr := r.allReduceMin([]float64{d.Dtcourant, d.Dthydro, code})
		if rerr != nil {
			return fmt.Errorf("cycle %d: dt reduction: %w", d.Cycle, rerr)
		}
		if err != nil {
			return fmt.Errorf("cycle %d: %w", d.Cycle, err)
		}
		if mins[2] < 0 {
			return fmt.Errorf("cycle %d: %w", d.Cycle, errPeerAbort)
		}
		d.Dtcourant, d.Dthydro = mins[0], mins[1]
		if r.trace {
			r.recordCycle(d.Cycle, cycleStart, ghost0, red0, idle0)
		}

		if err := r.maybeCheckpoint(); err != nil {
			return err
		}
	}
	return nil
}

// allReduceMin dispatches the dt reduction to the configured topology:
// the linear gather to rank 0, or the binomial tree when TreeReduce is
// set. Both produce bitwise-identical minima.
func (r *rank) allReduceMin(vals []float64) ([]float64, error) {
	if r.treeReduce {
		return r.ep.AllReduceMinTree(vals)
	}
	return r.ep.AllReduceMin(vals)
}

// attributeStep closes one timestep's wall attribution: compute is the
// residual after the measured wait and idle buckets. The measured buckets
// can overshoot the wall they are attributed to (a wait that began before
// the cycle window, timer granularity), which used to be absorbed by
// clamping compute at zero while the waits kept their full values — so
// the buckets no longer summed to wall, a zero-exchange step could show
// pure wait, and the per-phase exit table inherited the inflated rows.
// Now the overshoot is trimmed from the least-trusted bucket first
// (steal-idle, then allreduce-wait, then ghost-wait) so the four buckets
// sum exactly to wall, the invariant the stall report and the Chrome
// attribution lanes rely on.
func attributeStep(wall, ghost, red, idle int64) (compute, g, r, i int64) {
	g, r, i = max64(ghost, 0), max64(red, 0), max64(idle, 0)
	compute = wall - g - r - i
	if compute >= 0 {
		return compute, g, r, i
	}
	over := -compute
	compute = 0
	for _, b := range []*int64{&i, &r, &g} {
		cut := over
		if cut > *b {
			cut = *b
		}
		*b -= cut
		over -= cut
		if over == 0 {
			break
		}
	}
	return compute, g, r, i
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// recordCycle closes one timestep's attribution bucket. Wall spans the
// cycle start through the dt allreduce; ghost/reduce waits are the
// endpoint counters' deltas, steal-idle the instrumented team regions',
// and compute the residual after attributeStep's trimming — so the four
// buckets sum to wall by construction, the invariant the stall report
// checks. Zero-duration buckets are not mirrored into perf phases: a
// recorded-but-empty phase would still count a task and surface a
// spurious ghost-wait/allreduce-wait row in the exit table on runs that
// never exchanged (single rank, zero-step).
func (r *rank) recordCycle(cycle int, start time.Time, ghost0, red0 time.Duration, idle0 int64) {
	wall := int64(time.Since(start))
	ghost1, red1 := r.ep.WaitBuckets()
	compute, ghost, red, idle := attributeStep(
		wall, int64(ghost1-ghost0), int64(red1-red0), r.idleNs-idle0)
	r.buckets = append(r.buckets, perf.StepBucket{
		Step: cycle, StartNs: start.UnixNano(), WallNs: wall,
		ComputeNs: compute, GhostNs: ghost, ReduceNs: red, IdleNs: idle,
	})
	if p := r.prof; p != nil {
		record := func(phase uint32, ns int64) {
			if ns > 0 {
				p.RecordTask(r.id, phase, start, time.Duration(ns), 0, false)
			}
		}
		record(perf.PhaseDistCompute, compute)
		record(perf.PhaseDistGhostWait, ghost)
		record(perf.PhaseDistWaitRed, red)
		record(perf.PhaseDistStealIdle, idle)
		if r.markStep {
			p.MarkStep(cycle)
		}
	}
}

// rankTrace assembles this rank's complete trace contribution — buckets
// plus drained message spans — stamped with its clock relation to rank 0
// (zero for in-process clusters, which share one clock).
func (r *rank) rankTrace(offsetNs, rttNs int64) perf.RankTrace {
	rt := perf.RankTrace{
		Rank: r.id, Ranks: r.cfg.Ranks,
		OffsetNs: offsetNs, RTTNs: rttNs,
		Steps: r.buckets,
	}
	if r.tracer != nil {
		r.tracer.Drain(&rt)
	}
	return rt
}

// newCommCluster is a test seam for building a fabric of the right size.
func newCommCluster(n int) *comm.Cluster { return comm.NewCluster(n) }
