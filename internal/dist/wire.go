package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lulesh/internal/checkpoint"
	"lulesh/internal/comm"
	"lulesh/internal/domain"
	"lulesh/internal/perf"
	"lulesh/internal/wire"
)

// Multi-process execution: one rank per OS process over the TCP fabric
// of internal/wire. RunWire is the per-process counterpart of Run — the
// same rank code, the same exchange protocol, the same recovery
// classification — with the restart loop lifted out into wire.Launch
// (the whole fabric relaunches together, every process restoring from
// the last checkpoint epoch committed on disk by all ranks).

// WireOptions carries the per-process knobs of a multi-process run.
type WireOptions struct {
	// Rank is this process's rank in the fabric of Config.Ranks.
	Rank int

	// Rendezvous is rank 0's bootstrap address.
	Rendezvous string

	// Cookie is the run's shared handshake secret.
	Cookie string

	// CheckpointDir, with Config.CheckpointEvery, makes coordinated
	// checkpoints durable across process boundaries: each rank writes
	// ckpt-e<epoch>-r<rank>.lulcp atomically (tmp + rename), and a
	// relaunched fabric restores from the newest epoch for which every
	// rank's blob exists and passes its CRC.
	CheckpointDir string

	// FinalStateFile, when set, receives this rank's final domain as a
	// rank-checkpoint blob — the artifact luleshverify -net compares
	// bitwise against an in-process run.
	FinalStateFile string

	// AttemptsTaken counts fabric relaunches (0 = first attempt). A
	// positive value disables one-shot failure plans (Faults.CrashStep,
	// KillAtStep): the crash already happened on a previous attempt, and
	// replaying it would crash every recovery too.
	AttemptsTaken int

	// KillAtStep > 0 makes this process SIGKILL itself at that cycle —
	// real process death for the chaos lane, as opposed to the modeled
	// crash of Faults.CrashStep.
	KillAtStep int

	Heartbeat   time.Duration // wire keepalive interval
	PeerTimeout time.Duration // wire silence budget
}

// RunWire executes this process's single rank of a multi-process run and
// returns its local view of the result (Result.Ranks holds one entry;
// TotalEnergy and OriginEnergy are globally gathered on rank 0 only).
// A recoverable failure — a lost peer, an exchange timeout — comes back
// still classified, so the caller can exit wire.ExitRecoverable and let
// the launcher restart the fabric from the last committed checkpoint.
func RunWire(cfg Config, w WireOptions) (Result, error) {
	if cfg.Ranks < 1 {
		return Result{}, fmt.Errorf("dist: need at least 1 rank, got %d", cfg.Ranks)
	}
	if w.Rank < 0 || w.Rank >= cfg.Ranks {
		return Result{}, fmt.Errorf("dist: wire rank %d out of [0,%d)", w.Rank, cfg.Ranks)
	}
	if err := domain.ValidateScenarioSpec(cfg.Scenario); err != nil {
		return Result{}, fmt.Errorf("dist: %w", err)
	}

	// One-shot fault plans are consumed by the attempt that took them:
	// a relaunched fabric runs them disabled, or recovery would loop.
	faults := cfg.Faults
	if w.AttemptsTaken > 0 && faults != nil && faults.CrashStep > 0 {
		fp := *faults
		fp.CrashStep = 0
		faults = &fp
	}
	killAt := w.KillAtStep
	if w.AttemptsTaken > 0 {
		killAt = 0
	}
	var tr comm.Transport
	if faults.Active() {
		// Every process builds the same seeded injector; the per-pair
		// PRNG streams depend only on (seed, pair), so the distributed
		// fault schedule matches the in-process one exactly.
		tr = comm.NewFaultInjector(*faults, cfg.Ranks)
	}
	if cfg.Latency > 0 {
		// The in-process fabric honours Config.Latency natively; over the
		// wire the delay transport stamps it into each frame's header and
		// the receiver sleeps the residual, so both fabrics pay the same
		// deterministic one-way link latency.
		tr = comm.NewDelay(cfg.Latency, tr)
	}

	// The schedule name participates in the wire handshake: every
	// overlap toggle must match across the fabric, or a mixed run would
	// deadlock on a mismatched reduction topology — refusing at Join
	// turns that into an immediate geometry error.
	fab, err := wire.Join(wire.Config{
		Rank:       w.Rank,
		Size:       cfg.Ranks,
		Rendezvous: w.Rendezvous,
		Cookie:     w.Cookie,
		Geometry: wire.Geometry{
			Size:       cfg.Nx,
			Iterations: cfg.MaxIterations,
			Schedule:   cfg.Schedule(),
		},
		Heartbeat:   w.Heartbeat,
		PeerTimeout: w.PeerTimeout,
	})
	if err != nil {
		return Result{}, err
	}
	// On every exit path the fabric closes; a failing rank thereby sends
	// FIN/RST to its peers, which detect the loss faster than any
	// deadline would.
	defer fab.Close()

	// Wire runs record message spans at the wire layer — the fabric's
	// writer/reader goroutines, where the header clock lives — so the
	// endpoint-layer sink stays disconnected (SetTraceSink no-ops on a
	// remote cluster). Attach before Cluster starts those goroutines.
	var tracer *perf.NetTracer
	if cfg.Trace {
		tracer = perf.NewNetTracer(0)
		fab.SetTracer(tracer)
	}

	cluster := fab.Cluster(comm.Options{
		Transport:        tr,
		ExchangeDeadline: cfg.ExchangeDeadline,
		RetryLimit:       cfg.RetryLimit,
	})
	if cfg.Monitor != nil {
		cfg.Monitor.observe(cluster)
		cfg.Monitor.AddSource(fab.Gauges)
	}

	var store *fileStore
	var d *domain.Domain
	restored := false
	if w.CheckpointDir != "" && cfg.CheckpointEvery > 0 {
		if err := os.MkdirAll(w.CheckpointDir, 0o755); err != nil {
			return Result{}, fmt.Errorf("dist: checkpoint dir: %w", err)
		}
		store = &fileStore{dir: w.CheckpointDir, ranks: cfg.Ranks}
		epoch, ok, err := store.latestCommitted()
		if err != nil {
			return Result{}, err
		}
		if ok {
			blob, err := store.load(epoch, w.Rank)
			if err != nil {
				return Result{}, err
			}
			dd, meta, err := checkpoint.LoadRank(bytes.NewReader(blob))
			if err != nil {
				return Result{}, fmt.Errorf("dist: restore epoch %d: %w", epoch, err)
			}
			if meta.Rank != w.Rank || meta.Ranks != cfg.Ranks {
				return Result{}, fmt.Errorf("dist: restore epoch %d: blob is rank %d/%d, want %d/%d",
					epoch, meta.Rank, meta.Ranks, w.Rank, cfg.Ranks)
			}
			if err := checkpoint.ExpectScenario(dd, cfg.Scenario); err != nil {
				return Result{}, fmt.Errorf("dist: restore epoch %d: %w", epoch, err)
			}
			d = dd
			restored = true
			if cfg.Monitor != nil {
				cfg.Monitor.restores.Add(1)
			}
		}
	}

	rk := newRankWith(cfg, cluster, w.Rank, d)
	defer rk.close()
	rk.restored = restored
	if tracer != nil {
		rk.tracer = tracer
		// Every wire process owns its profiler outright, so each one
		// closes its own step windows (in-process, rank 0 does it for the
		// shared profiler).
		rk.markStep = cfg.Profiler != nil
		rk.stepMark = func(cycle int) {
			fab.SetStep(cycle)
			// Refresh the clock-offset estimate as the run progresses;
			// the min-RTT filter keeps the best sample.
			if cycle%wireClockResync == 0 {
				fab.SyncClock(1)
			}
		}
	}
	if store != nil {
		rk.store = store
	}
	if killAt > 0 {
		rk.epochHook = func(cycle int) {
			if cycle >= killAt {
				// Real process death: SIGKILL leaves no deferred close, no
				// flush, no goodbye — exactly what the failure detector and
				// the launcher's restart path must handle.
				p, _ := os.FindProcess(os.Getpid())
				p.Kill()
				time.Sleep(10 * time.Second) // never outrun our own kill
			}
		}
	}

	start := time.Now()
	if err := rk.run(cfg.MaxIterations); err != nil {
		return Result{}, fmt.Errorf("rank %d: %w", w.Rank, err)
	}
	elapsed := time.Since(start)

	// Global energy: a rank-ascending gather onto rank 0, the same
	// deterministic fold order the in-process Result uses.
	localE := 0.0
	for e := 0; e < rk.d.NumElem(); e++ {
		localE += rk.d.E[e] * rk.d.Volo[e]
	}
	total := localE
	if cfg.Ranks > 1 {
		if w.Rank == 0 {
			for r := 1; r < cfg.Ranks; r++ {
				theirs, err := rk.ep.RecvDeadline(r, comm.TagReduce)
				if err != nil {
					return Result{}, fmt.Errorf("rank 0: energy gather: %w", err)
				}
				total += theirs[0]
			}
		} else {
			rk.ep.Send(0, comm.TagReduce, []float64{localE})
		}
	}

	if w.FinalStateFile != "" {
		if err := writeFinalState(w.FinalStateFile, rk); err != nil {
			return Result{}, err
		}
	}

	// Trace gather: before Goodbye (the resend service must stay live),
	// after the energy gather (no run traffic left to perturb). Workers
	// ship their RankTrace to rank 0 as a JSON blob bit-cast onto the
	// ordinary float64 data path; a rank that dies here stays marked Dead
	// in the fleet snapshot rather than failing the run.
	var fleet *perf.FleetSnapshot
	if cfg.Trace {
		off, rtt, _ := fab.RootOffset()
		rt := rk.rankTrace(int64(off), int64(rtt))
		if w.Rank == 0 {
			fleet = perf.NewFleetSnapshot(cfg.Ranks)
			fleet.AddRank(rt)
			for r := 1; r < cfg.Ranks; r++ {
				blob, err := rk.ep.RecvDeadline(r, comm.TagTrace)
				if err != nil {
					continue
				}
				raw, ok := perf.DecodeBlob(blob)
				if !ok {
					continue
				}
				var prt perf.RankTrace
				if json.Unmarshal(raw, &prt) != nil {
					continue
				}
				fleet.AddRank(prt)
			}
		} else {
			if raw, err := json.Marshal(rt); err == nil {
				rk.ep.Send(0, comm.TagTrace, perf.EncodeBlob(raw))
			}
		}
	}

	// Orderly exit: announce the end of run and keep servicing resend
	// requests until every peer has said goodbye too (or the grace runs
	// out) — a rank that finished first must not strand a peer still
	// recovering an injected loss of this rank's final message.
	fab.Goodbye()
	fab.Linger(rk.ep, lingerGrace())

	res := Result{
		Iterations:  rk.d.Cycle,
		FinalTime:   rk.d.Time,
		TotalEnergy: total,
		Elapsed:     elapsed,
		Recoveries:  w.AttemptsTaken,
		Fabric:      cluster.FabricStats(),
		Ranks: []RankStats{{
			Rank:     rk.id,
			Comm:     rk.ep.StatsSnapshot(),
			StepTime: rk.stepTime,
		}},
	}
	if w.Rank == 0 {
		res.OriginEnergy = rk.d.E[0]
		res.Fleet = fleet
	}
	if store != nil {
		res.Checkpoints = store.filed
	}
	return res, nil
}

// wireClockResync is the step period of the in-run clock-offset refresh
// (a single ping to rank 0; the min-RTT sample wins).
const wireClockResync = 64

// lingerGrace bounds the post-run resend-service window: long enough for
// a peer to walk its full retry backoff against us, short enough not to
// stall a clean shutdown noticeably.
func lingerGrace() time.Duration {
	const floor = 500 * time.Millisecond
	return max(floor, 2*comm.DefaultExchangeDeadline)
}

// writeFinalState saves the rank's final domain as a rank-checkpoint
// blob via tmp + rename, so the verifier never reads a torn file.
func writeFinalState(path string, rk *rank) error {
	var buf bytes.Buffer
	meta := checkpoint.RankMeta{Rank: rk.id, Ranks: rk.cfg.Ranks, Epoch: rk.d.Cycle}
	if err := checkpoint.SaveRank(&buf, rk.d, rk.boxCfg, meta); err != nil {
		return fmt.Errorf("dist: final state: %w", err)
	}
	return atomicWrite(path, buf.Bytes())
}

func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// fileStore is the on-disk ckptSink of a multi-process run: one blob per
// (epoch, rank) under a shared directory. Atomic rename makes a blob
// all-or-nothing, and "committed" means every rank's blob for the epoch
// exists and passes checkpoint.Verify — a rank that died mid-epoch
// leaves that epoch unusable, never half-restored.
type fileStore struct {
	dir   string
	ranks int
	filed int64 // epochs this rank has written (local count)
}

func ckptFile(epoch, rank int) string {
	return fmt.Sprintf("ckpt-e%08d-r%04d.lulcp", epoch, rank)
}

func (s *fileStore) put(epoch, rank int, blob []byte) error {
	if err := atomicWrite(filepath.Join(s.dir, ckptFile(epoch, rank)), blob); err != nil {
		return fmt.Errorf("dist: checkpoint write: %w", err)
	}
	s.filed++
	return nil
}

func (s *fileStore) load(epoch, rank int) ([]byte, error) {
	blob, err := os.ReadFile(filepath.Join(s.dir, ckptFile(epoch, rank)))
	if err != nil {
		return nil, fmt.Errorf("dist: checkpoint read: %w", err)
	}
	return blob, nil
}

// latestCommitted scans the directory for the newest epoch with a valid
// blob from every rank. All processes of a relaunched fabric scan the
// same quiesced directory (their predecessors are dead before the
// launcher forks), so they agree on the restore point without talking.
func (s *fileStore) latestCommitted() (epoch int, ok bool, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, false, fmt.Errorf("dist: checkpoint scan: %w", err)
	}
	present := make(map[int]int) // epoch -> ranks seen
	for _, e := range entries {
		var ep, r int
		if n, _ := fmt.Sscanf(e.Name(), "ckpt-e%08d-r%04d.lulcp", &ep, &r); n != 2 {
			continue
		}
		if r >= 0 && r < s.ranks {
			present[ep]++
		}
	}
	epochs := make([]int, 0, len(present))
	for ep, n := range present {
		if n == s.ranks {
			epochs = append(epochs, ep)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(epochs)))
	for _, ep := range epochs {
		if s.epochValid(ep) {
			return ep, true, nil
		}
	}
	return 0, false, nil
}

// epochValid checks every rank's blob for the epoch against its CRC.
func (s *fileStore) epochValid(epoch int) bool {
	for r := 0; r < s.ranks; r++ {
		f, err := os.Open(filepath.Join(s.dir, ckptFile(epoch, r)))
		if err != nil {
			return false
		}
		err = checkpoint.Verify(f)
		f.Close()
		if err != nil {
			return false
		}
	}
	return true
}
