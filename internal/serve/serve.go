// Package serve is the luleshd control plane: a multi-tenant job manager
// that admits simulation jobs over HTTP/JSON, multiplexes them onto ONE
// shared amt worker pool via isolated job contexts (amt.NewJob front-ends),
// streams per-step progress over SSE, and persists completed results as
// perf.BenchRecord JSON.
//
// The three scheduler-shaped pieces are:
//
//   - admission control: a bounded budget of in-flight zones (the memory
//     and compute proxy — a job's zone count is its mesh volume) and a
//     bounded queue; a submission that would exceed either is rejected
//     with 429 + Retry-After rather than queued without bound,
//   - weighted fair queueing (wfq.go): queued jobs dispatch in virtual
//     finish-tag order per tenant, so thousands of small jobs from one
//     tenant cannot starve another tenant's work,
//   - isolated job contexts: each running job gets its own amt front-end
//     (phase tags, task sink, in-flight count) on the shared pool plus its
//     own perf.Profiler, so per-job attribution and cancellation never
//     touch other jobs. Physics is bitwise identical to a serial run of
//     the same job — proven in the package tests.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lulesh/internal/amt"
	"lulesh/internal/comm"
	"lulesh/internal/core"
	"lulesh/internal/dist"
	"lulesh/internal/domain"
	"lulesh/internal/perf"
)

// JobSpec is the client-submitted description of one simulation job —
// the POST /jobs body. The shape productizes the Ramble-style workload
// variables: scenario plus geometry plus schedule toggles.
type JobSpec struct {
	// Scenario is the registry spec, "name" or "name:key=val,...".
	// Empty selects sedov.
	Scenario string `json:"scenario,omitempty"`
	// Size is the cubic mesh edge in elements (default 8).
	Size int `json:"size,omitempty"`
	// Iterations caps the cycle count (default 10).
	Iterations int `json:"iterations,omitempty"`
	// Backend: "task" (default; shared-pool many-task), "serial", or
	// "dist" (in-process multi-rank with overlap/fault options).
	Backend string `json:"backend,omitempty"`

	// Tenant is the fair-queueing principal ("" = "default"): jobs are
	// scheduled to give each tenant a weighted fair share of pool work.
	Tenant string `json:"tenant,omitempty"`
	// Weight scales the tenant share for this job (default 1, max 100).
	Weight float64 `json:"weight,omitempty"`

	// Regions/Balance/Cost override the region model (0 = scenario
	// default), mirroring the CLI flags.
	Regions int `json:"regions,omitempty"`
	Balance int `json:"balance,omitempty"`
	Cost    int `json:"cost,omitempty"`

	// The paper's technique toggles (nil = backend default on). Only
	// meaningful for backend "task". Keys the decoder does not know are
	// ignored, so a body naming a retired toggle is still accepted.
	Chain           *bool `json:"chain,omitempty"`
	Fuse            *bool `json:"fuse,omitempty"`
	ParallelForces  *bool `json:"parallel_forces,omitempty"`
	ParallelRegions *bool `json:"parallel_regions,omitempty"`

	// Distributed options (backend "dist" only).
	Ranks int  `json:"ranks,omitempty"` // default 2
	Async bool `json:"async,omitempty"` // overlapped exchange schedule
	Tree  bool `json:"tree,omitempty"`  // binomial-tree dt allreduce
	// Faults is a comm fault-injection profile ("drop=0.05,dup=0.02,...");
	// validated at admission, applied with FaultSeed.
	Faults    string `json:"faults,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Job is one admitted simulation job.
type Job struct {
	ID   string
	Spec JobSpec

	// Scheduling tags (immutable after admission).
	seq    int64
	tenant string
	weight float64
	cost   float64 // zones × iterations, the fair-share work unit
	zones  int64

	// Fair-queue virtual tags (owned by fairQueue under the manager lock).
	vstart, vfinish float64

	// Mutable state, guarded by the manager lock.
	state     State
	err       string
	created   time.Time
	started   time.Time
	finished  time.Time
	queueWait time.Duration
	cycle     int64 // last completed cycle (updated atomically by Progress)

	cancel atomic.Bool
	hub    *eventHub
	prof   *perf.Profiler // per-job profiler (task backend), for job="<id>" metrics
}

// JobStatus is the externally visible snapshot of a Job (GET /jobs/{id}).
type JobStatus struct {
	ID          string  `json:"id"`
	State       State   `json:"state"`
	Error       string  `json:"error,omitempty"`
	Tenant      string  `json:"tenant"`
	Scenario    string  `json:"scenario"`
	Backend     string  `json:"backend"`
	Size        int     `json:"size"`
	Iterations  int     `json:"iterations"`
	Zones       int64   `json:"zones"`
	Cycle       int64   `json:"cycle"`
	QueueWaitUs float64 `json:"queue_wait_us,omitempty"`
	ElapsedSec  float64 `json:"elapsed_sec,omitempty"`
}

// Config sizes the manager.
type Config struct {
	// Workers is the shared pool's worker count (default GOMAXPROCS).
	Workers int
	// MaxRunning bounds concurrently *executing* jobs (executor
	// goroutines; default 4× workers — served jobs are small, and
	// oversubscribing executors keeps the pool busy while one job is in
	// its serial between-cycle section).
	MaxRunning int
	// MaxQueued bounds the admission queue (default 1024).
	MaxQueued int
	// MaxInflightZones bounds the summed zone counts of queued+running
	// jobs — the admission controller's memory/compute budget (default
	// 4M zones). A job bigger than the whole budget is rejected as
	// unsatisfiable (400), not retryable (429).
	MaxInflightZones int64
	// ResultsDir is where completed results persist (default
	// "luleshd-results").
	ResultsDir string
	// EventEvery publishes a progress event each N cycles (default 1).
	EventEvery int
	// EventRing is the per-job SSE replay buffer (default 64).
	EventRing int
	// StealHalf configures the shared pool (default true).
	StealHalf bool
}

func (c *Config) fillDefaults() {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.MaxRunning < 1 {
		c.MaxRunning = 4 * c.Workers
	}
	if c.MaxQueued < 1 {
		c.MaxQueued = 1024
	}
	if c.MaxInflightZones < 1 {
		c.MaxInflightZones = 4 << 20
	}
	if c.ResultsDir == "" {
		c.ResultsDir = "luleshd-results"
	}
	if c.EventEvery < 1 {
		c.EventEvery = 1
	}
	if c.EventRing < 1 {
		c.EventRing = 64
	}
}

// AdmissionError is a structured submission rejection carrying the HTTP
// status the control plane should answer with. Code 429 rejections are
// retryable after RetryAfter; 400 means the spec itself is invalid; 503
// means the server is draining for shutdown.
type AdmissionError struct {
	Code       int
	Reason     string
	RetryAfter time.Duration // nonzero on 429/503
}

func (e *AdmissionError) Error() string { return e.Reason }

// Manager is the multi-tenant job scheduler: one shared amt pool, an
// admission-controlled fair queue in front of it, and a bounded set of
// executor goroutines draining the queue.
type Manager struct {
	cfg   Config
	pool  *amt.Scheduler
	store *Store

	mu          sync.Mutex
	cond        *sync.Cond // signals executors: queue non-empty or closing
	queue       *fairQueue
	jobs        map[string]*Job
	order       []string // admission order, for listings
	seq         int64
	zonesQueued int64 // zones admitted, not yet finished (queued+running)
	running     int
	draining    bool
	closed      bool
	wg          sync.WaitGroup

	// Aggregate counters for the metrics endpoint.
	submitted  atomic.Int64
	rejected   atomic.Int64 // 429s
	completed  atomic.Int64
	failed     atomic.Int64
	cancelled  atomic.Int64
	busyNanos  atomic.Int64 // summed job wall time
	queueNanos atomic.Int64 // summed queue wait
}

// NewManager builds the pool, opens the results store and starts the
// executors.
func NewManager(cfg Config) (*Manager, error) {
	cfg.fillDefaults()
	store, err := OpenStore(cfg.ResultsDir)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg: cfg,
		pool: amt.NewScheduler(amt.WithWorkers(cfg.Workers),
			amt.WithStealHalf(cfg.StealHalf)),
		store: store,
		queue: newFairQueue(),
		jobs:  make(map[string]*Job),
	}
	m.cond = sync.NewCond(&m.mu)
	m.wg.Add(cfg.MaxRunning)
	for i := 0; i < cfg.MaxRunning; i++ {
		go m.executor()
	}
	return m, nil
}

// Pool exposes the shared scheduler (tests; metric hooks).
func (m *Manager) Pool() *amt.Scheduler { return m.pool }

// Store exposes the results store.
func (m *Manager) Store() *Store { return m.store }

// maxServedSize caps a single served job's mesh edge; beyond this the
// zone budget math still works but one job would monopolize the pool for
// far longer than an interactive control plane should allow.
const maxServedSize = 64

// validateSpec normalizes sp and returns its zone count, or a 400-coded
// AdmissionError. Scenario errors pass through the domain package's
// structured types (UnknownScenarioError / UnknownOptionError), so the
// HTTP layer can render the valid choices.
func validateSpec(sp *JobSpec) (int64, error) {
	if sp.Size == 0 {
		sp.Size = 8
	}
	if sp.Iterations == 0 {
		sp.Iterations = 10
	}
	if sp.Backend == "" {
		sp.Backend = "task"
	}
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if sp.Weight == 0 {
		sp.Weight = 1
	}
	bad := func(format string, args ...any) error {
		return &AdmissionError{Code: 400, Reason: fmt.Sprintf(format, args...)}
	}
	if sp.Size < 2 || sp.Size > maxServedSize {
		return 0, bad("size %d outside [2, %d]", sp.Size, maxServedSize)
	}
	if sp.Iterations < 1 || sp.Iterations > 100000 {
		return 0, bad("iterations %d outside [1, 100000]", sp.Iterations)
	}
	if sp.Weight < 0.01 || sp.Weight > 100 {
		return 0, bad("weight %g outside [0.01, 100]", sp.Weight)
	}
	if len(sp.Tenant) > 64 {
		return 0, bad("tenant name longer than 64 bytes")
	}
	spec, err := domain.ParseScenarioSpec(sp.Scenario)
	if err != nil {
		return 0, &AdmissionError{Code: 400, Reason: err.Error()}
	}
	if err := domain.ValidateScenarioSpec(spec); err != nil {
		// Keep the structured scenario error wrapped so errors.As works
		// on the chain while the HTTP layer still gets a 400 code.
		return 0, fmt.Errorf("%w", err)
	}
	switch sp.Backend {
	case "task", "serial":
		if sp.Faults != "" {
			return 0, bad("faults require backend \"dist\", got %q", sp.Backend)
		}
		if sp.Ranks != 0 {
			return 0, bad("ranks require backend \"dist\"")
		}
		return int64(sp.Size) * int64(sp.Size) * int64(sp.Size), nil
	case "dist":
		if sp.Ranks == 0 {
			sp.Ranks = 2
		}
		if sp.Ranks < 2 || sp.Ranks > 16 {
			return 0, bad("ranks %d outside [2, 16]", sp.Ranks)
		}
		if sp.Faults != "" {
			if _, err := comm.ParseFaultPlan(sp.Faults, sp.FaultSeed); err != nil {
				return 0, bad("fault profile: %v", err)
			}
		}
		// Each rank holds a size×size×size slab.
		return int64(sp.Ranks) * int64(sp.Size) * int64(sp.Size) * int64(sp.Size), nil
	default:
		return 0, bad("unknown backend %q (have task, serial, dist)", sp.Backend)
	}
}

// Submit admits a job (or rejects it with an *AdmissionError / structured
// scenario error). On success the job is queued and will run when the
// fair queue schedules it.
func (m *Manager) Submit(sp JobSpec) (*Job, error) {
	zones, err := validateSpec(&sp)
	if err != nil {
		return nil, err
	}
	if zones > m.cfg.MaxInflightZones {
		return nil, &AdmissionError{Code: 400,
			Reason: fmt.Sprintf("job needs %d zones, above the server's whole budget %d — unsatisfiable",
				zones, m.cfg.MaxInflightZones)}
	}

	m.mu.Lock()
	if m.draining || m.closed {
		m.mu.Unlock()
		return nil, &AdmissionError{Code: 503,
			Reason: "server is draining; not accepting new jobs", RetryAfter: 10 * time.Second}
	}
	if m.queue.len() >= m.cfg.MaxQueued {
		m.mu.Unlock()
		m.rejected.Add(1)
		return nil, &AdmissionError{Code: 429,
			Reason:     fmt.Sprintf("admission queue full (%d jobs)", m.cfg.MaxQueued),
			RetryAfter: m.retryEstimateLocked()}
	}
	if m.zonesQueued+zones > m.cfg.MaxInflightZones {
		retry := m.retryEstimateLocked()
		m.mu.Unlock()
		m.rejected.Add(1)
		return nil, &AdmissionError{Code: 429,
			Reason: fmt.Sprintf("in-flight zone budget exhausted (%d of %d zones committed, job needs %d)",
				m.zonesQueued, m.cfg.MaxInflightZones, zones),
			RetryAfter: retry}
	}
	m.seq++
	j := &Job{
		ID:      fmt.Sprintf("job-%06d", m.seq),
		Spec:    sp,
		seq:     m.seq,
		tenant:  sp.Tenant,
		weight:  sp.Weight,
		cost:    float64(zones) * float64(sp.Iterations),
		zones:   zones,
		state:   StateQueued,
		created: time.Now(),
		hub:     newEventHub(m.cfg.EventRing),
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.zonesQueued += zones
	m.queue.push(j)
	m.cond.Signal()
	m.mu.Unlock()

	m.submitted.Add(1)
	j.hub.publish("state", fmt.Sprintf(`{"id":%q,"state":"queued"}`, j.ID))
	return j, nil
}

// retryEstimateLocked guesses a Retry-After from recent service times:
// mean job wall time so far, floored at one second. Called with m.mu held.
func (m *Manager) retryEstimateLocked() time.Duration {
	n := m.completed.Load() + m.failed.Load()
	if n == 0 {
		return time.Second
	}
	mean := time.Duration(m.busyNanos.Load() / n)
	if mean < time.Second {
		return time.Second
	}
	return mean
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	return j, ok
}

// Cancel requests cancellation. Queued jobs cancel as soon as an executor
// pops them; running task/serial jobs stop at the next cycle boundary
// (dist jobs run to completion — their rank loops poll no interrupt). The
// bool reports whether the job exists.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return false
	}
	j.cancel.Store(true)
	return true
}

// Status snapshots a job.
func (m *Manager) Status(j *Job) JobStatus {
	m.mu.Lock()
	st := JobStatus{
		ID:         j.ID,
		State:      j.state,
		Error:      j.err,
		Tenant:     j.tenant,
		Scenario:   j.Spec.Scenario,
		Backend:    j.Spec.Backend,
		Size:       j.Spec.Size,
		Iterations: j.Spec.Iterations,
		Zones:      j.zones,
		Cycle:      atomic.LoadInt64(&j.cycle),
	}
	if st.Scenario == "" {
		st.Scenario = "sedov"
	}
	if !j.started.IsZero() {
		st.QueueWaitUs = float64(j.queueWait.Microseconds())
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.ElapsedSec = end.Sub(j.started).Seconds()
	}
	m.mu.Unlock()
	return st
}

// List snapshots every job in admission order.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.Get(id); ok {
			out = append(out, m.Status(j))
		}
	}
	return out
}

// Draining reports whether the manager has stopped admitting jobs.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// executor is one job-runner goroutine: it pops fair-queue winners and
// runs them to completion on the shared pool.
func (m *Manager) executor() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for m.queue.len() == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed && m.queue.len() == 0 {
			m.mu.Unlock()
			return
		}
		j := m.queue.pop()
		if j.cancel.Load() {
			m.finishLocked(j, StateCancelled, "cancelled while queued")
			m.mu.Unlock()
			m.finishEvents(j, StateCancelled, "cancelled while queued")
			continue
		}
		j.state = StateRunning
		j.started = time.Now()
		j.queueWait = j.started.Sub(j.created)
		m.running++
		m.mu.Unlock()

		m.queueNanos.Add(int64(j.queueWait))
		j.hub.publish("state", fmt.Sprintf(`{"id":%q,"state":"running","queue_wait_us":%d}`,
			j.ID, j.queueWait.Microseconds()))
		rec, err := m.runJob(j)

		// Persist BEFORE the state flips to done: a client that observes
		// state "done" must always be able to fetch the stored record. A
		// persistence failure marks the job failed instead, so clients
		// never chase a result that was not durably recorded.
		var state State
		var msg string
		switch {
		case errors.Is(err, core.ErrInterrupted) || (err == nil && j.cancel.Load()):
			state, msg = StateCancelled, "cancelled"
		case err != nil:
			state, msg = StateFailed, err.Error()
		default:
			if perr := m.store.Put(rec); perr != nil {
				state, msg = StateFailed, "persist: "+perr.Error()
			} else {
				state = StateDone
			}
		}

		m.mu.Lock()
		m.running--
		m.finishLocked(j, state, msg)
		m.mu.Unlock()
		m.finishEvents(j, state, msg)
	}
}

// finishLocked moves j to a terminal state and releases its zone budget.
// Caller holds m.mu.
func (m *Manager) finishLocked(j *Job, st State, msg string) {
	j.state = st
	j.err = msg
	j.finished = time.Now()
	m.zonesQueued -= j.zones
	if !j.started.IsZero() {
		m.busyNanos.Add(int64(j.finished.Sub(j.started)))
	}
	switch st {
	case StateDone:
		m.completed.Add(1)
	case StateFailed:
		m.failed.Add(1)
	case StateCancelled:
		m.cancelled.Add(1)
	}
	// Wake Drain waiters (they wait on the same cond).
	m.cond.Broadcast()
}

// finishEvents publishes the terminal SSE frame and closes the stream.
func (m *Manager) finishEvents(j *Job, st State, msg string) {
	payload := struct {
		ID    string `json:"id"`
		State State  `json:"state"`
		Error string `json:"error,omitempty"`
		Cycle int64  `json:"cycle"`
	}{j.ID, st, msg, atomic.LoadInt64(&j.cycle)}
	data, _ := json.Marshal(payload)
	name := "done"
	if st != StateDone {
		name = string(st) // "failed" / "cancelled"
	}
	j.hub.publish(name, string(data))
	j.hub.close()
}

// runJob executes one admitted job and returns its result record.
func (m *Manager) runJob(j *Job) (perf.BenchRecord, error) {
	if j.Spec.Backend == "dist" {
		return m.runDistJob(j)
	}

	spec, err := domain.ParseScenarioSpec(j.Spec.Scenario)
	if err != nil {
		return perf.BenchRecord{}, err
	}
	cfg := domain.DefaultConfig(j.Spec.Size)
	if j.Spec.Regions > 0 {
		cfg.NumReg = j.Spec.Regions
	}
	if j.Spec.Balance > 0 {
		cfg.Balance = j.Spec.Balance
	}
	if j.Spec.Cost > 0 {
		cfg.Cost = j.Spec.Cost
	}
	d, err := domain.BuildScenarioCube(spec, cfg)
	if err != nil {
		return perf.BenchRecord{}, err
	}

	var b core.Backend
	switch j.Spec.Backend {
	case "serial":
		b = core.NewBackendSerial(d)
	default: // task, on the shared pool through an isolated job context
		opt := core.DefaultOptions(j.Spec.Size, m.cfg.Workers)
		opt.Scheduler = m.pool.NewJob()
		applyToggle := func(dst *bool, src *bool) {
			if src != nil {
				*dst = *src
			}
		}
		applyToggle(&opt.Chain, j.Spec.Chain)
		applyToggle(&opt.Fuse, j.Spec.Fuse)
		applyToggle(&opt.ParallelForces, j.Spec.ParallelForces)
		applyToggle(&opt.ParallelRegions, j.Spec.ParallelRegions)
		bt := core.NewBackendTask(d, opt)
		j.prof = perf.NewProfiler(m.cfg.Workers, 0)
		bt.SetProfiler(j.prof)
		b = bt
	}
	defer b.Close()

	every := m.cfg.EventEvery
	res, err := core.Run(d, b, core.RunConfig{
		MaxIterations: j.Spec.Iterations,
		Interrupt:     func() bool { return j.cancel.Load() },
		Progress: func(cycle int, t, dt float64) {
			atomic.StoreInt64(&j.cycle, int64(cycle))
			if cycle%every != 0 && cycle != j.Spec.Iterations {
				return
			}
			// Progress runs between cycles: no tasks in flight, so the
			// energy read is stable and racefree.
			j.hub.publish("progress", fmt.Sprintf(
				`{"id":%q,"cycle":%d,"time":%g,"dt":%g,"energy":%g}`,
				j.ID, cycle, t, dt, d.E[0]))
		},
	})
	if err != nil {
		return perf.BenchRecord{}, err
	}

	rec := perf.BenchRecord{
		Name:        "serve",
		Scenario:    d.Scenario.String(),
		Backend:     res.Backend,
		Workers:     res.Threads,
		Size:        res.Size,
		Regions:     res.Regions,
		Iterations:  res.Iterations,
		JobID:       j.ID,
		QueueWaitUs: float64(j.queueWait.Microseconds()),
		Counters:    map[string]float64{"origin_energy": res.OriginEnergy},
	}
	rec.SetThroughput(d.NumElem(), res.Iterations, res.Elapsed)
	if j.prof != nil {
		rec.Phases = j.prof.Snapshot().Phases
	}
	return rec, nil
}

// runDistJob executes a multi-rank in-process job. Rank loops carry their
// own schedulers (rank parallelism, not pool tasks), so dist jobs trade
// pool sharing for the overlap/fault features; the admission budget still
// bounds them.
func (m *Manager) runDistJob(j *Job) (perf.BenchRecord, error) {
	spec, err := domain.ParseScenarioSpec(j.Spec.Scenario)
	if err != nil {
		return perf.BenchRecord{}, err
	}
	// Start from dist.DefaultConfig: a zero region model is not a
	// runnable scenario.
	cfg := dist.DefaultConfig(j.Spec.Size, j.Spec.Ranks)
	cfg.Scenario = spec
	cfg.Async = j.Spec.Async
	cfg.TreeReduce = j.Spec.Tree
	cfg.MaxIterations = j.Spec.Iterations
	if j.Spec.Regions > 0 {
		cfg.NumReg = j.Spec.Regions
	}
	if j.Spec.Balance > 0 {
		cfg.Balance = j.Spec.Balance
	}
	if j.Spec.Cost > 0 {
		cfg.Cost = j.Spec.Cost
	}
	if j.Spec.Faults != "" {
		plan, ferr := comm.ParseFaultPlan(j.Spec.Faults, j.Spec.FaultSeed)
		if ferr != nil {
			return perf.BenchRecord{}, ferr
		}
		cfg.Faults = plan
		cfg.CheckpointEvery = 5
		cfg.MaxRestarts = 3
	}
	res, err := dist.Run(cfg)
	if err != nil {
		return perf.BenchRecord{}, err
	}
	atomic.StoreInt64(&j.cycle, int64(res.Iterations))
	rec := perf.BenchRecord{
		Name:        "serve",
		Scenario:    spec.String(),
		Backend:     "dist",
		Workers:     j.Spec.Ranks,
		Size:        j.Spec.Size,
		Iterations:  res.Iterations,
		JobID:       j.ID,
		QueueWaitUs: float64(j.queueWait.Microseconds()),
		Counters: map[string]float64{
			"origin_energy": res.OriginEnergy,
			"total_energy":  res.TotalEnergy,
			"recoveries":    float64(res.Recoveries),
		},
	}
	rec.SetThroughput(int(j.zones), res.Iterations, res.Elapsed)
	return rec, nil
}

// Drain stops admitting jobs (new submissions get 503) and waits up to
// deadline for queued and running jobs to finish. Jobs still unfinished
// at the deadline are cancelled and awaited briefly. The results store is
// flushed before returning — the SIGTERM path of luleshd.
func (m *Manager) Drain(deadline time.Duration) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()

	limit := time.Now().Add(deadline)
	m.waitIdle(limit)

	// Deadline passed with work still in flight: cancel everything and
	// give the executors one more beat to observe it.
	m.mu.Lock()
	for _, j := range m.jobs {
		if j.state == StateQueued || j.state == StateRunning {
			j.cancel.Store(true)
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.waitIdle(time.Now().Add(deadline))

	return m.store.Flush()
}

// waitIdle blocks until no job is queued or running, or the time limit.
func (m *Manager) waitIdle(limit time.Time) {
	for {
		m.mu.Lock()
		idle := m.queue.len() == 0 && m.running == 0
		m.mu.Unlock()
		if idle || time.Now().After(limit) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close shuts the manager down: drains briefly, stops the executors,
// flushes the store and closes the shared pool.
func (m *Manager) Close() error {
	m.mu.Lock()
	m.draining = true
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
	err := m.store.Flush()
	m.pool.Close()
	return err
}

// MetricsExtra is the aggregate-gauge hook for perf.StartServer.
func (m *Manager) MetricsExtra() map[string]float64 {
	m.mu.Lock()
	queued := m.queue.len()
	running := m.running
	zones := m.zonesQueued
	draining := 0.0
	if m.draining {
		draining = 1
	}
	m.mu.Unlock()
	out := map[string]float64{
		"jobs_queued":         float64(queued),
		"jobs_running":        float64(running),
		"jobs_submitted":      float64(m.submitted.Load()),
		"jobs_rejected":       float64(m.rejected.Load()),
		"jobs_completed":      float64(m.completed.Load()),
		"jobs_failed":         float64(m.failed.Load()),
		"jobs_cancelled":      float64(m.cancelled.Load()),
		"zones_inflight":      float64(zones),
		"draining":            draining,
		"results_stored":      float64(m.store.Len()),
		"pool_tasks_inflight": float64(m.pool.PoolInflight()),
	}
	if n := m.completed.Load() + m.failed.Load(); n > 0 {
		out["job_wall_seconds_mean"] = (time.Duration(m.busyNanos.Load() / n)).Seconds()
		out["job_queue_wait_seconds_mean"] = (time.Duration(m.queueNanos.Load() / n)).Seconds()
	}
	return out
}
