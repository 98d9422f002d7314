// Package amt implements an asynchronous many-task (AMT) runtime in the
// spirit of the HPX C++ framework: lightweight tasks scheduled onto a fixed
// pool of worker goroutines (one per "execution thread"), futures with
// continuations, when_all-style combinators, parallel algorithms, and
// utilization counters.
//
// The runtime reproduces the properties of HPX that the paper
// "Speeding-Up LULESH on HPX" (Kalkhof & Koch, SC 2024) relies on:
//
//   - cheap task creation relative to OS threads,
//   - dynamic load balancing via work stealing between workers,
//   - dependency graphs expressed through futures and continuations rather
//     than barriers,
//   - per-worker busy/idle accounting (HPX's idle-rate performance counter).
//
// A Scheduler owns N workers. Each worker has a private double-ended task
// queue: the owner pushes and pops at the bottom (LIFO, cache friendly),
// thieves steal from the top (FIFO). Tasks submitted from outside the pool
// are distributed round-robin across worker queues. Idle workers first scan
// every queue and then park on a condition variable; producers wake them.
//
// # Job contexts
//
// A Scheduler value is a *front-end* onto a shared worker pool. NewScheduler
// creates a pool plus its root front-end; NewJob derives additional
// front-ends that multiplex independent task graphs — "jobs" — onto the same
// workers. Each front-end carries its own phase tag, its own task sink and
// its own in-flight count, so concurrent jobs keep isolated perf attribution
// and can Quiesce independently, while placement, stealing and park/wake
// stay pool-global. This is the multi-tenant substrate of the luleshd
// control plane: thousands of simulation jobs as task graphs on one pool.
package amt

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Task is the unit of work executed by the scheduler.
type Task func()

// pool is the shared substance of a scheduler: the workers, their deques,
// the park/wake protocol and the activity counters. Every front-end
// (Scheduler) spawning into the pool shares all of it.
type pool struct {
	workers []*worker
	nw      int

	// pending counts queued-but-not-yet-started tasks across all jobs. It
	// is the ticket that keeps the park/wake protocol free of lost
	// wakeups: producers increment it before checking for sleepers, and
	// workers re-check it under the lock before sleeping.
	pending atomic.Int64

	// inflight counts tasks submitted and not yet finished, across all
	// jobs. Close waits for it to drain before stopping the workers.
	inflight flight

	rr atomic.Uint64 // round-robin cursor for external submissions

	// stealHalf switches thieves from one-frame steals to half-deque
	// sweeps (WithStealHalf). Immutable after construction.
	stealHalf bool

	mu     sync.Mutex
	cond   *sync.Cond
	idle   atomic.Int32 // workers parked or about to park
	closed bool

	epoch time.Time // start of the current counter epoch

	observer atomic.Pointer[func(worker int, start time.Time, dur time.Duration)]

	wg sync.WaitGroup
}

// Scheduler is one job's front-end onto a (possibly shared) worker pool.
// It must be created with NewScheduler — which also creates the pool — or
// derived from an existing scheduler with NewJob, and released with Close.
//
// The per-front-end state is exactly what distinguishes concurrent jobs:
// the phase tag stamped onto spawned frames, the task sink their execution
// records flow to, and the in-flight count Quiesce waits on. Everything
// else — placement, stealing, waking, worker counters — is pool-global.
type Scheduler struct {
	p *pool

	// root marks the front-end whose Close tears down the worker pool.
	// Job front-ends (NewJob) only quiesce their own work on Close.
	root bool

	// inflight counts this job's submitted-but-unfinished tasks. Quiesce
	// waits for it to drain; other jobs' tasks never block it.
	inflight flight

	// curPhase is the solver phase tag stamped onto newly spawned frames
	// (SetPhase). Continuation-attach sites capture it at attach time, so
	// frames created later by a tripping barrier still carry the phase
	// that was current when the dependency was declared.
	curPhase atomic.Uint32

	// sink receives one record per executed task (worker, phase, span,
	// queue wait, stolen flag) — the feed for the perf subsystem's
	// per-phase utilization accounting. nil when profiling is off; the
	// spawn path then skips the enqueue timestamp entirely. Per job, so
	// concurrent jobs on one pool keep isolated profilers.
	sink atomic.Pointer[TaskSink]
}

// TaskSink consumes per-task execution records. Implementations must be
// lock-free or near enough: RecordTask runs on the worker after every
// task body. queueWait is zero when the frame was not stamped (sink
// installed mid-flight) and stolen reports whether a steal sweep migrated
// the frame off the deque it was spawned on.
type TaskSink interface {
	RecordTask(worker int, phase uint32, start time.Time, dur, queueWait time.Duration, stolen bool)
}

// SetSink installs or removes (nil) the per-task record consumer for this
// front-end's tasks. Other jobs sharing the pool are unaffected.
func (s *Scheduler) SetSink(sink TaskSink) {
	if sink == nil {
		s.sink.Store(nil)
		return
	}
	s.sink.Store(&sink)
}

// SetPhase publishes the phase tag stamped onto subsequently spawned
// tasks — the solver calls it once per kernel family per timestep. Zero
// is the untagged default. Per front-end: concurrent jobs publish phases
// independently.
func (s *Scheduler) SetPhase(p uint32) { s.curPhase.Store(p) }

// Phase returns the current phase tag.
func (s *Scheduler) Phase() uint32 { return s.curPhase.Load() }

// stamp tags a freshly created frame with its owning job, its phase and,
// when a sink is installed, the enqueue time for queue-wait accounting.
func (s *Scheduler) stamp(f *frame, ph uint32) {
	f.job = s
	f.phase = ph
	if s.sink.Load() != nil {
		f.enq = time.Now()
	}
}

type worker struct {
	id      int
	dq      deque
	rng     *rand.Rand
	busy    atomic.Int64 // nanoseconds spent executing task bodies
	tasks   atomic.Int64 // number of tasks executed
	steal   atomic.Int64 // number of successful steal sweeps
	stolen  atomic.Int64 // frames migrated by those sweeps (> steal with steal-half)
	affHit  atomic.Int64 // hinted frames executed on their preferred worker
	affMiss atomic.Int64 // hinted frames executed elsewhere (migrated by a steal)
	parks   atomic.Int64 // times this worker parked on the condition variable
	parkNs  atomic.Int64 // nanoseconds spent parked (blocked in cond.Wait)

	stealBuf []*frame // owner-private scratch for steal-half sweeps
}

// Option configures a Scheduler.
type Option func(*config)

type config struct {
	numWorkers int
	stealHalf  bool
	observer   func(worker int, start time.Time, dur time.Duration)
}

// WithObserver installs a hook invoked after every executed task with the
// worker id and the task's execution span. Used to feed a trace.Recorder
// (the APEX-style timeline of internal/trace); the hook runs on the worker
// and must be cheap and concurrency-safe. Pool-global: it observes every
// job's tasks.
func WithObserver(fn func(worker int, start time.Time, dur time.Duration)) Option {
	return func(c *config) { c.observer = fn }
}

// SetObserver installs or replaces the task observer at runtime.
func (s *Scheduler) SetObserver(fn func(worker int, start time.Time, dur time.Duration)) {
	if fn == nil {
		s.p.observer.Store(nil)
		return
	}
	s.p.observer.Store(&fn)
}

// WithWorkers sets the number of worker goroutines ("execution threads").
// Values below 1 are treated as 1.
func WithWorkers(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.numWorkers = n
	}
}

// WithStealHalf makes thieves migrate up to half of a victim's queue in one
// sweep instead of a single frame. Task Bench-style studies show steal
// traffic dominating AMT overhead at fine grain; batched steals amortize
// the per-steal synchronization over many frames and let a lagging worker
// catch up in one move. Execution semantics are unchanged — every frame
// still runs exactly once.
func WithStealHalf(enabled bool) Option {
	return func(c *config) { c.stealHalf = enabled }
}

// NewScheduler creates a worker pool and returns its root front-end. The
// default worker count is runtime.GOMAXPROCS(0), mirroring HPX's default of
// one worker OS-thread per core.
func NewScheduler(opts ...Option) *Scheduler {
	cfg := config{numWorkers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&cfg)
	}
	p := &pool{nw: cfg.numWorkers, stealHalf: cfg.stealHalf, epoch: time.Now()}
	if cfg.observer != nil {
		p.observer.Store(&cfg.observer)
	}
	p.cond = sync.NewCond(&p.mu)
	p.workers = make([]*worker, p.nw)
	for i := range p.workers {
		p.workers[i] = &worker{
			id:       i,
			rng:      rand.New(rand.NewSource(int64(i)*0x9E3779B9 + 1)),
			stealBuf: make([]*frame, 0, stealHalfMax),
		}
	}
	s := &Scheduler{p: p, root: true}
	p.wg.Add(p.nw)
	for _, w := range p.workers {
		go p.run(w)
	}
	return s
}

// NewJob derives a fresh front-end onto this scheduler's worker pool: an
// isolated job context. The job shares the workers, deques and steal
// machinery but carries its own phase tag, its own task sink and its own
// in-flight count, so
//
//   - two jobs' perf records never mix (each installs its own profiler),
//   - a job's Quiesce waits only for that job's tasks,
//   - a job's Close never tears down the pool other jobs are running on.
//
// Futures and combinators created through the job front-end spawn their
// continuations through it too, so a whole task graph built from one job
// stays attributed to it. NewJob may be called from any front-end; the
// result is always a sibling on the same pool.
func (s *Scheduler) NewJob() *Scheduler {
	return &Scheduler{p: s.p}
}

// SharesPoolWith reports whether two front-ends multiplex onto the same
// worker pool — true for any scheduler and its NewJob derivatives.
func (s *Scheduler) SharesPoolWith(o *Scheduler) bool { return s.p == o.p }

// Workers reports the number of worker goroutines in the shared pool.
func (s *Scheduler) Workers() int { return s.p.nw }

// Spawn submits a task for asynchronous execution. It never blocks.
// Spawning on a closed scheduler panics.
func (s *Scheduler) Spawn(t Task) { s.spawn(s.curPhase.Load(), noHome, t, nil) }

// SpawnAt submits a task with an affinity hint: the frame is placed
// directly on worker home's deque (reduced modulo the worker count) and
// tagged so the hit/miss counters can report whether it actually ran
// there. A negative home degrades to plain Spawn. The hint biases
// placement only — idle workers still steal the frame, so affinity never
// causes starvation; it just makes the common, balanced case re-touch
// data where it is already cached.
func (s *Scheduler) SpawnAt(home int, t Task) { s.spawn(s.curPhase.Load(), home, t, nil) }

// spawn is the one submission path behind Spawn, SpawnAt and the future
// constructors: ph is the phase tag (captured at attach time for
// continuations), home the affinity hint (negative: round-robin), and
// done, when non-nil, the completion the worker fires after recording
// the task (see pool.run).
func (s *Scheduler) spawn(ph uint32, home int, t Task, done completer) {
	if t == nil {
		panic("amt: Spawn called with nil task")
	}
	f := newFrame()
	f.fn = t
	f.done = done
	var i int
	if home >= 0 {
		i = home % s.p.nw
		f.home = int32(i)
	} else {
		i = int(s.p.rr.Add(1)-1) % s.p.nw
	}
	s.stamp(f, ph)
	s.beginBatch(1)
	s.p.workers[i].dq.pushBottom(f)
	s.p.wake()
}

// beginBatch raises the pending/inflight tickets for n frames about to be
// enqueued with enqueueAt. Counts go first so a worker that observes a
// frame early can never drive the counters negative past a Quiesce. The
// job's own inflight rises alongside the pool's: Quiesce watches the
// former, Close the latter.
func (s *Scheduler) beginBatch(n int) {
	s.inflight.add(int64(n))
	s.p.inflight.add(int64(n))
	s.p.pending.Add(int64(n))
}

// enqueueAt places a pre-counted frame on the queue of worker i, without
// waking anyone; the batch producer wakes once at the end (wakeN).
func (s *Scheduler) enqueueAt(i int, f *frame) {
	s.p.workers[i%s.p.nw].dq.pushBottom(f)
}

func (p *pool) wake() {
	if p.idle.Load() == 0 {
		return
	}
	p.mu.Lock()
	p.cond.Signal()
	p.mu.Unlock()
}

// wakeN wakes up to n parked workers with a single lock acquisition —
// the batch analog of wake.
func (p *pool) wakeN(n int) {
	if p.idle.Load() == 0 {
		return
	}
	p.mu.Lock()
	if n >= p.nw {
		p.cond.Broadcast()
	} else {
		for ; n > 0; n-- {
			p.cond.Signal()
		}
	}
	p.mu.Unlock()
}

// spinRounds bounds the busy-wait of an idle worker before it parks,
// mirroring HPX's brief active wait between task arrivals.
const spinRounds = 1 << 12

// run is the worker loop.
func (p *pool) run(w *worker) {
	defer p.wg.Done()
	for {
		t := p.find(w)
		for spun := 0; t == nil && spun < spinRounds; spun++ {
			runtime.Gosched()
			if p.pending.Load() > 0 {
				t = p.find(w)
			}
		}
		if t == nil {
			if p.park(w) {
				return // closed
			}
			continue
		}
		// Read the tags before run() recycles the frame. job identifies
		// the front-end the frame was spawned through: its sink gets the
		// record, its inflight count the decrement.
		job, home, phase, stolen, enq, done := t.job, t.home, t.phase, t.stolen, t.enq, t.done
		start := time.Now()
		t.run()
		dur := time.Since(start)
		w.busy.Add(int64(dur))
		w.tasks.Add(1)
		if home >= 0 {
			if int(home) == w.id {
				w.affHit.Add(1)
			} else {
				w.affMiss.Add(1)
			}
		}
		if obs := p.observer.Load(); obs != nil {
			(*obs)(w.id, start, dur)
		}
		if sk := job.sink.Load(); sk != nil {
			var qw time.Duration
			if !enq.IsZero() {
				qw = start.Sub(enq)
			}
			(*sk).RecordTask(w.id, phase, start, dur, qw, stolen)
		}
		// Observation before completion: a waiter woken by done (a future
		// set, a latch's last arrival) must find this task already in the
		// counters, the observer, the sink and out of both in-flight
		// counts.
		if done == nil {
			job.inflight.finish()
			p.inflight.finish()
			continue
		}
		job.inflight.beginComplete()
		p.inflight.beginComplete()
		done.complete()
		job.inflight.endComplete()
		p.inflight.endComplete()
	}
}

// find looks for runnable work: own queue first, then steals.
func (p *pool) find(w *worker) *frame {
	if t := w.dq.popBottom(); t != nil {
		p.pending.Add(-1)
		return t
	}
	// Steal: scan victims starting from a random offset so thieves spread.
	off := w.rng.Intn(p.nw)
	for k := 0; k < p.nw; k++ {
		v := p.workers[(off+k)%p.nw]
		if v == w {
			continue
		}
		if p.stealHalf {
			if t := p.stealHalfFrom(w, v); t != nil {
				return t
			}
			continue
		}
		if t := v.dq.popTop(); t != nil {
			p.pending.Add(-1)
			w.steal.Add(1)
			w.stolen.Add(1)
			t.stolen = true
			return t
		}
	}
	return nil
}

// stealHalfFrom migrates up to half of v's queue to w in one sweep. The
// first stolen frame is returned for immediate execution; the rest are
// re-queued on w's own deque. Only the returned frame leaves the pending
// count — the re-queued frames are still queued work, merely relocated, so
// the park/wake ticket protocol is untouched and other thieves can steal
// them onward from w.
func (p *pool) stealHalfFrom(w, v *worker) *frame {
	buf := v.dq.stealHalf(w.stealBuf[:0])
	w.stealBuf = buf
	if len(buf) == 0 {
		return nil
	}
	f := buf[0]
	f.stolen = true
	for i := 1; i < len(buf); i++ {
		// Mark before pushBottom publishes the frame: every frame the
		// sweep migrated counts as stolen, even when the thief's own
		// deque hands it out later.
		buf[i].stolen = true
		w.dq.pushBottom(buf[i])
		buf[i] = nil
	}
	buf[0] = nil
	p.pending.Add(-1)
	w.steal.Add(1)
	w.stolen.Add(int64(len(buf)))
	return f
}

// park blocks until work may be available or the scheduler closes.
// It returns true when the scheduler has been closed. Each blocked stretch
// is accounted on the worker (parks, parkNs) — the measured side of the
// idle-rate counter, splitting "idle because parked" from "idle because
// spinning between steals".
func (p *pool) park(w *worker) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return true
		}
		// Register as idle before re-checking pending: producers bump
		// pending before inspecting the idle count, so one side always
		// sees the other (no lost wakeup).
		p.idle.Add(1)
		if p.pending.Load() > 0 {
			p.idle.Add(-1)
			return false
		}
		t0 := time.Now()
		w.parks.Add(1)
		p.cond.Wait()
		w.parkNs.Add(int64(time.Since(t0)))
		p.idle.Add(-1)
	}
}

// Quiesce blocks until every task submitted *through this front-end*
// (including continuations spawned by running tasks) has finished
// executing. Other jobs sharing the pool neither block it nor are waited
// for. It may be called from outside the pool only.
func (s *Scheduler) Quiesce() {
	for !s.inflight.idle() {
		runtime.Gosched()
	}
}

// Close releases the front-end. On the root scheduler it drains every
// job's outstanding work, shuts the pool down and waits for the workers to
// exit; the pool is unusable afterwards. On a job front-end (NewJob) it
// only quiesces the job's own tasks — the pool and its other jobs keep
// running, which is what lets a finished job release its backend while the
// server keeps serving.
func (s *Scheduler) Close() {
	if !s.root {
		s.Quiesce()
		return
	}
	for !s.p.inflight.idle() {
		runtime.Gosched()
	}
	s.p.mu.Lock()
	s.p.closed = true
	s.p.cond.Broadcast()
	s.p.mu.Unlock()
	s.p.wg.Wait()
}

// Counters is a snapshot of scheduler activity since the last ResetCounters
// (or scheduler creation). It mirrors the HPX idle-rate performance counter
// the paper uses for Figure 11. Counters are pool-global: under
// multi-tenant use they aggregate every job on the pool (per-job
// attribution flows through the per-job task sinks instead).
type Counters struct {
	Workers         int           // number of workers
	Wall            time.Duration // wall time covered by the snapshot
	Busy            time.Duration // summed task-body execution time, all workers
	Tasks           int64         // tasks executed
	Steals          int64         // successful steal sweeps
	Stolen          int64         // frames migrated by steals (> Steals under steal-half)
	AffHits         int64         // affinity-hinted frames executed on their preferred worker
	AffMisses       int64         // affinity-hinted frames executed on some other worker
	Parks           int64         // times a worker parked on the condition variable
	Parked          time.Duration // summed time workers spent parked
	PerWorker       []time.Duration
	PerWorkerTasks  []int64
	PerWorkerSteals []int64
	PerWorkerParked []time.Duration
	Utilizable      time.Duration // Wall * Workers
}

// Utilization is the ratio of productive time to total worker time,
// i.e. the quantity plotted in the paper's Figure 11.
func (c Counters) Utilization() float64 {
	if c.Utilizable <= 0 {
		return 0
	}
	u := float64(c.Busy) / float64(c.Utilizable)
	if u > 1 {
		u = 1
	}
	return u
}

// AffinityHitRate is the fraction of affinity-hinted tasks that executed
// on their preferred worker — the locality analog of the idle-rate
// counter. The second result is false when no hinted task has run.
func (c Counters) AffinityHitRate() (float64, bool) {
	hinted := c.AffHits + c.AffMisses
	if hinted == 0 {
		return 0, false
	}
	return float64(c.AffHits) / float64(hinted), true
}

// FramesPerSteal is the average number of frames one successful steal
// sweep migrated (1 without steal-half).
func (c Counters) FramesPerSteal() float64 {
	if c.Steals == 0 {
		return 0
	}
	return float64(c.Stolen) / float64(c.Steals)
}

// ParkedRate is the fraction of total worker time spent parked — the
// complement of utilization attributable to an empty pool rather than to
// scheduling overhead or spin-waiting.
func (c Counters) ParkedRate() float64 {
	if c.Utilizable <= 0 {
		return 0
	}
	r := float64(c.Parked) / float64(c.Utilizable)
	if r > 1 {
		r = 1
	}
	return r
}

func (c Counters) String() string {
	out := fmt.Sprintf("workers=%d wall=%v busy=%v util=%.1f%% tasks=%d steals=%d stolen=%d",
		c.Workers, c.Wall, c.Busy, 100*c.Utilization(), c.Tasks, c.Steals, c.Stolen)
	if rate, ok := c.AffinityHitRate(); ok {
		out += fmt.Sprintf(" aff=%.1f%%", 100*rate)
	}
	if c.Parks > 0 {
		out += fmt.Sprintf(" parks=%d parked=%.1f%%", c.Parks, 100*c.ParkedRate())
	}
	return out
}

// ResetCounters starts a new measurement epoch for the whole pool.
func (s *Scheduler) ResetCounters() {
	p := s.p
	for _, w := range p.workers {
		w.busy.Store(0)
		w.tasks.Store(0)
		w.steal.Store(0)
		w.stolen.Store(0)
		w.affHit.Store(0)
		w.affMiss.Store(0)
		w.parks.Store(0)
		w.parkNs.Store(0)
	}
	p.mu.Lock()
	p.epoch = time.Now()
	p.mu.Unlock()
}

// CountersSnapshot returns activity accumulated since the last ResetCounters.
func (s *Scheduler) CountersSnapshot() Counters {
	p := s.p
	p.mu.Lock()
	epoch := p.epoch
	p.mu.Unlock()
	c := Counters{Workers: p.nw, Wall: time.Since(epoch)}
	c.PerWorker = make([]time.Duration, p.nw)
	c.PerWorkerTasks = make([]int64, p.nw)
	c.PerWorkerSteals = make([]int64, p.nw)
	c.PerWorkerParked = make([]time.Duration, p.nw)
	for i, w := range p.workers {
		b := time.Duration(w.busy.Load())
		c.PerWorker[i] = b
		c.Busy += b
		c.PerWorkerTasks[i] = w.tasks.Load()
		c.PerWorkerSteals[i] = w.steal.Load()
		c.PerWorkerParked[i] = time.Duration(w.parkNs.Load())
		c.Tasks += c.PerWorkerTasks[i]
		c.Steals += c.PerWorkerSteals[i]
		c.Parked += c.PerWorkerParked[i]
		c.Stolen += w.stolen.Load()
		c.AffHits += w.affHit.Load()
		c.AffMisses += w.affMiss.Load()
		c.Parks += w.parks.Load()
	}
	c.Utilizable = c.Wall * time.Duration(p.nw)
	return c
}

// Inflight reports the number of this front-end's submitted-but-unfinished
// tasks. Intended for tests and debugging assertions.
func (s *Scheduler) Inflight() int64 { return s.inflight.tasks() }

// PoolInflight reports the number of submitted-but-unfinished tasks across
// every job on the pool.
func (s *Scheduler) PoolInflight() int64 { return s.p.inflight.tasks() }

// flight is an in-flight count that stays exact across completions. The
// low 32 bits count tasks submitted and not yet finished; the high 32
// bits count finished tasks whose completion (a future set or a latch
// arrival, which may spawn continuations) is still firing. A worker moves
// a task from the low half to the high half in one atomic add, so the
// task leaves the in-flight count before its completion fires while
// idle — the whole word zero — still cannot be observed between the task
// finishing and the continuations its completion spawns.
type flight struct{ w atomic.Int64 }

const completing = 1 << 32

func (f *flight) add(n int64) { f.w.Add(n) }

// finish retires a task that has no completion.
func (f *flight) finish() { f.w.Add(-1) }

// beginComplete retires a task whose completion is about to fire;
// endComplete marks that completion done.
func (f *flight) beginComplete() { f.w.Add(completing - 1) }
func (f *flight) endComplete()   { f.w.Add(-completing) }

// tasks reports the submitted-but-unfinished task count.
func (f *flight) tasks() int64 { return int64(int32(f.w.Load())) }

// idle reports no task in flight and no completion firing.
func (f *flight) idle() bool { return f.w.Load() == 0 }
