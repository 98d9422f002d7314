package amt

import (
	"sync"
	"time"
)

// frame is the unit of queued work: either a plain task body (fn) or a
// block of a parallel algorithm (body over [lo, hi)), with an optional
// completion. Frames are pooled so the steady-state dispatch path of a
// parallel region performs no per-chunk heap allocation — the analog of
// HPX recycling its task descriptors.
type frame struct {
	fn     Task             // plain task body (Spawn, SpawnAt, futures)
	body   func(lo, hi int) // block body (ForEachBlock, Reduce)
	lo, hi int              // block bounds when body is set

	// done is fired by the executing worker after the body returns and
	// the task has been recorded (see pool.run): the future the task
	// resolves, or the latch of the parallel region it belongs to. nil
	// for fire-and-forget Spawn.
	done completer

	// home is the frame's affinity hint: the worker whose cache is
	// expected to hold the frame's data, or -1 when unhinted. Placement
	// honors the hint; execution does not — any worker may steal the
	// frame, so the hint trades locality without constraining load
	// balance. The executing worker compares home against its own id to
	// maintain the affinity hit/miss counters.
	home int32

	// phase tags the frame with the solver phase that spawned it (see
	// Scheduler.SetPhase). Captured at spawn time — for continuations, at
	// attach time during the sequential dependency-graph construction —
	// because by the time a barrier trips and the frame is created the
	// scheduler may already be publishing the next phase.
	phase uint32

	// stolen marks a frame migrated off its original deque by a steal
	// sweep; the executing worker forwards it to the task sink.
	stolen bool

	// job is the front-end the frame was spawned through. The executing
	// worker decrements that job's in-flight count and routes the task
	// record to that job's sink, keeping concurrent jobs on one pool
	// isolated. Always set by the spawn paths before the frame is
	// published.
	job *Scheduler

	// enq is the enqueue timestamp for queue-wait accounting. Stamped
	// only while a task sink is installed (time.Now is not free on the
	// spawn path); the zero value means "not stamped".
	enq time.Time
}

var framePool = sync.Pool{New: func() any { return &frame{home: noHome} }}

// noHome marks a frame without an affinity hint.
const noHome = -1

// newFrame returns a cleared frame from the pool.
func newFrame() *frame { return framePool.Get().(*frame) }

// completer is what a frame completes once its body has run and the task
// has been recorded: a *Future (the value the body stored becomes
// visible) or a *latch (one arrival).
type completer interface{ complete() }

// run executes the frame's body and recycles the frame, so a completion
// that spawns more work can reuse it immediately. The caller reads the
// frame's tags (including done) first; the frame must not be touched
// after run returns.
func (f *frame) run() {
	if f.fn != nil {
		f.fn()
	} else {
		f.body(f.lo, f.hi)
	}
	f.fn, f.body, f.done, f.home = nil, nil, nil, noHome
	f.phase, f.stolen, f.enq, f.job = 0, false, time.Time{}, nil
	framePool.Put(f)
}

// deque is a mutex-protected double-ended queue of task frames backed by a
// growable ring buffer. The owner worker pushes and pops at the bottom;
// thieves pop from the top. LULESH tasks are coarse (tens of microseconds
// to milliseconds), so a short critical section per operation is negligible
// next to task bodies while staying trivially correct under the race
// detector.
type deque struct {
	mu   sync.Mutex
	buf  []*frame
	head int // index of the oldest element (steal end)
	n    int // number of elements
}

const dequeMinCap = 64

// pushBottom appends f at the bottom (the owner end).
func (d *deque) pushBottom(f *frame) {
	d.mu.Lock()
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)%len(d.buf)] = f
	d.n++
	d.mu.Unlock()
}

// popBottom removes and returns the most recently pushed frame, or nil.
func (d *deque) popBottom() *frame {
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		return nil
	}
	d.n--
	i := (d.head + d.n) % len(d.buf)
	f := d.buf[i]
	d.buf[i] = nil
	d.mu.Unlock()
	return f
}

// popTop removes and returns the oldest frame (the steal end), or nil.
func (d *deque) popTop() *frame {
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		return nil
	}
	f := d.buf[d.head]
	d.buf[d.head] = nil
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	d.mu.Unlock()
	return f
}

// stealHalfMax caps how many frames one steal-half sweep migrates, so a
// single thief cannot drain a very deep victim queue past what it can
// plausibly execute before the next rebalance.
const stealHalfMax = 32

// stealHalf removes up to half of the queued frames (rounded up, capped at
// stealHalfMax) from the top — the steal end — in one critical section and
// appends them to buf in queue order. It returns the extended buf, empty
// when the deque was empty. One lock acquisition migrates the whole batch,
// which is what cuts steal attempts on queues refilled ~45 times per
// timestep.
func (d *deque) stealHalf(buf []*frame) []*frame {
	d.mu.Lock()
	k := (d.n + 1) / 2
	if k > stealHalfMax {
		k = stealHalfMax
	}
	for i := 0; i < k; i++ {
		buf = append(buf, d.buf[d.head])
		d.buf[d.head] = nil
		d.head = (d.head + 1) % len(d.buf)
		d.n--
	}
	d.mu.Unlock()
	return buf
}

// size reports the current number of queued frames.
func (d *deque) size() int {
	d.mu.Lock()
	n := d.n
	d.mu.Unlock()
	return n
}

func (d *deque) grow() {
	newCap := len(d.buf) * 2
	if newCap < dequeMinCap {
		newCap = dequeMinCap
	}
	nb := make([]*frame, newCap)
	for i := 0; i < d.n; i++ {
		nb[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = nb
	d.head = 0
}
