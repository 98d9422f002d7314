package amt

import (
	"sync"
	"sync/atomic"
)

// Unit is the value type of futures that carry no payload, analogous to
// hpx::future<void>.
type Unit struct{}

// Void is a future carrying no value.
type Void = Future[Unit]

// Future holds the state and eventual result of an asynchronous operation,
// analogous to hpx::future<T>. A Future becomes ready exactly once.
// Continuations attached with Then / ThenRun execute as new tasks on the
// future's scheduler once it is ready.
type Future[T any] struct {
	s *Scheduler

	mu       sync.Mutex
	done     bool
	val      T
	panicErr *PanicError   // set instead of val by AsyncSafe on panic
	ch       chan struct{} // lazily created for blocking Get
	ready    []func()      // inline callbacks, run once on completion
}

func newFuture[T any](s *Scheduler) *Future[T] {
	return &Future[T]{s: s}
}

// MakeReady returns a future that is already ready with value v.
func MakeReady[T any](s *Scheduler, v T) *Future[T] {
	f := newFuture[T](s)
	f.done = true
	f.val = v
	return f
}

// set completes the future. Calling set twice panics: a future is a
// single-assignment cell.
func (f *Future[T]) set(v T) {
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		panic("amt: future completed twice")
	}
	f.val = v
	f.done = true
	cbs := f.ready
	f.ready = nil
	ch := f.ch
	f.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	for _, cb := range cbs {
		cb()
	}
}

// complete marks the future ready with the value its task body already
// stored in val. The worker calls it only after recording the task (see
// pool.run), so a waiter woken here sees the task in every counter.
func (f *Future[T]) complete() { f.set(f.val) }

// onReady arranges for cb to run inline (on the completing goroutine) once
// the future is ready. It is the low-overhead hook used by combinators;
// user-visible continuations go through Then, which spawns a real task.
func (f *Future[T]) onReady(cb func()) {
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		cb()
		return
	}
	f.ready = append(f.ready, cb)
	f.mu.Unlock()
}

// Ready reports whether the future has completed.
func (f *Future[T]) Ready() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.done
}

// Get blocks until the future is ready and returns its value. Call Get from
// outside the worker pool (e.g. the main goroutine); task bodies should use
// continuations instead, exactly as in HPX. If the task completed
// exceptionally (AsyncSafe captured a panic), Get rethrows the panic on
// the calling goroutine, like an exceptional HPX future.
func (f *Future[T]) Get() T {
	f.mu.Lock()
	if f.done {
		v, pe := f.val, f.panicErr
		f.mu.Unlock()
		if pe != nil {
			panic(pe)
		}
		return v
	}
	if f.ch == nil {
		f.ch = make(chan struct{})
	}
	ch := f.ch
	f.mu.Unlock()
	<-ch
	if f.panicErr != nil {
		panic(f.panicErr)
	}
	return f.val
}

// Scheduler returns the scheduler continuations of this future run on.
func (f *Future[T]) Scheduler() *Scheduler { return f.s }

// Async submits fn for asynchronous execution and returns a future for its
// result, analogous to hpx::async.
func Async[T any](s *Scheduler, fn func() T) *Future[T] {
	f := newFuture[T](s)
	s.spawn(s.curPhase.Load(), noHome, func() { f.val = fn() }, f)
	return f
}

// Run submits a void task and returns a Void future that becomes ready when
// it finishes.
func Run(s *Scheduler, fn func()) *Void { return RunAt(s, noHome, fn) }

// RunAt submits a void task with an affinity hint (SpawnAt): the task is
// placed on worker home's deque so data it re-touches stays in that
// worker's cache. home < 0 degrades to Run.
func RunAt(s *Scheduler, home int, fn func()) *Void {
	f := newFuture[Unit](s)
	s.spawn(s.curPhase.Load(), home, fn, f)
	return f
}

// Then attaches a continuation to f, analogous to hpx::future<T>::then.
// fn runs as a new task once f is ready; the returned future carries fn's
// result.
func Then[T, U any](f *Future[T], fn func(T) U) *Future[U] {
	out := newFuture[U](f.s)
	ph := f.s.curPhase.Load() // attach-time phase, not trip-time
	f.onReady(func() {
		f.s.spawn(ph, noHome, func() { out.val = fn(f.val) }, out)
	})
	return out
}

// ThenRun attaches a void continuation to f.
func ThenRun[T any](f *Future[T], fn func(T)) *Void { return ThenRunAt(f, noHome, fn) }

// ThenRunAt attaches a void continuation with an affinity hint: once f is
// ready, fn runs as a task placed on worker home's deque. This is what
// keeps a partition's whole per-iteration chain — and the same chain next
// iteration — on one worker, so the ~45 kernel launches per timestep
// re-touch warm cache lines instead of migrating the partition around the
// pool. home < 0 degrades to ThenRun.
func ThenRunAt[T any](f *Future[T], home int, fn func(T)) *Void {
	out := newFuture[Unit](f.s)
	ph := f.s.curPhase.Load()
	f.onReady(func() {
		f.s.spawn(ph, home, func() { fn(f.val) }, out)
	})
	return out
}

// latch is a single-word atomic countdown: complete() signals one arrival
// and the last arrival runs done inline. It is the join primitive behind the
// all-of combinators and the parallel algorithms — one atomic decrement
// per chunk instead of a mutex acquisition or a per-chunk future. n must
// be > 0.
type latch struct {
	left atomic.Int64
	done func()
}

func newLatch(n int, done func()) *latch {
	l := &latch{done: done}
	l.left.Store(int64(n))
	return l
}

func (l *latch) complete() {
	if l.left.Add(-1) == 0 {
		l.done()
	}
}

// AfterAll returns a Void future that becomes ready once every future in fs
// is ready, analogous to hpx::when_all over void futures. The returned
// future completes inline with the last dependency; use AfterAllRun to
// attach follow-up work as a task.
func AfterAll(s *Scheduler, fs []*Void) *Void {
	out := newFuture[Unit](s)
	if len(fs) == 0 {
		out.done = true
		return out
	}
	l := newLatch(len(fs), func() { out.set(Unit{}) })
	for _, f := range fs {
		f.onReady(l.complete)
	}
	return out
}

// AfterAllRun runs fn as a task once every future in fs is ready and
// returns a Void future for fn's completion. This is the
// hpx::when_all(...).then(...) idiom the paper uses for its per-iteration
// synchronization barriers.
func AfterAllRun(s *Scheduler, fs []*Void, fn func()) *Void {
	out := newFuture[Unit](s)
	ph := s.curPhase.Load() // attach-time phase, not trip-time
	launch := func() { s.spawn(ph, noHome, fn, out) }
	if len(fs) == 0 {
		launch()
		return out
	}
	l := newLatch(len(fs), launch)
	for _, f := range fs {
		f.onReady(l.complete)
	}
	return out
}

// WhenAll returns a future carrying the values of all futures in fs, in
// order, analogous to hpx::when_all over valued futures.
func WhenAll[T any](s *Scheduler, fs []*Future[T]) *Future[[]T] {
	out := newFuture[[]T](s)
	n := len(fs)
	if n == 0 {
		out.done = true
		return out
	}
	vals := make([]T, n)
	l := newLatch(n, func() { out.set(vals) })
	for i, f := range fs {
		i, f := i, f
		f.onReady(func() {
			vals[i] = f.val
			l.complete()
		})
	}
	return out
}

// WaitAll blocks until every future in fs is ready, analogous to
// hpx::wait_all. Call from outside the worker pool.
func WaitAll(fs []*Void) {
	for _, f := range fs {
		f.Get()
	}
}
