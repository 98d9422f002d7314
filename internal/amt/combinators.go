package amt

import (
	"fmt"
	"sync"
)

// Additional HPX-style combinators: dataflow over multiple predecessors,
// when_any, and panic propagation through futures (the analog of HPX
// futures carrying exceptions).

// Dataflow runs fn once both futures are ready, passing their values —
// the two-input form of hpx::dataflow.
func Dataflow[A, B, R any](s *Scheduler, fa *Future[A], fb *Future[B],
	fn func(A, B) R) *Future[R] {

	out := newFuture[R](s)
	l := newLatch(2, func() {
		s.spawn(s.curPhase.Load(), noHome, func() { out.val = fn(fa.val, fb.val) }, out)
	})
	fa.onReady(l.complete)
	fb.onReady(l.complete)
	return out
}

// Dataflow3 is the three-input form of Dataflow.
func Dataflow3[A, B, C, R any](s *Scheduler, fa *Future[A], fb *Future[B],
	fc *Future[C], fn func(A, B, C) R) *Future[R] {

	out := newFuture[R](s)
	l := newLatch(3, func() {
		s.spawn(s.curPhase.Load(), noHome, func() { out.val = fn(fa.val, fb.val, fc.val) }, out)
	})
	fa.onReady(l.complete)
	fb.onReady(l.complete)
	fc.onReady(l.complete)
	return out
}

// WhenAny returns a future carrying the index and value of the first
// future in fs to become ready, analogous to hpx::when_any. fs must be
// non-empty.
func WhenAny[T any](s *Scheduler, fs []*Future[T]) *Future[struct {
	Index int
	Value T
}] {
	type anyResult = struct {
		Index int
		Value T
	}
	if len(fs) == 0 {
		panic("amt: WhenAny requires at least one future")
	}
	out := newFuture[anyResult](s)
	var once sync.Once
	for i, f := range fs {
		i, f := i, f
		f.onReady(func() {
			once.Do(func() {
				out.set(anyResult{Index: i, Value: f.val})
			})
		})
	}
	return out
}

// PanicError wraps a panic value recovered inside an asynchronous task so
// it can be rethrown by Future.Get on the waiting goroutine — the
// behaviour of exceptional HPX futures.
type PanicError struct {
	Value any
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("amt: task panicked: %v", p.Value)
}

// AsyncSafe is Async with panic capture: if fn panics, the panic is
// stored in the future and rethrown (wrapped in *PanicError) by Get.
func AsyncSafe[T any](s *Scheduler, fn func() T) *Future[T] {
	f := newFuture[T](s)
	s.spawn(s.curPhase.Load(), noHome, func() {
		defer func() {
			if r := recover(); r != nil {
				f.mu.Lock()
				f.panicErr = &PanicError{Value: r}
				f.mu.Unlock()
			}
		}()
		f.val = fn()
	}, f)
	return f
}

// Err returns the captured panic of an exceptionally completed future, or
// nil. It does not block; query Ready first or after Get.
func (f *Future[T]) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.panicErr == nil {
		return nil
	}
	return f.panicErr
}
