package amt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestScheduler(t *testing.T) *Scheduler {
	t.Helper()
	s := NewScheduler(WithWorkers(2))
	t.Cleanup(s.Close)
	return s
}

func TestAsyncReturnsValue(t *testing.T) {
	s := newTestScheduler(t)
	f := Async(s, func() int { return 42 })
	if got := f.Get(); got != 42 {
		t.Fatalf("Get() = %d, want 42", got)
	}
}

func TestGetIsIdempotent(t *testing.T) {
	s := newTestScheduler(t)
	f := Async(s, func() string { return "x" })
	if f.Get() != "x" || f.Get() != "x" {
		t.Fatal("repeated Get should return the same value")
	}
}

func TestMakeReady(t *testing.T) {
	s := newTestScheduler(t)
	f := MakeReady(s, 7)
	if !f.Ready() {
		t.Fatal("MakeReady future should be ready")
	}
	if f.Get() != 7 {
		t.Fatalf("Get() = %d, want 7", f.Get())
	}
}

func TestReadyTransitions(t *testing.T) {
	s := newTestScheduler(t)
	release := make(chan struct{})
	f := Async(s, func() int { <-release; return 1 })
	if f.Ready() {
		t.Fatal("future ready before task ran")
	}
	close(release)
	f.Get()
	if !f.Ready() {
		t.Fatal("future not ready after Get")
	}
}

func TestThenChainsValues(t *testing.T) {
	s := newTestScheduler(t)
	f := Async(s, func() int { return 3 })
	g := Then(f, func(v int) int { return v * v })
	h := Then(g, func(v int) string {
		if v == 9 {
			return "nine"
		}
		return "wrong"
	})
	if got := h.Get(); got != "nine" {
		t.Fatalf("chained value = %q", got)
	}
}

func TestThenOnReadyFuture(t *testing.T) {
	s := newTestScheduler(t)
	f := MakeReady(s, 10)
	g := Then(f, func(v int) int { return v + 1 })
	if got := g.Get(); got != 11 {
		t.Fatalf("Then on ready future = %d, want 11", got)
	}
}

func TestThenRunSideEffect(t *testing.T) {
	s := newTestScheduler(t)
	var got atomic.Int64
	f := Async(s, func() int { return 5 })
	v := ThenRun(f, func(x int) { got.Store(int64(x)) })
	v.Get()
	if got.Load() != 5 {
		t.Fatalf("ThenRun saw %d, want 5", got.Load())
	}
}

func TestLongThenChain(t *testing.T) {
	s := newTestScheduler(t)
	f := MakeReady(s, 0)
	for i := 0; i < 1000; i++ {
		f = Then(f, func(v int) int { return v + 1 })
	}
	if got := f.Get(); got != 1000 {
		t.Fatalf("chain of 1000 increments = %d", got)
	}
}

func TestSetTwicePanics(t *testing.T) {
	s := newTestScheduler(t)
	f := newFuture[int](s)
	f.set(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second set should panic")
		}
	}()
	f.set(2)
}

func TestAfterAllEmpty(t *testing.T) {
	s := newTestScheduler(t)
	f := AfterAll(s, nil)
	if !f.Ready() {
		t.Fatal("AfterAll(nil) should be immediately ready")
	}
}

func TestAfterAllWaitsForAll(t *testing.T) {
	s := newTestScheduler(t)
	var n atomic.Int64
	var fs []*Void
	for i := 0; i < 20; i++ {
		fs = append(fs, Run(s, func() {
			time.Sleep(time.Millisecond)
			n.Add(1)
		}))
	}
	AfterAll(s, fs).Get()
	if n.Load() != 20 {
		t.Fatalf("AfterAll completed with %d of 20 done", n.Load())
	}
}

func TestAfterAllRunOrdering(t *testing.T) {
	s := newTestScheduler(t)
	var n atomic.Int64
	var fs []*Void
	for i := 0; i < 10; i++ {
		fs = append(fs, Run(s, func() { n.Add(1) }))
	}
	var seen int64 = -1
	AfterAllRun(s, fs, func() { seen = n.Load() }).Get()
	if seen != 10 {
		t.Fatalf("AfterAllRun body saw %d completions, want 10", seen)
	}
}

func TestAfterAllRunEmptyStillRuns(t *testing.T) {
	s := newTestScheduler(t)
	ran := false
	AfterAllRun(s, nil, func() { ran = true }).Get()
	if !ran {
		t.Fatal("AfterAllRun with no dependencies should still run fn")
	}
}

func TestWhenAllCollectsInOrder(t *testing.T) {
	s := newTestScheduler(t)
	var fs []*Future[int]
	for i := 0; i < 50; i++ {
		i := i
		fs = append(fs, Async(s, func() int {
			time.Sleep(time.Duration(50-i) * time.Microsecond)
			return i
		}))
	}
	vals := WhenAll(s, fs).Get()
	if len(vals) != 50 {
		t.Fatalf("got %d values", len(vals))
	}
	for i, v := range vals {
		if v != i {
			t.Fatalf("vals[%d] = %d; completion order leaked into value order", i, v)
		}
	}
}

func TestWhenAllEmpty(t *testing.T) {
	s := newTestScheduler(t)
	vals := WhenAll[int](s, nil).Get()
	if len(vals) != 0 {
		t.Fatalf("WhenAll(nil) = %v", vals)
	}
}

func TestWaitAll(t *testing.T) {
	s := newTestScheduler(t)
	var n atomic.Int64
	var fs []*Void
	for i := 0; i < 30; i++ {
		fs = append(fs, Run(s, func() { n.Add(1) }))
	}
	WaitAll(fs)
	if n.Load() != 30 {
		t.Fatalf("WaitAll returned with %d of 30 done", n.Load())
	}
}

func TestGetFromManyGoroutines(t *testing.T) {
	s := newTestScheduler(t)
	f := Async(s, func() int {
		time.Sleep(5 * time.Millisecond)
		return 99
	})
	var wg sync.WaitGroup
	errs := make(chan int, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v := f.Get(); v != 99 {
				errs <- v
			}
		}()
	}
	wg.Wait()
	close(errs)
	for v := range errs {
		t.Fatalf("concurrent Get returned %d, want 99", v)
	}
}

func TestDiamondDependency(t *testing.T) {
	// a → (b, c) → d : the canonical dataflow diamond.
	s := newTestScheduler(t)
	a := Async(s, func() int { return 1 })
	b := Then(a, func(v int) int { return v + 10 })
	c := Then(a, func(v int) int { return v + 100 })
	bs := ThenRun(b, func(int) {})
	cs := ThenRun(c, func(int) {})
	var sum atomic.Int64
	ThenRun(b, func(v int) { sum.Add(int64(v)) })
	ThenRun(c, func(v int) { sum.Add(int64(v)) })
	AfterAll(s, []*Void{bs, cs}).Get()
	s.Quiesce()
	if sum.Load() != 112 {
		t.Fatalf("diamond sum = %d, want 112", sum.Load())
	}
}

func TestSchedulerAccessor(t *testing.T) {
	s := newTestScheduler(t)
	f := MakeReady(s, 0)
	if f.Scheduler() != s {
		t.Fatal("Scheduler() should return the owning scheduler")
	}
}

func TestLatchConcurrentArrivals(t *testing.T) {
	var hit atomic.Int64
	l := newLatch(100, func() { hit.Add(1) })
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.complete()
		}()
	}
	wg.Wait()
	if hit.Load() != 1 {
		t.Fatalf("latch ran done %d times, want exactly 1", hit.Load())
	}
}
