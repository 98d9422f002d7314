package amt

import "time"

// Parallel algorithms in the style of hpx::for_each and hpx::reduce.
// The naive LULESH port the paper criticizes ([16]) is built from exactly
// these: every loop becomes a ForEach followed by a wait, which reintroduces
// one synchronization barrier per loop.
//
// The dispatch path is deliberately allocation-free per chunk: chunks are
// pooled frames carrying (body, lo, hi) and the join is a single atomic
// countdown latch, so a parallel region costs one future, one latch and one
// wake sweep regardless of its chunk count. Ranges no longer than one grain
// are executed inline on the caller — one chunk's worth of work does not
// pay for a dispatch.

// ForEachBlock partitions the index range [begin, end) into chunks of at
// most grain indices, runs body(lo, hi) for each chunk as an independent
// task, and returns a Void future that becomes ready when every chunk has
// finished. grain < 1 is treated as a single chunk spanning the whole range.
func ForEachBlock(s *Scheduler, begin, end, grain int, body func(lo, hi int)) *Void {
	out := newFuture[Unit](s)
	if end <= begin {
		out.done = true
		return out
	}
	if grain < 1 || end-begin <= grain {
		body(begin, end)
		out.done = true
		return out
	}
	nchunks := (end - begin + grain - 1) / grain
	l := newLatch(nchunks, func() { out.set(Unit{}) })
	// One phase capture and one clock read cover the whole batch: chunks
	// are enqueued microseconds apart, far below histogram resolution.
	ph := s.curPhase.Load()
	var enq time.Time
	if s.sink.Load() != nil {
		enq = time.Now()
	}
	s.beginBatch(nchunks)
	c := 0
	for lo := begin; lo < end; lo += grain {
		hi := lo + grain
		if hi > end {
			hi = end
		}
		f := newFrame()
		f.body, f.lo, f.hi, f.done = body, lo, hi, l
		f.phase, f.enq, f.job = ph, enq, s
		s.enqueueAt(c, f)
		c++
	}
	s.p.wakeN(nchunks)
	return out
}

// ForEach applies body to every index in [begin, end) using chunked tasks,
// analogous to hpx::for_each with a parallel execution policy.
func ForEach(s *Scheduler, begin, end, grain int, body func(i int)) *Void {
	return ForEachBlock(s, begin, end, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// Reduce computes a deterministic parallel reduction over [begin, end):
// each chunk folds its indices with fold starting from identity, and the
// per-chunk partial results are combined *in chunk order* with combine, so
// the result is bitwise reproducible for a fixed grain regardless of the
// number of workers.
func Reduce[T any](s *Scheduler, begin, end, grain int, identity T,
	fold func(acc T, i int) T, combine func(a, b T) T) *Future[T] {

	out := newFuture[T](s)
	if end <= begin {
		out.done = true
		out.val = identity
		return out
	}
	if grain < 1 || end-begin <= grain {
		acc := identity
		for i := begin; i < end; i++ {
			acc = fold(acc, i)
		}
		out.done = true
		out.val = combine(identity, acc)
		return out
	}
	nchunks := (end - begin + grain - 1) / grain
	partial := make([]T, nchunks)
	l := newLatch(nchunks, func() {
		acc := identity
		for _, p := range partial {
			acc = combine(acc, p)
		}
		out.set(acc)
	})
	// One closure serves every chunk; the chunk index is recovered from the
	// block bounds, so the per-chunk frames stay allocation-free.
	body := func(lo, hi int) {
		acc := identity
		for i := lo; i < hi; i++ {
			acc = fold(acc, i)
		}
		partial[(lo-begin)/grain] = acc
	}
	ph := s.curPhase.Load()
	var enq time.Time
	if s.sink.Load() != nil {
		enq = time.Now()
	}
	s.beginBatch(nchunks)
	c := 0
	for lo := begin; lo < end; lo += grain {
		hi := lo + grain
		if hi > end {
			hi = end
		}
		f := newFrame()
		f.body, f.lo, f.hi, f.done = body, lo, hi, l
		f.phase, f.enq, f.job = ph, enq, s
		s.enqueueAt(c, f)
		c++
	}
	s.p.wakeN(nchunks)
	return out
}
