package comm

import (
	"sync"
	"testing"
	"time"
)

type testSink struct {
	mu    sync.Mutex
	sends []testSpan
	recvs []testSpan
}

type testSpan struct {
	peer  int
	tag   Tag
	seq   uint64
	step  int
	bytes int
}

func (s *testSink) RecordSend(peer int, tag Tag, seq uint64, step, bytes int, at time.Time) {
	s.mu.Lock()
	s.sends = append(s.sends, testSpan{peer, tag, seq, step, bytes})
	s.mu.Unlock()
}

func (s *testSink) RecordRecv(peer int, tag Tag, seq uint64, step, bytes int, at time.Time, sendNs int64) {
	s.mu.Lock()
	s.recvs = append(s.recvs, testSpan{peer, tag, seq, step, bytes})
	s.mu.Unlock()
}

// Blocked receive time must land in the right attribution bucket: ghost
// tags into WaitGhost, the dt allreduce tag into WaitReduce, and the two
// must sum to the legacy Wait counter.
func TestWaitBucketSplit(t *testing.T) {
	c := NewClusterLatency(2, 10*time.Millisecond)
	a, b := c.Endpoint(0), c.Endpoint(1)

	a.Send(1, TagDelv, []float64{1})
	b.Recv(0, TagDelv)
	a.Send(1, TagReduce, []float64{2})
	b.Recv(0, TagReduce)

	st := b.StatsSnapshot()
	if st.WaitGhost <= 0 {
		t.Errorf("ghost wait %v, want > 0 (10ms latency)", st.WaitGhost)
	}
	if st.WaitReduce <= 0 {
		t.Errorf("reduce wait %v, want > 0 (10ms latency)", st.WaitReduce)
	}
	if got := st.WaitGhost + st.WaitReduce; got != st.Wait {
		t.Errorf("buckets %v do not sum to total wait %v", got, st.Wait)
	}

	g, r := b.WaitBuckets()
	if g != st.WaitGhost || r != st.WaitReduce {
		t.Errorf("WaitBuckets (%v, %v) disagrees with stats (%v, %v)",
			g, r, st.WaitGhost, st.WaitReduce)
	}
	b.ResetStats()
	if g, r := b.WaitBuckets(); g != 0 || r != 0 {
		t.Errorf("reset left buckets (%v, %v)", g, r)
	}
}

// In-process endpoints feed the trace sink with per-stream ordinals:
// both sides of a message agree on (tag, ordinal), and the driver's
// step stamp rides along.
func TestEndpointTraceSink(t *testing.T) {
	c := NewCluster(2)
	a, b := c.Endpoint(0), c.Endpoint(1)
	sa, sb := &testSink{}, &testSink{}
	a.SetTraceSink(sa)
	b.SetTraceSink(sb)

	a.SetTraceStep(3)
	b.SetTraceStep(3)
	for i := 0; i < 2; i++ {
		a.Send(1, TagForces, []float64{float64(i), 0})
		b.Recv(0, TagForces)
	}

	sa.mu.Lock()
	sends := append([]testSpan(nil), sa.sends...)
	sa.mu.Unlock()
	sb.mu.Lock()
	recvs := append([]testSpan(nil), sb.recvs...)
	sb.mu.Unlock()

	if len(sends) != 2 || len(recvs) != 2 {
		t.Fatalf("got %d sends, %d recvs, want 2 each", len(sends), len(recvs))
	}
	for i := 0; i < 2; i++ {
		s, r := sends[i], recvs[i]
		if s.seq != uint64(i) || r.seq != uint64(i) {
			t.Errorf("message %d: ordinals (%d, %d), want %d on both sides", i, s.seq, r.seq, i)
		}
		if s.peer != 1 || r.peer != 0 || s.tag != TagForces || r.tag != TagForces {
			t.Errorf("message %d: endpoints disagree: send %+v recv %+v", i, s, r)
		}
		if s.step != 3 || r.step != 3 {
			t.Errorf("message %d: steps (%d, %d), want 3", i, s.step, r.step)
		}
		if s.bytes != 16 || r.bytes != 16 {
			t.Errorf("message %d: sizes (%d, %d), want 16", i, s.bytes, r.bytes)
		}
	}
}
