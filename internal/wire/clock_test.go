package wire

import (
	"sync"
	"testing"
	"time"

	"lulesh/internal/comm"
)

// recSink is a minimal comm.TraceSink capturing spans for assertions.
type recSink struct {
	mu    sync.Mutex
	sends []sinkSpan
	recvs []sinkSpan
}

type sinkSpan struct {
	peer   int
	tag    comm.Tag
	seq    uint64
	step   int
	bytes  int
	sendNs int64
}

func (s *recSink) RecordSend(peer int, tag comm.Tag, seq uint64, step, bytes int, at time.Time) {
	s.mu.Lock()
	s.sends = append(s.sends, sinkSpan{peer: peer, tag: tag, seq: seq, step: step, bytes: bytes})
	s.mu.Unlock()
}

func (s *recSink) RecordRecv(peer int, tag comm.Tag, seq uint64, step, bytes int, at time.Time, sendNs int64) {
	s.mu.Lock()
	s.recvs = append(s.recvs, sinkSpan{peer: peer, tag: tag, seq: seq, step: step, bytes: bytes, sendNs: sendNs})
	s.mu.Unlock()
}

// TestClockOffsetBootstrap: Cluster fires the ping burst, so shortly
// after startup every worker holds a plausible offset to rank 0 and
// rank 0 reports the identity.
func TestClockOffsetBootstrap(t *testing.T) {
	fabs := joinAll(t, 2, nil)
	for _, f := range fabs {
		f.Cluster(comm.Options{})
	}

	if off, rtt, ok := fabs[0].RootOffset(); !ok || off != 0 || rtt != 0 {
		t.Fatalf("rank 0 self offset: got (%v, %v, %v), want (0, 0, true)", off, rtt, ok)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		off, rtt, ok := fabs[1].RootOffset()
		if ok {
			// Same process, same clock: the estimate must land within the
			// round trip it rode on, and localhost RTT stays far under 1s.
			if rtt <= 0 || rtt > time.Second {
				t.Fatalf("implausible rtt %v", rtt)
			}
			if off < -rtt || off > rtt {
				t.Fatalf("offset %v outside ±rtt %v on a shared clock", off, rtt)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no clock sample arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWireSpanContext: data frames carry (step, send clock) end to end —
// the sender's tracer sees the send, the receiver's tracer sees the recv
// with the sender's header clock and the same stream ordinal.
func TestWireSpanContext(t *testing.T) {
	sinks := [2]*recSink{{}, {}}
	fabs := joinAll(t, 2, nil)
	eps := make([]*comm.Endpoint, 2)
	for r, f := range fabs {
		f.SetTracer(sinks[r])
		eps[r] = f.Cluster(comm.Options{}).Endpoint(r)
	}

	before := time.Now().UnixNano()
	fabs[0].SetStep(7)
	eps[0].Send(1, comm.TagDelv, []float64{1, 2, 3})
	got, err := eps[1].RecvDeadline(0, comm.TagDelv)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("payload length %d", len(got))
	}

	find := func(spans []sinkSpan, tag comm.Tag) (sinkSpan, bool) {
		for _, s := range spans {
			if s.tag == tag {
				return s, true
			}
		}
		return sinkSpan{}, false
	}
	sinks[0].mu.Lock()
	snd, okS := find(sinks[0].sends, comm.TagDelv)
	sinks[0].mu.Unlock()
	if !okS {
		t.Fatal("sender recorded no send span")
	}
	// The recv span is recorded on the reader goroutine; give it a beat.
	var rcv sinkSpan
	deadline := time.Now().Add(5 * time.Second)
	for {
		sinks[1].mu.Lock()
		s, okR := find(sinks[1].recvs, comm.TagDelv)
		sinks[1].mu.Unlock()
		if okR {
			rcv = s
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("receiver recorded no recv span")
		}
		time.Sleep(time.Millisecond)
	}

	if snd.peer != 1 || snd.step != 7 || snd.bytes != 24 {
		t.Errorf("send span %+v: want peer 1, step 7, 24 bytes", snd)
	}
	if rcv.peer != 0 || rcv.step != 7 || rcv.seq != snd.seq {
		t.Errorf("recv span %+v does not pair with send %+v", rcv, snd)
	}
	if rcv.sendNs < before || rcv.sendNs > time.Now().UnixNano() {
		t.Errorf("recv carries sender clock %d outside the send window", rcv.sendNs)
	}
}
