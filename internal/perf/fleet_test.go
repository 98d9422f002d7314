package perf

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"lulesh/internal/comm"
)

// renderTrace merges the snapshot and decodes the Chrome JSON it writes;
// every adversarial case must still come out as one well-formed array.
func renderTrace(t *testing.T, fs *FleetSnapshot) ([]map[string]any, MergeStats) {
	t.Helper()
	rec, st := fs.Merge()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	return evs, st
}

func countPh(evs []map[string]any, ph string) int {
	n := 0
	for _, e := range evs {
		if e["ph"] == ph {
			n++
		}
	}
	return n
}

// base builds a healthy 2-rank snapshot: one step each, one message
// rank 0 → rank 1 on the ghost stream.
func baseSnapshot(skewNs int64) *FleetSnapshot {
	const t0 = int64(1_000_000_000_000) // arbitrary unix-nano origin
	fs := NewFleetSnapshot(2)
	fs.AddRank(RankTrace{
		Rank: 0, Ranks: 2,
		Steps: []StepBucket{{Step: 1, StartNs: t0, WallNs: 10e6,
			ComputeNs: 8e6, GhostNs: 2e6}},
		Sends: []NetSpan{{Peer: 1, Tag: int(comm.TagDelv), Seq: 0, Step: 1,
			TNs: t0 + 1e6, Bytes: 64}},
	})
	// Rank 1's clock runs skewNs behind rank 0's; its OffsetNs says so.
	fs.AddRank(RankTrace{
		Rank: 1, Ranks: 2, OffsetNs: skewNs, RTTNs: 50_000,
		Steps: []StepBucket{{Step: 1, StartNs: t0 - skewNs, WallNs: 10e6,
			ComputeNs: 7e6, GhostNs: 3e6}},
		Recvs: []NetSpan{{Peer: 0, Tag: int(comm.TagDelv), Seq: 0, Step: 1,
			TNs: t0 - skewNs + 2e6, Bytes: 64, SendNs: t0 + 1e6}},
	})
	return fs
}

// A rank with heavy clock skew must still produce exactly one flow
// arrow, pointing forward in time after alignment.
func TestFleetMergeAlignsClockSkew(t *testing.T) {
	for _, skew := range []int64{0, 3e9, -3e9} {
		evs, st := renderTrace(t, baseSnapshot(skew))
		if st.Flows != 1 || st.UnmatchedSends != 0 || st.UnmatchedRecvs != 0 {
			t.Fatalf("skew %d: stats %+v, want exactly one clean flow", skew, st)
		}
		if n := countPh(evs, "s"); n != 1 {
			t.Fatalf("skew %d: %d flow starts, want 1", skew, n)
		}
		var sTs, fTs float64
		for _, e := range evs {
			switch e["ph"] {
			case "s":
				sTs = e["ts"].(float64)
			case "f":
				fTs = e["ts"].(float64)
			}
		}
		if fTs < sTs {
			t.Errorf("skew %d: arrow points backwards (%v -> %v)", skew, sTs, fTs)
		}
		// Both ranks got named rows.
		names := 0
		for _, e := range evs {
			if e["name"] == "process_name" {
				names++
			}
		}
		if names != 2 {
			t.Errorf("skew %d: %d process names, want 2", skew, names)
		}
	}
}

// Residual skew beyond the offset estimate makes a recv appear before
// its send; the arrow must be clamped, never drawn backwards.
func TestFleetMergeClampsResidualSkew(t *testing.T) {
	fs := baseSnapshot(0)
	fs.Traces[1].Recvs[0].TNs = fs.Traces[0].Sends[0].TNs - 5e6 // "arrived" before it left
	evs, st := renderTrace(t, fs)
	if st.Flows != 1 {
		t.Fatalf("stats %+v, want one flow", st)
	}
	var sTs, fTs float64
	for _, e := range evs {
		switch e["ph"] {
		case "s":
			sTs = e["ts"].(float64)
		case "f":
			fTs = e["ts"].(float64)
		}
	}
	if fTs < sTs {
		t.Errorf("clamp failed: arrow %v -> %v", sTs, fTs)
	}
}

// Dropped spans on either side must surface as unmatched counts and an
// in-band "fleet gaps" marker — and never a dangling arrow endpoint.
func TestFleetMergeDroppedSpans(t *testing.T) {
	fs := baseSnapshot(0)
	fs.Traces[1].Recvs = nil   // the recv span was lost
	fs.Traces[1].RecvDrops = 1 // and the tracer said so
	fs.Traces[0].Sends = append(fs.Traces[0].Sends, NetSpan{
		Peer: 1, Tag: int(comm.TagReduce), Seq: 9, TNs: 2_000_000_000_000})
	fs.Traces[1].Recvs = append(fs.Traces[1].Recvs, NetSpan{
		Peer: 0, Tag: int(comm.TagForces), Seq: 4, TNs: 2_000_000_000_000})

	evs, st := renderTrace(t, fs)
	if st.Flows != 0 {
		t.Errorf("%d flows from unpaired spans, want 0", st.Flows)
	}
	if st.UnmatchedSends != 2 || st.UnmatchedRecvs != 1 || st.DroppedSpans != 1 {
		t.Errorf("stats %+v, want 2 unmatched sends, 1 unmatched recv, 1 dropped", st)
	}
	if n := countPh(evs, "s") + countPh(evs, "f"); n != 0 {
		t.Errorf("%d dangling flow endpoints", n)
	}
	gaps := false
	for _, e := range evs {
		if e["name"] == "fleet gaps" {
			gaps = true
		}
	}
	if !gaps {
		t.Error("no in-band fleet-gaps marker")
	}
}

// Duplicate sends and deliveries (wire resends) collapse to one arrow.
func TestFleetMergeDedupsResends(t *testing.T) {
	fs := baseSnapshot(0)
	fs.Traces[0].Sends = append(fs.Traces[0].Sends, fs.Traces[0].Sends[0]) // retransmit
	fs.Traces[1].Recvs = append(fs.Traces[1].Recvs, fs.Traces[1].Recvs[0]) // dup delivery
	_, st := renderTrace(t, fs)
	if st.Flows != 1 || st.UnmatchedSends != 0 || st.UnmatchedRecvs != 0 {
		t.Errorf("stats %+v, want the resend folded into one flow", st)
	}
}

// A rank that died mid-run (no snapshot gathered) keeps a labeled row;
// the merge stays total and the gap is counted.
func TestFleetMergeDeadRank(t *testing.T) {
	fs := NewFleetSnapshot(3)
	base := baseSnapshot(0)
	fs.AddRank(base.Traces[0])
	fs.AddRank(base.Traces[1])
	// Rank 2 never reported; rank 1's send to it dangles.
	fs.Traces[1].Sends = append(fs.Traces[1].Sends, NetSpan{
		Peer: 2, Tag: int(comm.TagForces), Seq: 0, TNs: 1_000_000_500_000})

	evs, st := renderTrace(t, fs)
	if st.DeadRanks != 1 {
		t.Fatalf("DeadRanks = %d, want 1", st.DeadRanks)
	}
	if st.UnmatchedSends != 1 {
		t.Errorf("UnmatchedSends = %d, want 1 (send into the dead rank)", st.UnmatchedSends)
	}
	found := false
	for _, e := range evs {
		if e["name"] == "process_name" {
			args := e["args"].(map[string]any)
			if args["name"] == "rank 2 (no data)" {
				found = true
			}
		}
	}
	if !found {
		t.Error("dead rank lost its labeled row")
	}
}

// AddRank must ignore snapshots claiming impossible ranks.
func TestFleetAddRankOutOfRange(t *testing.T) {
	fs := NewFleetSnapshot(2)
	fs.AddRank(RankTrace{Rank: -1})
	fs.AddRank(RankTrace{Rank: 2})
	for r, rt := range fs.Traces {
		if !rt.Dead || rt.Rank != r {
			t.Errorf("slot %d corrupted: %+v", r, rt)
		}
	}
}

func TestFleetSnapshotJSONRoundTrip(t *testing.T) {
	fs := baseSnapshot(7)
	var buf bytes.Buffer
	if err := fs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFleetSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ranks != fs.Ranks || len(got.Traces) != len(fs.Traces) {
		t.Fatalf("round trip lost shape: %+v", got)
	}
	if got.Traces[1].OffsetNs != 7 || len(got.Traces[0].Sends) != 1 {
		t.Errorf("round trip lost content: %+v", got.Traces)
	}
	if _, err := LoadFleetSnapshot(strings.NewReader("{")); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

func TestStallReportSums(t *testing.T) {
	fs := NewFleetSnapshot(2)
	mk := func(rank int, walls, computes []int64) RankTrace {
		rt := RankTrace{Rank: rank, Ranks: 2}
		for i := range walls {
			w, c := walls[i], computes[i]
			rt.Steps = append(rt.Steps, StepBucket{
				Step: i + 1, StartNs: int64(i) * 100e6, WallNs: w,
				ComputeNs: c, GhostNs: w - c, // buckets sum to wall exactly
			})
		}
		return rt
	}
	fs.AddRank(mk(0, []int64{10e6, 20e6}, []int64{8e6, 5e6}))
	fs.AddRank(mk(1, []int64{12e6, 15e6}, []int64{6e6, 14e6}))

	rep := BuildStallReport(fs)
	if rep.Steps != 2 || rep.Ranks != 2 {
		t.Fatalf("shape: %+v", rep)
	}
	if rep.WallNs != 12e6+20e6 {
		t.Errorf("WallNs = %d, want per-step max summed (32e6)", rep.WallNs)
	}
	if rep.CritNs != 8e6+14e6 {
		t.Errorf("CritNs = %d, want 22e6", rep.CritNs)
	}
	if rep.HeadroomNs != rep.WallNs-rep.CritNs {
		t.Errorf("headroom %d != wall-crit", rep.HeadroomNs)
	}
	if math.Abs(rep.Coverage-1) > 1e-12 {
		t.Errorf("coverage %v, want exactly 1 (buckets constructed to sum)", rep.Coverage)
	}
	if len(rep.Worst) != 2 || rep.Worst[0].Headroom < rep.Worst[1].Headroom {
		t.Errorf("worst list unsorted: %+v", rep.Worst)
	}
	if rep.Worst[0].Step != 2 || rep.Worst[0].SlowRank != 0 {
		t.Errorf("worst step %+v, want step 2 slowest on rank 0", rep.Worst[0])
	}

	var buf bytes.Buffer
	rep.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"Stall report: 2 ranks, 2 steps", "overlap headroom", "worst steps"} {
		if !strings.Contains(out, want) {
			t.Errorf("report text missing %q:\n%s", want, out)
		}
	}

	// Empty snapshot: total, zeroed, no division by zero.
	empty := BuildStallReport(NewFleetSnapshot(4))
	if empty.Steps != 0 || empty.Coverage != 0 {
		t.Errorf("empty report: %+v", empty)
	}
	buf.Reset()
	empty.WriteText(&buf)
	if !strings.Contains(buf.String(), "no per-step buckets") {
		t.Errorf("empty report text: %s", buf.String())
	}
}

func TestBlobRoundTrip(t *testing.T) {
	for n := 0; n <= 33; n++ {
		in := make([]byte, n)
		for i := range in {
			in[i] = byte(3*i + 1)
		}
		f := EncodeBlob(in)
		out, ok := DecodeBlob(f)
		if !ok || !bytes.Equal(out, in) {
			t.Fatalf("n=%d: round trip failed (ok=%v, %x != %x)", n, ok, out, in)
		}
	}
	if _, ok := DecodeBlob(nil); ok {
		t.Error("empty slab accepted")
	}
	// A length prefix larger than the payload must be rejected.
	bad := EncodeBlob([]byte{1, 2, 3})
	bad[0] = math.Float64frombits(1 << 40)
	if _, ok := DecodeBlob(bad); ok {
		t.Error("oversized length prefix accepted")
	}
}

// The NetTracer cap must count drops instead of growing without bound.
func TestNetTracerCap(t *testing.T) {
	tr := NewNetTracer(2)
	for i := 0; i < 5; i++ {
		tr.RecordSend(1, comm.TagForces, uint64(i), 0, 8, time.Now())
		tr.RecordRecv(1, comm.TagForces, uint64(i), 0, 8, time.Now(), 0)
	}
	var rt RankTrace
	tr.Drain(&rt)
	if len(rt.Sends) != 2 || len(rt.Recvs) != 2 {
		t.Errorf("kept %d/%d spans, want 2/2", len(rt.Sends), len(rt.Recvs))
	}
	if rt.SendDrops != 3 || rt.RecvDrops != 3 {
		t.Errorf("drops %d/%d, want 3/3", rt.SendDrops, rt.RecvDrops)
	}
	// Drained clean: a second drain adds nothing.
	var rt2 RankTrace
	tr.Drain(&rt2)
	if len(rt2.Sends) != 0 || rt2.SendDrops != 0 {
		t.Errorf("drain left residue: %+v", rt2)
	}
}

// Merged traces viewers can open need a step row carrying the bucket
// args; spot-check one event end to end.
func TestFleetMergeStepArgs(t *testing.T) {
	evs, _ := renderTrace(t, baseSnapshot(0))
	for _, e := range evs {
		if e["name"] == "step 1" && e["pid"].(float64) == 0 {
			args := e["args"].(map[string]any)
			if args["compute_ms"].(float64) != 8 || args["ghost_wait_ms"].(float64) != 2 {
				t.Errorf("step args %v", args)
			}
			return
		}
	}
	t.Error("rank 0 step slice missing")
}
