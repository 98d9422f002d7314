package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: quantile must sort
	}
	return xs
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		q      float64
		n      int
		wantOK bool
	}{
		{0.95, 199, false}, {0.95, 200, true},
		{0.90, 99, false}, {0.90, 100, true},
		{0.50, 19, false}, {0.50, 20, true},
		{0.99, 999, false}, {0.99, 1000, true},
	} {
		_, err := quantile(seq(c.n), c.q)
		if (err == nil) != c.wantOK {
			t.Errorf("p%g of %d samples: err=%v, want ok=%v", 100*c.q, c.n, err, c.wantOK)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	v, err := quantile(seq(200), 0.95)
	if err != nil || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	v, err = quantile(seq(20), 0.5)
	if err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

func TestWeightedMedian(t *testing.T) {
	if m := weightedMedian([]float64{1, 10, 100}, []float64{1, 1, 5}); m != 100 {
		t.Errorf("weighted median = %v, want 100", m)
	}
	if m := weightedMedian([]float64{1, 10}, []float64{0, 0}); m != 0 {
		t.Errorf("weighted median without weight = %v", m)
	}
}

func TestLatencyRunsFromDueTime(t *testing.T) {
	due := time.Unix(1000, 0)
	o := jobOutcome{
		Due:       due,
		Submitted: due.Add(50 * time.Millisecond), // the client ran late
		Terminal:  due.Add(80 * time.Millisecond),
		OK:        true,
	}
	l, ok := o.latency()
	if !ok || l != 80*time.Millisecond {
		t.Fatalf("latency = %v, %v; want 80ms from the due time", l, ok)
	}
}

func TestRefusedAndFailedJobsMissGoodput(t *testing.T) {
	due := time.Unix(1000, 0)
	within := due.Add(10 * time.Millisecond)
	outs := []jobOutcome{
		{Due: due, Terminal: within, OK: true},
		{Due: due, Terminal: within, OK: true},
		{Due: due, Refused: true},                                       // 429: never counts
		{Due: due, Terminal: within, Refused: true},                     // refused, whatever else it carries
		{Due: due, Terminal: within, OK: false},                         // failed or wrong output
		{Due: due, Terminal: due.Add(2 * time.Second), OK: true},        // over the limit
		{Due: due, Terminal: due.Add(100 * time.Millisecond), OK: true}, // exactly at the limit
	}
	got := goodput(outs, 100*time.Millisecond, 2*time.Second)
	if want := 3.0 / 2; got != want {
		t.Fatalf("goodput = %v, want %v", got, want)
	}
	for i, o := range outs[2:5] {
		if _, ok := o.latency(); ok {
			t.Errorf("outcome %d has a latency but did not complete correctly", i+2)
		}
	}
	if g := goodput(outs, time.Second, 0); g != 0 {
		t.Errorf("goodput over an empty window = %v", g)
	}
}

func TestHistQuantileOfDifference(t *testing.T) {
	a := &metrics.Float64Histogram{Counts: []uint64{5, 0, 0}, Buckets: []float64{0, 1, 2, math.Inf(1)}}
	b := &metrics.Float64Histogram{Counts: []uint64{5, 90, 10}, Buckets: a.Buckets}
	// The window saw 90 values in [1,2) and 10 in [2,inf).
	if got := histQuantile(a, b, 0.5); got != 2 {
		t.Errorf("p50 = %v, want upper edge 2", got)
	}
	if got := histQuantile(a, b, 0.99); got != 2 {
		t.Errorf("p99 = %v, want the last finite edge 2", got)
	}
	if got := histQuantile(b, b, 0.5); got != 0 {
		t.Errorf("p50 of an empty window = %v", got)
	}
}

func TestSSEClientTimesOnlyLiveFrames(t *testing.T) {
	c := &sseClient{}
	frame := func(name string) []byte {
		return []byte(fmt.Sprintf("id: 1\nevent: %s\ndata: {}\n\n", name))
	}
	c.Write(frame("state"))
	c.Write(frame("progress")) // replayed backlog: not timed
	c.Flush()
	c.Write(frame("progress")) // first live frame: no predecessor
	time.Sleep(2 * time.Millisecond)
	whole := frame("progress")
	c.Write(whole[:5]) // a frame split across writes
	c.Write(whole[5:])
	c.Write(frame("done"))
	iv := c.intervals()
	if len(iv) != 1 || iv[0] < 1 {
		t.Fatalf("intervals = %v, want one interval of about 2ms", iv)
	}
	if c.terminalName != "done" || c.terminal.IsZero() {
		t.Fatalf("terminal = %q at %v", c.terminalName, c.terminal)
	}
}

// TestFinalProgressFrameReadsBackExactly: the output check compares the
// final frame's time bit for bit, which holds because the server writes
// it with %g, the shortest text that reads back as the same float64.
func TestFinalProgressFrameReadsBackExactly(t *testing.T) {
	c := &sseClient{}
	times := []float64{math.Nextafter(1.5e-5, 1), 0.1 + 0.2, 3.0000000000000004e-07}
	for i, x := range times {
		c.Write([]byte(fmt.Sprintf("id: %d\nevent: progress\ndata: "+
			`{"id":"j","cycle":%d,"time":%g,"dt":%g,"energy":%g}`+"\n\n", i, i+1, x, x, x)))
	}
	c.Write([]byte("id: 9\nevent: done\ndata: {}\n\n"))
	var f progressFrame
	if err := json.Unmarshal([]byte(c.lastProgress), &f); err != nil {
		t.Fatal(err)
	}
	if want := times[len(times)-1]; f.Cycle != len(times) || f.Time != want {
		t.Fatalf("final frame: cycle %d time %v, want %d and %v", f.Cycle, f.Time, len(times), want)
	}
}

func TestLanesReuseFreedRows(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	got := lanes(
		[]time.Time{at(0), at(1), at(5), at(6)},
		[]time.Time{at(4), at(10), at(7), at(8)})
	want := []int{0, 1, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lanes = %v, want %v", got, want)
		}
	}
}

func TestBuildResultRequiresEveryEndToEndMetric(t *testing.T) {
	rp := newReport()
	rp.attempted = 1
	for _, m := range e2eMetrics {
		rp.e2e[m.name] = 1
	}
	if _, err := buildResult(rp, false); err != nil {
		t.Fatalf("complete report rejected: %v", err)
	}
	rp.e2e["grind_us_zc"] = 0
	if _, err := buildResult(rp, false); err == nil {
		t.Fatal("a zero end-to-end metric was accepted")
	}
	rp.wrong = 1
	res, _ := buildResult(rp, true)
	if res.Correct || res.Failed != 1 || res.Metrics["error_rate"].Value != 1 {
		t.Fatalf("wrong output not reported: %+v", res)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metric set and the
// benchmark description in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eMetrics)
	check("per_layer", b.PerLayer, layerMetrics)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("workloads: %d in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloadNames[i])
		}
	}
}

// TestReferencesCoverEveryInput: every workload finds a reference output
// to check against.
func TestReferencesCoverEveryInput(t *testing.T) {
	for name := range simWorkloads {
		if r := refs.Sim[name]; r.Origin == 0 || r.Time == 0 {
			t.Errorf("%s: no reference", name)
		}
	}
	if refs.Dist.Origin == 0 || refs.Dist.Total == 0 {
		t.Error("dist-latency: no reference")
	}
	// A served job's origin energy may be 0 (the piston's shock has not
	// reached the origin); its final time never is.
	for _, mj := range serveDeck() {
		if r, ok := refs.Serve[serveKey(mj.scenario, mj.size, mj.iterations)]; !ok || r.Time == 0 {
			t.Errorf("serve mix %+v: no reference", mj)
		}
	}
}

func TestWindowedQuantileIgnoresOneStalledWindow(t *testing.T) {
	calm := seq(200) // p95 = 190
	stalled := make([]float64, 200)
	for i := range stalled {
		stalled[i] = 1000
	}
	v, err := windowedQuantile([][]float64{calm, stalled, calm, calm}, 0.95)
	if err != nil || v != 190 {
		t.Fatalf("windowed p95 = %v, %v; want 190", v, err)
	}
	if _, err := windowedQuantile([][]float64{calm, seq(199)}, 0.95); err == nil {
		t.Fatal("a window too small for its p95 was accepted")
	}
}
