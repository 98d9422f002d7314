// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time, checks every output against stored
// reference values, and prints its metrics; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end figures a user sees;
// with --trace 1 every other repetition runs with the program's profiler
// or dist tracing attached, the metrics are the per-layer figures, and
// one Chrome trace is written under .bench_build/perfbench/traces/. Run
// it from the repository root through perfbench/run.sh, which builds it
// first. See perfbench/NOTES.md for what each metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Workloads run the program's defaults (core.DefaultOptions,
// dist.DefaultConfig, luleshd's serve.Config), so a change of default
// shows in them.
var simWorkloads = map[string]simWorkload{
	// Force, hourglass and kinematics kernels dominate; coarse Table I
	// partitions (about 13 tasks per loop).
	"sedov-task": {scenario: "sedov", size: 30, cycles: 100},
	// Many small, unequal EOS region chains: the scheduler does the work.
	"multimat-task": {scenario: "multimat:regions=64,cost=5,balance=2", size: 20, cycles: 100},
}

var workloadNames = []string{"sedov-task", "multimat-task", "dist-latency", "serve-open"}

type metricDef struct{ name, unit string }

// e2eMetrics are printed with --trace 0, every one on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"grind_us_zc", "us"},
	{"step_ms_p50", "ms"},
	{"step_ms_p90", "ms"},
	{"cpu_us_zc", "us"},
	{"rss_peak_mb", "MB"},
	{"latency_low_ms_p50", "ms"},
	{"latency_low_ms_p95", "ms"},
	{"latency_high_ms_p50", "ms"},
	{"latency_high_ms_p95", "ms"},
	{"goodput_jps", "1/s"},
}

// layerMetrics are printed with --trace 1. A layer a workload does not
// exercise reads 0.
var layerMetrics = func() []metricDef {
	out := []metricDef{
		{"error_rate", "ratio"},
		{"domain.build_ms", "ms"},
		{"core.backend_new_ms", "ms"},
	}
	for _, ph := range kernelPhases {
		out = append(out,
			metricDef{"kernels." + ph + ".busy_ns_zc", "ns"},
			metricDef{"kernels." + ph + ".tasks_per_cycle", "count"})
	}
	return append(out, []metricDef{
		{"amt.tasks_per_cycle", "count"},
		{"amt.steals_per_cycle", "count"},
		{"amt.stolen_per_steal", "ratio"},
		{"amt.parks_per_cycle", "count"},
		{"amt.parked_ms_per_cycle", "ms"},
		{"amt.queue_wait_ms_per_cycle", "ms"},
		{"amt.task_us_p50", "us"},
		{"amt.utilization", "ratio"},
		{"amt.affinity_hit_rate", "ratio"},
		{"amt.count_mismatch", "count"},
		{"amt.books_residual_pct", "%"},
		{"comm.msgs_per_step", "count"},
		{"comm.bytes_per_step", "B"},
		{"comm.ghost_wait_ms_per_step", "ms"},
		{"comm.allreduce_wait_ms_per_step", "ms"},
		{"dist.compute_ms_per_step", "ms"},
		{"dist.steal_idle_ms_per_step", "ms"},
		{"dist.overlap_headroom_pct", "%"},
		{"dist.rank_imbalance", "ratio"},
		{"serve.admit_us_p50", "us"},
		{"serve.admit_us_p95", "us"},
		{"serve.queue_wait_ms_p50", "ms"},
		{"serve.queue_wait_ms_p95", "ms"},
		{"serve.run_ms_p50", "ms"},
		{"serve.overhead_ms_p50", "ms"},
		{"serve.notify_ms_p50", "ms"},
		{"serve.rejected_ratio", "ratio"},
		{"serve.records_inconsistent", "count"},
		{"go.alloc_bytes_per_cycle", "B"},
		{"go.gc_cycles", "count"},
		{"go.sched_latency_us_p99", "us"},
		{"loadgen.late_ms_p99", "ms"},
		{"loadgen.backlog_end", "count"},
		{"trace.overhead_pct", "%"},
	}...)
}()

// runConfig is what every workload runner gets.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
	spans   *spanLog // nil unless traced
	outDir  string
	workers int
}

// spanRingCap sizes the profiler's per-worker span rings: one
// repetition's tasks per worker fit without drops.
const spanRingCap = 1 << 15

// another reports whether a run that started at start has time for one
// more repetition, judging by the last one. A run makes at least three,
// for a median of set-ups, and a traced run at least four, so that each
// side of its alternation has two.
func another[R walled](rc *runConfig, start time.Time, reps []R) bool {
	least := 3
	if rc.traced {
		least = 4
	}
	if len(reps) < least {
		return true
	}
	return time.Since(start)+reps[len(reps)-1].wallTime() <= rc.seconds
}

type walled interface{ wallTime() time.Duration }

func (r simRep) wallTime() time.Duration  { return r.wall }
func (r distRep) wallTime() time.Duration { return r.wall }

// report is one workload run's outcome. wrong counts operations whose
// output failed its check; failed counts the rest that did not complete
// (refused or errored).
type report struct {
	attempted, failed, wrong int
	e2e, layer               map[string]float64
	notes                    []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) notef(format string, args ...any) {
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func runWorkload(name string, rc *runConfig) (*report, error) {
	if w, ok := simWorkloads[name]; ok {
		return runSim(name, w, rc)
	}
	switch name {
	case "dist-latency":
		return runDist(rc)
	case "serve-open":
		return runServe(rc)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// buildResult selects the metric set for the mode and checks it is
// complete: every end-to-end metric measured and non-zero.
func buildResult(rp *report, traced bool) (resultLine, error) {
	res := resultLine{
		Correct:   rp.wrong == 0,
		Attempted: rp.attempted,
		Failed:    rp.failed + rp.wrong,
		Metrics:   map[string]metricOut{},
	}
	if rp.attempted < 1 {
		return res, errors.New("no operation attempted")
	}
	if traced {
		rp.layer["error_rate"] = float64(res.Failed) / float64(res.Attempted)
		for _, m := range layerMetrics {
			v := rp.layer[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return res, fmt.Errorf("metric %s is %v", m.name, v)
			}
			res.Metrics[m.name] = metricOut{v, m.unit}
		}
		return res, nil
	}
	for _, m := range e2eMetrics {
		v, ok := rp.e2e[m.name]
		if !ok || !(v > 0) || math.IsInf(v, 0) {
			return res, fmt.Errorf("end-to-end metric %s not measured (%v)", m.name, v)
		}
		res.Metrics[m.name] = metricOut{v, m.unit}
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured time, seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace")
	genRefsPath := flag.String("gen-refs", "", "recompute the reference outputs into this file and exit")
	flag.Parse()

	if *genRefsPath != "" {
		if err := genRefs(*genRefsPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	rc := &runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traceFlag == 1,
		outDir:  filepath.Join(".bench_build", "perfbench"),
		workers: runtime.GOMAXPROCS(0),
	}
	if rc.traced {
		rc.spans = newSpanLog()
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	host := currentHost()

	rp, err := runWorkload(*workload, rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, n := range rp.notes {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", *workload, n)
	}
	res, err := buildResult(rp, rc.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}

	tag := fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *traceFlag)
	if rc.spans != nil {
		path := filepath.Join(rc.outDir, "traces", tag+".json")
		if err := rc.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
			os.Exit(1)
		}
		fmt.Printf("# chrome trace: %s\n", path)
	}
	stamp, _ := json.Marshal(host)
	fmt.Printf("# workload %s seed %d seconds %d trace %d host %s\n",
		*workload, *seed, *seconds, *traceFlag, stamp)
	defs := e2eMetrics
	if rc.traced {
		defs = layerMetrics
	}
	for _, m := range defs {
		fmt.Printf("# %-36s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	if err := writeReport(filepath.Join(rc.outDir, "results", tag+".json"), host, res, rp.notes); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// writeReport keeps the full result, stamped with its host class, next
// to the build.
func writeReport(path string, host hostClass, res resultLine, notes []string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Host   hostClass  `json:"host"`
		Result resultLine `json:"result"`
		Notes  []string   `json:"notes,omitempty"`
	}{host, res, notes}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
