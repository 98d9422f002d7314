package perf

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenRecord is a fully-populated record with fixed values so the
// marshaled bytes are reproducible.
func goldenRecord() BenchRecord {
	return BenchRecord{
		Name:       "sweep",
		Timestamp:  "2026-01-02T03:04:05Z",
		Scenario:   "piston:speed=100",
		Backend:    "task",
		Workers:    4,
		Size:       20,
		Regions:    11,
		Iterations: 231,
		ElapsedSec: 1.75,
		FOM:        1.056e6,
		GrindUsZC:  0.947,
		Phases: []PhaseStats{
			{ID: 1, Name: "CalcForceForNodes", Count: 231, Steals: 3, Busy: 900 * 1e6, QueueWait: 5e6, P50: 3e6, P95: 4e6, P99: 5e6},
		},
		Counters:    map[string]float64{"steals": 42},
		JobID:       "job-000042",
		QueueWaitUs: 1250,
		Build: BuildInfo{
			GoVersion: "go1.22.0",
			GOOS:      "linux",
			GOARCH:    "amd64",
			NumCPU:    8,
			Host:      "benchhost",
		},
	}
}

func marshalRecord(t *testing.T, r BenchRecord) []byte {
	t.Helper()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return append(data, '\n')
}

// TestBenchRecordGolden pins the exact serialized form — field names,
// key order, indentation — so committed BENCH_<n>.json files stay
// diffable and external consumers of the schema do not silently break.
func TestBenchRecordGolden(t *testing.T) {
	got := marshalRecord(t, goldenRecord())
	path := filepath.Join("testdata", "bench_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("serialized BenchRecord drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestBenchRecordRoundTrip proves marshal→unmarshal is lossless.
func TestBenchRecordRoundTrip(t *testing.T) {
	orig := goldenRecord()
	var back BenchRecord
	if err := json.Unmarshal(marshalRecord(t, orig), &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Errorf("round trip lost data:\norig: %+v\nback: %+v", orig, back)
	}
}

// TestBenchRecordKeyOrderStable checks that marshaling emits keys in
// struct declaration order and that repeated marshals are bytewise
// identical — the properties the golden diff workflow relies on.
func TestBenchRecordKeyOrderStable(t *testing.T) {
	a := marshalRecord(t, goldenRecord())
	b := marshalRecord(t, goldenRecord())
	if string(a) != string(b) {
		t.Fatal("two marshals of the same record differ")
	}
	wantOrder := []string{
		`"name"`, `"timestamp"`, `"scenario"`, `"backend"`, `"workers"`,
		`"size"`, `"regions"`, `"iterations"`, `"elapsed_sec"`, `"fom_zps"`,
		`"grind_us_zc"`, `"phases"`, `"counters"`, `"job_id"`,
		`"queue_wait_us"`, `"build"`,
	}
	s := string(a)
	pos := -1
	for _, k := range wantOrder {
		i := strings.Index(s, k)
		if i < 0 {
			t.Fatalf("key %s missing from output", k)
		}
		if i < pos {
			t.Errorf("key %s out of order (at %d, previous key at %d)", k, i, pos)
		}
		pos = i
	}
}

// TestBenchRecordValidate covers the required-field checks the gate
// relies on before comparing records.
func TestBenchRecordValidate(t *testing.T) {
	if err := goldenRecord().Validate(); err != nil {
		t.Fatalf("golden record should validate: %v", err)
	}
	mutations := map[string]func(*BenchRecord){
		"name":       func(r *BenchRecord) { r.Name = "" },
		"backend":    func(r *BenchRecord) { r.Backend = "" },
		"workers":    func(r *BenchRecord) { r.Workers = 0 },
		"iterations": func(r *BenchRecord) { r.Iterations = 0 },
		"elapsed":    func(r *BenchRecord) { r.ElapsedSec = 0 },
		"fom":        func(r *BenchRecord) { r.FOM = -1 },
		"grind":      func(r *BenchRecord) { r.GrindUsZC = -0.5 },
		"queue_wait": func(r *BenchRecord) { r.QueueWaitUs = -1 },
		"build":      func(r *BenchRecord) { r.Build = BuildInfo{} },
		// A FOM stored in kilo-zones/s instead of zones/s breaks both
		// unit checks.
		"fom_units": func(r *BenchRecord) { r.FOM /= 1000 },
		"zones": func(r *BenchRecord) {
			r.FOM /= 2
			r.GrindUsZC *= 2
		},
	}
	for name, mutate := range mutations {
		r := goldenRecord()
		mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("record with bad %s validated", name)
		}
	}
}

// TestSetThroughput: the one derivation of elapsed, FOM and grind yields a
// record that passes both unit checks, and degenerate runs zero the rates.
func TestSetThroughput(t *testing.T) {
	r := goldenRecord()
	r.SetThroughput(r.Size*r.Size*r.Size, r.Iterations, 1500*time.Millisecond)
	if r.ElapsedSec != 1.5 {
		t.Errorf("elapsed = %v, want 1.5", r.ElapsedSec)
	}
	if want := float64(r.Size*r.Size*r.Size*r.Iterations) / 1.5; r.FOM != want {
		t.Errorf("fom = %v, want %v zones/s", r.FOM, want)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("SetThroughput record does not validate: %v", err)
	}
	r.SetThroughput(1000, 10, 0)
	if r.FOM != 0 || r.GrindUsZC != 0 {
		t.Errorf("zero elapsed left fom %v grind %v", r.FOM, r.GrindUsZC)
	}
}

// TestBenchRecordLegacyCompat: records written before the scenario work
// (no scenario, no grind_us_zc) must still load, validate, key as sedov
// and derive a grind from the FOM.
func TestBenchRecordLegacyCompat(t *testing.T) {
	legacy := `{
  "name": "fig9",
  "timestamp": "2025-12-01T00:00:00Z",
  "backend": "task",
  "workers": 2,
  "size": 16,
  "regions": 11,
  "iterations": 100,
  "elapsed_sec": 0.5,
  "fom_zps": 819200,
  "build": {"go_version": "go1.22.0", "goos": "linux", "goarch": "amd64", "num_cpu": 8}
}`
	var r BenchRecord
	if err := json.Unmarshal([]byte(legacy), &r); err != nil {
		t.Fatalf("unmarshal legacy: %v", err)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("legacy record should validate: %v", err)
	}
	if key := r.ConfigKey(); key != "sedov|task|s16|w2" {
		t.Errorf("legacy key = %q, want sedov|task|s16|w2", key)
	}
	if g := r.Grind(); g <= 0 {
		t.Errorf("legacy grind = %v, want derived from FOM", g)
	}
	// Re-marshaling a record that never had the served-job fields must not
	// emit them: committed pre-field baselines stay byte-stable.
	out := marshalRecord(t, r)
	if strings.Contains(string(out), "job_id") || strings.Contains(string(out), "queue_wait_us") {
		t.Errorf("legacy record re-marshal grew served-job keys:\n%s", out)
	}
}

// TestWriteReadBenchJSON round-trips a record through the on-disk slot
// allocator and the gate's reader.
func TestWriteReadBenchJSON(t *testing.T) {
	dir := t.TempDir()
	r0 := goldenRecord()
	p0, err := WriteBenchJSON(dir, r0)
	if err != nil {
		t.Fatal(err)
	}
	r1 := goldenRecord()
	r1.Backend = "omp"
	if _, err := WriteBenchJSON(dir, r1); err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p0) != "BENCH_0.json" {
		t.Errorf("first slot = %s, want BENCH_0.json", p0)
	}
	recs, err := ReadBenchDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("ReadBenchDir returned %d records, want 2", len(recs))
	}
	if !reflect.DeepEqual(recs[0], r0) {
		t.Errorf("slot 0 round trip mismatch:\ngot:  %+v\nwant: %+v", recs[0], r0)
	}
	if recs[1].Backend != "omp" {
		t.Errorf("slot 1 backend = %q, want omp", recs[1].Backend)
	}
}
