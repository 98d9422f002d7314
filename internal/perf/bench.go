package perf

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// BenchRecord is the machine-readable result of one benchmark run —
// figure-of-merit, per-phase breakdown, counter snapshot and enough
// build/host context to compare records across PRs. luleshbench writes one
// BENCH_<n>.json per -record run.
//
// JSON key order is the struct field order and therefore stable across
// runs — committed records diff cleanly. New fields must be appended with
// omitempty so old records keep validating.
type BenchRecord struct {
	Name       string             `json:"name"`
	Timestamp  string             `json:"timestamp"`
	Scenario   string             `json:"scenario,omitempty"` // canonical spec ("" = sedov, pre-scenario records)
	Backend    string             `json:"backend"`
	Workers    int                `json:"workers"`
	Size       int                `json:"size,omitempty"` // mesh edge elements
	Regions    int                `json:"regions,omitempty"`
	Iterations int                `json:"iterations"`
	ElapsedSec float64            `json:"elapsed_sec"`
	FOM        float64            `json:"fom_zps"`               // zones/second
	GrindUsZC  float64            `json:"grind_us_zc,omitempty"` // microseconds per zone per cycle
	Phases     []PhaseStats       `json:"phases,omitempty"`
	Counters   map[string]float64 `json:"counters,omitempty"`

	// JobID and QueueWaitUs are stamped by luleshd on served-job results:
	// the job's server-assigned identifier and the time the job spent in
	// the admission queue before its first cycle (microseconds). Both are
	// omitempty, so CLI-produced records and all committed baselines are
	// byte-identical to the pre-field format.
	JobID       string  `json:"job_id,omitempty"`
	QueueWaitUs float64 `json:"queue_wait_us,omitempty"`

	Build BuildInfo `json:"build"`
}

// Validate checks the invariants every written record must satisfy; the
// bench gate refuses files that fail it rather than comparing garbage.
func (r BenchRecord) Validate() error {
	switch {
	case r.Name == "":
		return fmt.Errorf("perf: record missing name")
	case r.Backend == "":
		return fmt.Errorf("perf: record %q missing backend", r.Name)
	case r.Workers < 1:
		return fmt.Errorf("perf: record %q has %d workers", r.Name, r.Workers)
	case r.Iterations < 1:
		return fmt.Errorf("perf: record %q has %d iterations", r.Name, r.Iterations)
	case r.ElapsedSec <= 0:
		return fmt.Errorf("perf: record %q has elapsed %v", r.Name, r.ElapsedSec)
	case r.FOM <= 0:
		return fmt.Errorf("perf: record %q has FOM %v", r.Name, r.FOM)
	case r.GrindUsZC < 0:
		return fmt.Errorf("perf: record %q has grind %v", r.Name, r.GrindUsZC)
	case r.QueueWaitUs < 0:
		return fmt.Errorf("perf: record %q has queue wait %v", r.Name, r.QueueWaitUs)
	case r.Build.GoVersion == "":
		return fmt.Errorf("perf: record %q missing build info", r.Name)
	}
	// The three throughput figures must agree on units. Pre-scenario
	// records carry no grind; Grind derives it from the FOM.
	if r.GrindUsZC > 0 {
		if prod := r.FOM * r.GrindUsZC; math.Abs(prod-1e6) > 1e3 {
			return fmt.Errorf("perf: record %q has fom_zps × grind_us_zc = %.6g, want 1e6", r.Name, prod)
		}
	}
	if r.Size > 0 {
		zones := float64(r.Size) * float64(r.Size) * float64(r.Size)
		if implied := r.FOM * r.ElapsedSec / float64(r.Iterations); implied < 0.99*zones {
			return fmt.Errorf("perf: record %q implies %.6g zones (fom_zps × elapsed_sec / iterations), size %d has %.6g",
				r.Name, implied, r.Size, zones)
		}
	}
	return nil
}

// SetThroughput fills ElapsedSec, FOM (zones/s) and GrindUsZC (µs per
// zone per cycle) for a run that advanced zones zones through cycles
// cycles in elapsed wall time. Every record writer derives the three
// figures here, so no writer can store them in different units.
func (r *BenchRecord) SetThroughput(zones, cycles int, elapsed time.Duration) {
	r.ElapsedSec = elapsed.Seconds()
	r.FOM, r.GrindUsZC = 0, 0
	if elapsed > 0 && zones > 0 && cycles > 0 {
		r.FOM = float64(zones) * float64(cycles) / r.ElapsedSec
		r.GrindUsZC = 1e6 / r.FOM
	}
}

// ConfigKey identifies the measured configuration — the unit the bench
// gate compares across record sets. Records of the same key measure the
// same work.
func (r BenchRecord) ConfigKey() string {
	sc := r.Scenario
	if sc == "" {
		sc = "sedov"
	}
	return fmt.Sprintf("%s|%s|s%d|w%d", sc, r.Backend, r.Size, r.Workers)
}

// Grind returns the grind time in us/zone/cycle, deriving it from the FOM
// for pre-scenario records that did not store it.
func (r BenchRecord) Grind() float64 {
	if r.GrindUsZC > 0 {
		return r.GrindUsZC
	}
	if r.FOM > 0 {
		return 1e6 / r.FOM
	}
	return 0
}

// BuildInfo pins the toolchain and host a record was produced on. New
// fields are appended with omitempty so older records (and the golden
// file) keep deserializing and serializing byte-identically.
type BuildInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	Host       string `json:"host,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	GitRev     string `json:"git_rev,omitempty"`
}

// CurrentBuildInfo fills a BuildInfo from the running binary. The git
// revision comes from the binary's embedded VCS stamp (present when the
// build ran inside a checkout; absent under `go test` and plain `go
// run`, where the field stays empty) — enough for benchgate failures to
// be traced to the exact commit that produced a record.
func CurrentBuildInfo() BuildInfo {
	host, _ := os.Hostname()
	return BuildInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Host:       host,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitRev:     gitRevision(),
	}
}

// gitRevision extracts the vcs.revision setting (shortened) from the
// running binary's build info, "" when the binary carries no VCS stamp.
func gitRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			rev := s.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if mod := findSetting(bi, "vcs.modified"); mod == "true" {
				rev += "+dirty"
			}
			return rev
		}
	}
	return ""
}

func findSetting(bi *debug.BuildInfo, key string) string {
	for _, s := range bi.Settings {
		if s.Key == key {
			return s.Value
		}
	}
	return ""
}

// WriteBenchJSON writes rec to the first unused BENCH_<n>.json in dir
// (n counts up from 0) and returns the chosen path. The sequential
// numbering keeps one file per run, so the perf trajectory across PRs is
// a directory listing instead of a grep through experiments_raw.txt.
func WriteBenchJSON(dir string, rec BenchRecord) (string, error) {
	if rec.Timestamp == "" {
		rec.Timestamp = time.Now().UTC().Format(time.RFC3339)
	}
	if rec.Build == (BuildInfo{}) {
		rec.Build = CurrentBuildInfo()
	}
	var path string
	for n := 0; ; n++ {
		path = filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(path); os.IsNotExist(err) {
			break
		} else if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("perf: no free BENCH_<n>.json slot in %s", dir)
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	// O_EXCL guards the slot against a concurrent writer picking the same n.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
