package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// hostClass stamps a result with what it was measured on; a figure is
// only comparable to figures of the same class.
type hostClass struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

func currentHost() hostClass {
	return hostClass{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitRev:     sourceRevision(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceRevision is the git revision stamped into the binary, or, when it
// was built outside a git checkout, "src-" plus a digest of the Go sources
// and module files it was built from.
func sourceRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goSample is one reading of the Go runtime counters the benchmark
// reports: cumulative heap allocation, GC cycles and the scheduling
// latency histogram.
type goSample struct {
	allocBytes uint64
	gcCycles   uint64
	schedLat   *metrics.Float64Histogram
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := goSample{}
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		out.schedLat = s[2].Value.Float64Histogram()
	}
	return out
}

// goDelta fills the go.* layer metrics for the window between two
// samples; work is the window's cycle count (job-cycles for serve).
func goDelta(m map[string]float64, a, b goSample, work int) {
	if work > 0 {
		m["go.alloc_bytes_per_cycle"] = float64(b.allocBytes-a.allocBytes) / float64(work)
	}
	m["go.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	if b.schedLat != nil {
		m["go.sched_latency_us_p99"] = 1e6 * histQuantile(a.schedLat, b.schedLat, 0.99)
	}
}
