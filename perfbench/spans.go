package main

import (
	"bufio"
	"os"
	"path/filepath"
	"time"

	"lulesh/internal/trace"
)

// The benchmark's own spans live in process lane 100 of the Chrome
// trace; lane 0 holds the program's task spans (perf.Profiler.DrainSpans,
// one row per worker) and, for dist-latency, lanes 10+r hold rank r's
// fleet trace.
const benchPID = 100

// spanLog keeps the benchmark's spans in memory until the run ends. Each
// span carries its own id and its parent's id (args "span" and
// "parent"); spans of one request share the parent chain.
type spanLog struct {
	rec    *trace.Recorder
	nextID float64

	// workersDrained is set once one repetition's task spans have been
	// drained into rec; later repetitions add aggregates only, which keeps
	// the trace a readable size.
	workersDrained bool
}

func newSpanLog() *spanLog {
	r := trace.NewRecorder(0)
	r.SetProcessName(benchPID, "perfbench")
	r.SetProcessName(0, "workers")
	return &spanLog{rec: r}
}

// reserve hands out a span id before the span ends, so children can
// name their parent while it is still open. A nil log hands out 0.
func (l *spanLog) reserve() float64 {
	if l == nil {
		return 0
	}
	l.nextID++
	return l.nextID
}

// add records one span on row tid and returns its id, for children to
// name as their parent (0 = no parent).
func (l *spanLog) add(name string, tid int, start, end time.Time, parent float64) float64 {
	id := l.reserve()
	l.addID(id, name, tid, start, end, parent)
	return id
}

// addID records a span under an id from reserve.
func (l *spanLog) addID(id float64, name string, tid int, start, end time.Time, parent float64) {
	if l == nil {
		return
	}
	l.rec.RecordEvent(trace.Event{
		Name: name, PID: benchPID, TID: tid, Start: start, Dur: end.Sub(start),
		Args: map[string]float64{"span": id, "parent": parent},
	})
}

// write merges the run's spans into one Chrome trace file.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := l.rec.WriteChromeTrace(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lanes assigns overlapping intervals to the fewest rows, first fit in
// start order (the input must be sorted by start), so concurrent jobs
// render side by side instead of one row each.
func lanes(starts, ends []time.Time) []int {
	var laneEnd []time.Time
	out := make([]int, len(starts))
	for i, s := range starts {
		lane := -1
		for k, e := range laneEnd {
			if !e.After(s) {
				lane = k
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, time.Time{})
		}
		laneEnd[lane] = ends[i]
		out[i] = lane
	}
	return out
}
