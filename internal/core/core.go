// Package core implements the paper's contribution: a many-task-based
// LULESH orchestration (BackendTask) plus the comparators it is evaluated
// against — a sequential backend, a fork-join "OpenMP reference" backend,
// and a naive hpx::for_each-style backend. All backends run the identical
// kernels from internal/kernels in the identical floating-point order, so
// their results are bitwise comparable; they differ only in how the work is
// scheduled, which is exactly the variable the paper studies.
package core

import (
	"fmt"
	"time"

	"lulesh/internal/domain"
)

// Backend advances a LULESH domain by one leapfrog iteration under some
// parallel execution strategy.
type Backend interface {
	// Name identifies the backend in harness output.
	Name() string
	// Step performs one LagrangeLeapFrog iteration (nodal update, element
	// update, time constraints). The caller runs TimeIncrement first.
	Step(d *domain.Domain) error
	// Utilization reports the productive-time ratio accumulated since the
	// last ResetCounters, and whether the backend measures one.
	Utilization() (float64, bool)
	// ResetCounters restarts utilization accounting.
	ResetCounters()
	// Close releases worker threads. The backend is unusable afterwards.
	Close()
}

// SpanObserver receives one callback per executed task (AMT backends) or
// per region body (fork-join backend), for feeding a trace.Recorder
// timeline. Backends implementing TraceSource accept one.
type SpanObserver = func(worker int, start time.Time, dur time.Duration)

// TraceSource is implemented by backends whose runtime can report
// execution spans.
type TraceSource interface {
	SetObserver(SpanObserver)
}

// TimeIncrement computes the next time step from the constraint minima and
// advances the simulation clock, exactly as the reference's TimeIncrement.
func TimeIncrement(d *domain.Domain) {
	targetdt := d.Par.StopTime - d.Time

	if d.Par.DtFixed <= 0 && d.Cycle != 0 {
		olddt := d.Deltatime
		gnewdt := 1.0e20
		if d.Dtcourant < gnewdt {
			gnewdt = d.Dtcourant / 2.0
		}
		if d.Dthydro < gnewdt {
			gnewdt = d.Dthydro * 2.0 / 3.0
		}
		newdt := gnewdt
		ratio := newdt / olddt
		if ratio >= 1.0 {
			if ratio < d.Par.DeltaTimeMultLB {
				newdt = olddt
			} else if ratio > d.Par.DeltaTimeMultUB {
				newdt = olddt * d.Par.DeltaTimeMultUB
			}
		}
		if newdt > d.Par.DtMax {
			newdt = d.Par.DtMax
		}
		d.Deltatime = newdt
	} else if d.Par.DtFixed > 0 {
		d.Deltatime = d.Par.DtFixed
	}

	// Try to prevent very small scaling on the next cycle.
	if targetdt > d.Deltatime && targetdt < 4.0*d.Deltatime/3.0 {
		targetdt = 2.0 * d.Deltatime / 3.0
	}
	if targetdt < d.Deltatime {
		d.Deltatime = targetdt
	}

	d.Time += d.Deltatime
	d.Cycle++
}

// Result summarizes a completed run.
type Result struct {
	Backend      string
	Size         int
	Regions      int
	Threads      int
	Iterations   int           // cycles executed
	Elapsed      time.Duration // wall time of the iteration loop
	FinalTime    float64       // simulation time reached
	OriginEnergy float64       // e(0), the reference's figure of merit
	Utilization  float64       // productive-time ratio, if measured
	HasUtil      bool
}

// FOM is the reference's figure of merit: thousands of element updates per
// second (numElem * iterations / elapsed / 1000).
func (r Result) FOM() float64 {
	ne := r.Size * r.Size * r.Size
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(ne) * float64(r.Iterations) / r.Elapsed.Seconds() / 1000.0
}

// CSVHeader matches the artifact-evaluation column set of the paper.
func CSVHeader() string {
	return "size,regions,iterations,threads,runtime,result"
}

// CSVLine renders one result row in the artifact's CSV format (runtime in
// seconds, result = final origin energy).
func (r Result) CSVLine() string {
	return fmt.Sprintf("%d,%d,%d,%d,%.6f,%.6e",
		r.Size, r.Regions, r.Iterations, r.Threads, r.Elapsed.Seconds(), r.OriginEnergy)
}

// RunConfig controls a driver run.
type RunConfig struct {
	// MaxIterations stops the run after this many cycles when > 0 (the
	// reference's --i flag); otherwise the run continues until the
	// simulation reaches its stop time.
	MaxIterations int

	// Progress, when non-nil, is invoked after every cycle with the cycle
	// number, simulation time and time increment — the reference's -p
	// per-iteration printout, decoupled from I/O.
	Progress func(cycle int, time, dt float64)

	// Interrupt, when non-nil, is polled before every cycle; a true
	// return stops the run at that step boundary with ErrInterrupted.
	// This is the cancellation point for served jobs: between cycles no
	// tasks are in flight, so stopping here never strands a latch or a
	// future, and the domain is left in a consistent post-cycle state.
	Interrupt func() bool
}

// ErrInterrupted is returned by Run when RunConfig.Interrupt stopped the
// run before reaching the stop time or the iteration cap.
var ErrInterrupted = fmt.Errorf("run interrupted")

// Run drives d to completion (or the iteration cap) using backend b and
// returns run statistics. Counters are reset at the start so Utilization
// covers exactly this run.
func Run(d *domain.Domain, b Backend, cfg RunConfig) (Result, error) {
	b.ResetCounters()
	start := time.Now()
	for d.Time < d.Par.StopTime {
		if cfg.MaxIterations > 0 && d.Cycle >= cfg.MaxIterations {
			break
		}
		if cfg.Interrupt != nil && cfg.Interrupt() {
			return Result{}, ErrInterrupted
		}
		TimeIncrement(d)
		if err := b.Step(d); err != nil {
			return Result{}, fmt.Errorf("cycle %d: %w", d.Cycle, err)
		}
		if cfg.Progress != nil {
			cfg.Progress(d.Cycle, d.Time, d.Deltatime)
		}
	}
	elapsed := time.Since(start)
	util, hasUtil := b.Utilization()
	return Result{
		Backend:      b.Name(),
		Size:         d.Mesh.EdgeElems,
		Regions:      d.Regions.NumReg,
		Threads:      backendThreads(b),
		Iterations:   d.Cycle,
		Elapsed:      elapsed,
		FinalTime:    d.Time,
		OriginEnergy: d.E[0],
		Utilization:  util,
		HasUtil:      hasUtil,
	}, nil
}

// threader is implemented by backends that know their thread count.
type threader interface{ Threads() int }

func backendThreads(b Backend) int {
	if t, ok := b.(threader); ok {
		return t.Threads()
	}
	return 1
}
