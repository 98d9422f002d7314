package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"lulesh/internal/amt"
	"lulesh/internal/core"
	"lulesh/internal/domain"
	"lulesh/internal/perf"
	"lulesh/internal/stats"
)

// simWorkload is a single-node task-backend run: the scenario is built,
// a BackendTask with core.DefaultOptions is created, and core.Run drives
// it; its Progress callback timestamps every cycle. One repetition is one
// complete run of cycles cycles. The inputs are fixed, so the seed does
// not change them.
type simWorkload struct {
	scenario string
	size     int
	cycles   int
}

// simRep is one repetition's measurements.
type simRep struct {
	traced         bool
	loop, wall     time.Duration
	cpu            time.Duration
	cycles         int
	energy, time   float64   // final origin energy and simulation time
	steps          []float64 // per-cycle wall, ms
	ok             bool
	ctr            amt.Counters
	prof           perf.Snapshot
	profTasksMinus int64 // profiler task count − Counters().Tasks
}

func runSim(name string, w simWorkload, rc *runConfig) (*report, error) {
	spec, err := domain.ParseScenarioSpec(w.scenario)
	if err != nil {
		return nil, err
	}
	cycles := w.cycles
	ref, ok := refs.Sim[name]
	if !ok {
		return nil, fmt.Errorf("%s: no reference energy", name)
	}
	zones := w.size * w.size * w.size

	// Set-up: scenario build plus backend construction, timed apart from
	// the repetitions (which also build their own).
	var build, bnew []float64
	setup, err := coldSetups(setupReps, func() (time.Duration, error) {
		t0 := time.Now()
		d, err := domain.BuildScenarioCube(spec, domain.DefaultConfig(w.size))
		if err != nil {
			return 0, err
		}
		t1 := time.Now()
		b := core.NewBackendTask(d, core.DefaultOptions(w.size, rc.workers))
		t2 := time.Now()
		b.Close()
		build = append(build, ms(t1.Sub(t0)))
		bnew = append(bnew, ms(t2.Sub(t1)))
		return t2.Sub(t0), nil
	})
	if err != nil {
		return nil, err
	}

	// Warm-up: page in the code paths and the allocator before timing.
	if _, err := simOnce(spec, w, rc.workers, 5, false, nil, 0); err != nil {
		return nil, err
	}

	rp := newReport()
	start := time.Now()
	wlSpan := rc.spans.reserve()
	g0 := readGo()
	var reps []simRep
	for i := 0; another(rc, start, reps); i++ {
		traced := rc.traced && i%2 == 1
		settle()
		rep, err := simOnce(spec, w, rc.workers, cycles, traced, rc.spans, wlSpan)
		if err != nil {
			return nil, err
		}
		rep.ok = rep.cycles == cycles && rep.energy == ref.Origin && rep.time == ref.Time
		rp.attempted++
		if !rep.ok {
			rp.wrong++
			rp.notef("rep %d: origin energy %v at time %v after %d cycles, reference %v at %v",
				i, rep.energy, rep.time, rep.cycles, ref.Origin, ref.Time)
		}
		reps = append(reps, rep)
	}
	g1 := readGo()
	end := time.Now()
	rc.spans.addID(wlSpan, name, 0, start, end, 0)

	var grind, cpu, loops []float64
	var steps [][]float64 // one window per two untraced repetitions
	var okReps, totalCycles, plain int
	for _, r := range reps {
		totalCycles += r.cycles
		loops = append(loops, r.loop.Seconds())
		if r.ok {
			okReps++
		}
		if !r.traced {
			grind = append(grind, us(r.loop)/float64(zones*r.cycles))
			cpu = append(cpu, us(r.cpu)/float64(zones*r.cycles))
			if plain%2 == 0 {
				steps = append(steps, nil)
			}
			steps[len(steps)-1] = append(steps[len(steps)-1], r.steps...)
			plain++
		}
	}
	e := rp.e2e
	e["setup_s"] = median(setup)
	e["grind_us_zc"] = median(grind)
	e["cpu_us_zc"] = median(cpu)
	e["rss_peak_mb"] = peakRSSMB()
	e["goodput_jps"] = runsPerSecond(okReps, loops)
	if !rc.traced {
		// An odd last repetition joins the window before it.
		if n := len(steps); plain%2 == 1 && n > 1 {
			steps = append(steps[:n-2], append(steps[n-2], steps[n-1]...))
		}
		if err := stepMetrics(e, steps); err != nil {
			return nil, err
		}
	}
	rp.layer["domain.build_ms"] = median(build)
	rp.layer["core.backend_new_ms"] = median(bnew)
	simLayers(rp.layer, reps, zones, rc.workers)
	goDelta(rp.layer, g0, g1, totalCycles)
	return rp, nil
}

// runsPerSecond is a closed loop's goodput: the share of repetitions
// whose output checked correct over the median repetition loop time.
func runsPerSecond(ok int, loopSeconds []float64) float64 {
	if len(loopSeconds) == 0 {
		return 0
	}
	return float64(ok) / float64(len(loopSeconds)) / median(loopSeconds)
}

// stepMetrics fills the cycle-latency metrics from windows of samples:
// each is the median over the windows of the window's percentile. A
// simulation runs at one load level, so its low- and high-load latency
// figures are the same cycle-latency distribution.
func stepMetrics(e map[string]float64, steps [][]float64) error {
	for _, q := range []struct {
		names []string
		q     float64
	}{
		{[]string{"step_ms_p50", "latency_low_ms_p50", "latency_high_ms_p50"}, 0.50},
		{[]string{"step_ms_p90"}, 0.90},
		{[]string{"latency_low_ms_p95", "latency_high_ms_p95"}, 0.95},
	} {
		v, err := windowedQuantile(steps, q.q)
		if err != nil {
			return fmt.Errorf("cycle latency: %w", err)
		}
		for _, n := range q.names {
			e[n] = v
		}
	}
	return nil
}

// simOnce builds the scenario and backend, runs cycles cycles through
// core.Run and quiesces the backend before reading its counters. A
// cycle's time runs from the previous Progress callback (the first from
// the call of core.Run) to its own. With traced set it attaches a
// span-recording profiler and logs setup and cycle spans.
func simOnce(spec domain.ScenarioSpec, w simWorkload, workers, cycles int,
	traced bool, spans *spanLog, parent float64) (simRep, error) {

	rep := simRep{traced: traced}
	t0 := time.Now()
	d, err := domain.BuildScenarioCube(spec, domain.DefaultConfig(w.size))
	if err != nil {
		return rep, err
	}
	b := core.NewBackendTask(d, core.DefaultOptions(w.size, workers))
	var prof *perf.Profiler
	if traced {
		prof = perf.NewProfiler(workers, spanRingCap)
		b.SetProfiler(prof)
	}
	rep.steps = make([]float64, 0, cycles)
	cycleEnd := make([]time.Time, 0, cycles)
	cpu0 := cpuTime()
	loopStart := time.Now()
	last := loopStart
	res, err := core.Run(d, b, core.RunConfig{
		MaxIterations: cycles,
		Progress: func(int, float64, float64) {
			now := time.Now()
			rep.steps = append(rep.steps, ms(now.Sub(last)))
			cycleEnd = append(cycleEnd, now)
			last = now
		},
	})
	rep.loop = time.Since(loopStart)
	rep.cpu = cpuTime() - cpu0
	// Close quiesces the pool: every task body and its profiler record
	// have finished before the counters are read.
	b.Close()
	if err != nil {
		return rep, err
	}
	rep.wall = time.Since(t0)
	rep.ctr = b.Counters()
	rep.cycles, rep.energy, rep.time = res.Iterations, res.OriginEnergy, res.FinalTime
	if traced {
		rep.prof = prof.Snapshot()
		rep.profTasksMinus = rep.prof.Tasks - rep.ctr.Tasks
		if spans != nil {
			rid := spans.add("rep", 0, t0, t0.Add(rep.wall), parent)
			spans.add("setup", 0, t0, loopStart, rid)
			start := loopStart
			for _, end := range cycleEnd {
				spans.add("cycle", 0, start, end, rid)
				start = end
			}
			if !spans.workersDrained {
				prof.DrainSpans(spans.rec)
				spans.workersDrained = true
			}
		}
	}
	return rep, nil
}

// simLayers fills the kernels and amt layer metrics from the traced
// repetitions.
func simLayers(m map[string]float64, reps []simRep, zones, workers int) {
	var gTraced, gPlain []float64
	var cycles int
	var loop time.Duration
	var ctr amt.Counters
	var phaseBusy, phaseN = map[string]time.Duration{}, map[string]int64{}
	var qwait, profBusy time.Duration
	var hist stats.Histogram
	var mismatch int64
	var residual []float64
	for _, r := range reps {
		g := us(r.loop) / float64(zones*r.cycles)
		if !r.traced {
			gPlain = append(gPlain, g)
			continue
		}
		gTraced = append(gTraced, g)
		cycles += r.cycles
		loop += r.loop
		ctr.Tasks += r.ctr.Tasks
		ctr.Steals += r.ctr.Steals
		ctr.Stolen += r.ctr.Stolen
		ctr.Parks += r.ctr.Parks
		ctr.Parked += r.ctr.Parked
		ctr.AffHits += r.ctr.AffHits
		ctr.AffMisses += r.ctr.AffMisses
		mismatch += r.profTasksMinus
		var busy time.Duration
		for _, ps := range r.prof.Phases {
			phaseBusy[ps.Name] += ps.Busy
			phaseN[ps.Name] += ps.Count
			qwait += ps.QueueWait
			busy += ps.Busy
			h := ps.Hist
			hist.Merge(&h)
		}
		profBusy += busy
		// The books: Σ phase busy (profiler) + spin idle + parked
		// (scheduler counters) against loop wall × workers (benchmark
		// clock).
		capacity := float64(r.loop) * float64(r.ctr.Workers)
		spin := float64(r.ctr.Utilizable - r.ctr.Busy - r.ctr.Parked)
		got := float64(busy) + spin + float64(r.ctr.Parked)
		residual = append(residual, 100*math.Abs(capacity-got)/capacity)
	}
	if cycles == 0 {
		return
	}
	zc := float64(zones * cycles)
	for _, ph := range kernelPhases {
		m["kernels."+ph+".busy_ns_zc"] = float64(phaseBusy[ph]) / zc
		m["kernels."+ph+".tasks_per_cycle"] = float64(phaseN[ph]) / float64(cycles)
	}
	perCycle := func(x float64) float64 { return x / float64(cycles) }
	m["amt.tasks_per_cycle"] = perCycle(float64(ctr.Tasks))
	m["amt.steals_per_cycle"] = perCycle(float64(ctr.Steals))
	m["amt.stolen_per_steal"] = ctr.FramesPerSteal()
	m["amt.parks_per_cycle"] = perCycle(float64(ctr.Parks))
	m["amt.parked_ms_per_cycle"] = perCycle(ms(ctr.Parked))
	m["amt.queue_wait_ms_per_cycle"] = perCycle(ms(qwait))
	m["amt.task_us_p50"] = us(hist.P50())
	m["amt.utilization"] = float64(profBusy) / (float64(loop) * float64(workers))
	m["amt.affinity_hit_rate"], _ = ctr.AffinityHitRate()
	m["amt.count_mismatch"] = float64(mismatch)
	m["amt.books_residual_pct"] = median(residual)
	if len(gPlain) > 0 {
		m["trace.overhead_pct"] = 100 * (median(gTraced)/median(gPlain) - 1)
	}
}

// kernelPhases are the core.PhaseNames the kernels layer reports.
var kernelPhases = []string{"force", "nodal", "elements", "eos-regions", "volumes", "constraints"}

// settle collects the previous repetition's garbage before the next one
// starts, so no repetition pays for another's heap.
func settle() { runtime.GC() }

// setupReps is how many set-ups a run times; setup_s is their median.
const setupReps = 31

// coldSetups calls setup reps times, each time from a heap returned to
// the operating system, as a fresh process starts, and returns the
// durations setup reports, in seconds. Timed back to back from a warm
// heap, a set-up pays page faults or not depending on what the Go
// scavenger happened to release, and the median moved by 20-40% between
// runs.
func coldSetups(reps int, setup func() (time.Duration, error)) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		debug.FreeOSMemory()
		d, err := setup()
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}
