package main

import (
	"math"
	"time"

	"lulesh/internal/dist"
	"lulesh/internal/perf"
	"lulesh/internal/stats"
)

// dist-latency: in-process dist.Run with dist.DefaultConfig(distSize,
// distRanks) — serial within each rank — plus a fixed injected one-way
// link latency. A repetition is one short run of distCycles cycles, so a
// run holds enough repetitions for the tail percentiles of the per-rank
// step time. The inputs are fixed, so the seed does not change them.
const (
	distSize    = 20
	distRanks   = 2
	distLatency = 200 * time.Microsecond
	distCycles  = 4
)

func distConfig(cycles int) dist.Config {
	cfg := dist.DefaultConfig(distSize, distRanks)
	cfg.Latency = distLatency
	cfg.MaxIterations = cycles
	return cfg
}

type distRep struct {
	traced bool
	wall   time.Duration
	cpu    time.Duration
	loop   time.Duration   // slowest rank's time in Step plus the dt allreduce
	rank   []time.Duration // per-rank loop time
	res    dist.Result
	ok     bool
}

func runDist(rc *runConfig) (*report, error) {
	cycles := distCycles
	ref := refs.Dist
	zones := distRanks * distSize * distSize * distSize
	rp := newReport()

	// Set-up: dist.Domains builds the cluster and every rank's slab the
	// way Run does, without stepping.
	setup, err := coldSetups(setupReps, func() (time.Duration, error) {
		t0 := time.Now()
		dist.Domains(distConfig(cycles))
		return time.Since(t0), nil
	})
	if err != nil {
		return nil, err
	}
	if _, err := dist.Run(distConfig(cycles)); err != nil { // warm-up
		return nil, err
	}

	start := time.Now()
	wlSpan := rc.spans.reserve()
	g0 := readGo()
	var reps []distRep
	fleetMerged := false
	for i := 0; another(rc, start, reps); i++ {
		cfg := distConfig(cycles)
		traced := rc.traced && i%2 == 1
		cfg.Trace = traced
		cpu0 := cpuTime()
		t0 := time.Now()
		res, err := dist.Run(cfg)
		if err != nil {
			return nil, err
		}
		rep := distRep{traced: traced, wall: time.Since(t0), cpu: cpuTime() - cpu0, res: res}
		for _, r := range res.Ranks {
			l := r.StepTime + r.Comm.WaitReduce
			rep.rank = append(rep.rank, l)
			if l > rep.loop {
				rep.loop = l
			}
		}
		rep.ok = res.Iterations == cycles && res.OriginEnergy == ref.Origin && res.TotalEnergy == ref.Total
		rp.attempted++
		if !rep.ok {
			rp.wrong++
			rp.notef("rep %d: origin %v total %v after %d cycles, reference %v / %v",
				i, res.OriginEnergy, res.TotalEnergy, res.Iterations, ref.Origin, ref.Total)
		}
		if traced && rc.spans != nil {
			rc.spans.add("rep", 0, t0, t0.Add(rep.wall), wlSpan)
			if !fleetMerged && res.Fleet != nil {
				merged, _ := res.Fleet.Merge()
				for _, ev := range merged.Events() {
					ev.PID += 10
					rc.spans.rec.RecordEvent(ev)
				}
				fleetMerged = true
			}
		}
		reps = append(reps, rep)
	}
	g1 := readGo()
	rc.spans.addID(wlSpan, "dist-latency", 0, start, time.Now(), 0)

	var grind, cpu, steps, loops []float64
	var okReps, totalCycles int
	for _, r := range reps {
		totalCycles += r.res.Iterations
		loops = append(loops, r.loop.Seconds())
		if r.ok {
			okReps++
		}
		if r.traced {
			continue
		}
		zc := float64(zones * r.res.Iterations)
		grind = append(grind, us(r.loop)/zc)
		cpu = append(cpu, us(r.cpu)/zc)
		for _, l := range r.rank {
			steps = append(steps, ms(l)/float64(r.res.Iterations))
		}
	}
	e := rp.e2e
	e["setup_s"] = median(setup)
	e["grind_us_zc"] = median(grind)
	e["cpu_us_zc"] = median(cpu)
	e["rss_peak_mb"] = peakRSSMB()
	e["goodput_jps"] = runsPerSecond(okReps, loops)
	if !rc.traced {
		if err := stepMetrics(e, [][]float64{steps}); err != nil {
			return nil, err
		}
	}

	m := rp.layer
	m["domain.build_ms"] = 1e3 * median(setup)
	distLayers(m, reps, zones)
	goDelta(m, g0, g1, totalCycles)
	return rp, nil
}

// distLayers fills the comm and dist layer metrics from the traced
// repetitions: message counters from dist.Result.Ranks[].Comm, the
// per-step compute/wait buckets from Result.Fleet.
func distLayers(m map[string]float64, reps []distRep, zones int) {
	var steps int
	var sent, bytes int64
	var ghost, reduce time.Duration
	var stall perf.StallReport
	var gTraced, gPlain, residual []float64
	rankCompute := make([]float64, distRanks)
	for _, r := range reps {
		g := us(r.loop) / float64(zones*r.res.Iterations)
		if !r.traced {
			gPlain = append(gPlain, g)
			continue
		}
		gTraced = append(gTraced, g)
		steps += r.res.Iterations
		var commWait time.Duration
		for _, rs := range r.res.Ranks {
			sent += rs.Comm.Sent
			bytes += rs.Comm.BytesSent
			ghost += rs.Comm.WaitGhost
			reduce += rs.Comm.WaitReduce
			commWait += rs.Comm.WaitGhost + rs.Comm.WaitReduce
		}
		if r.res.Fleet == nil {
			continue
		}
		sr := perf.BuildStallReport(r.res.Fleet)
		stall.WallNs += sr.WallNs
		stall.HeadroomNs += sr.HeadroomNs
		stall.ComputeNs += sr.ComputeNs
		stall.IdleNs += sr.IdleNs
		var wall, buckets int64
		for _, rt := range r.res.Fleet.Traces {
			for _, b := range rt.Steps {
				wall += b.WallNs
				buckets += b.ComputeNs + b.GhostNs + b.ReduceNs + b.IdleNs
				rankCompute[rt.Rank] += float64(b.ComputeNs)
			}
		}
		// The books: the per-step buckets must sum to the step walls, and
		// their waits must match the endpoints' own wait counters.
		off := math.Abs(float64(buckets-wall)) +
			math.Abs(float64(sr.GhostNs+sr.ReduceNs)-float64(commWait))
		if wall > 0 {
			residual = append(residual, 100*off/float64(wall))
		}
	}
	if steps == 0 {
		return
	}
	perStep := func(x float64) float64 { return x / float64(steps) }
	m["comm.msgs_per_step"] = perStep(float64(sent))
	m["comm.bytes_per_step"] = perStep(float64(bytes))
	m["comm.ghost_wait_ms_per_step"] = perStep(ms(ghost)) / distRanks
	m["comm.allreduce_wait_ms_per_step"] = perStep(ms(reduce)) / distRanks
	m["dist.compute_ms_per_step"] = perStep(float64(stall.ComputeNs)/1e6) / distRanks
	m["dist.steal_idle_ms_per_step"] = perStep(float64(stall.IdleNs)/1e6) / distRanks
	if stall.WallNs > 0 {
		m["dist.overlap_headroom_pct"] = 100 * float64(stall.HeadroomNs) / float64(stall.WallNs)
	}
	m["dist.rank_imbalance"] = stats.Imbalance(rankCompute)
	m["amt.books_residual_pct"] = median(residual)
	if len(gPlain) > 0 {
		m["trace.overhead_pct"] = 100 * (median(gTraced)/median(gPlain) - 1)
	}
}
