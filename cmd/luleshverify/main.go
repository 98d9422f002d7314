// Command luleshverify is the artifact-style correctness gate: it runs the
// selected scenario on every backend and checks
//
//  1. bitwise agreement of the full simulation state across backends and
//     thread counts, and across every on/off combination of the task
//     backend's toggles,
//  2. bitwise agreement between the synchronous and asynchronous
//     multi-domain schedules,
//  3. an exact checkpoint round trip: save mid-run, restore, continue,
//     compare against the uninterrupted run bit for bit — and reject a
//     checkpoint whose scenario tag mismatches the run,
//  4. scenario physics: axis symmetry and the energy budget for the blast
//     scenarios (sedov, multimat — the Sedov problem is invariant under
//     coordinate permutation and creates no energy), shock-front position
//     and cold-gas-ahead for piston, per-region mass conservation for
//     multimat.
//
// It exits non-zero on the first violation.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"

	"lulesh/internal/checkpoint"
	"lulesh/internal/core"
	"lulesh/internal/dist"
	"lulesh/internal/domain"
	"lulesh/internal/perf"
)

var failed bool

func check(name string, ok bool, detail string) {
	status := "ok"
	if !ok {
		status = "FAIL"
		failed = true
	}
	fmt.Printf("  [%4s] %-46s %s\n", status, name, detail)
}

func main() {
	size := flag.Int("s", 8, "problem size")
	steps := flag.Int("i", 20, "iterations to verify over")
	scenario := flag.String("scenario", "", "problem scenario: name[:key=val,...] (\"\" = sedov)")
	netMode := flag.Bool("net", false,
		"also prove multi-process (TCP) runs bitwise identical to in-process ones")
	netWorker := flag.Bool("net-worker", false, "internal: run as one wire worker of a -net check")
	netRank := flag.Int("net-rank", 0, "internal: worker rank")
	netRanks := flag.Int("net-ranks", 0, "internal: fabric size")
	netRendezvous := flag.String("net-rendezvous", "", "internal: bootstrap address")
	netCookie := flag.String("net-cookie", "", "internal: handshake secret")
	netFinal := flag.String("net-final", "", "internal: final-state output file")
	netOverlap := flag.Bool("net-overlap", false, "internal: worker runs the overlapped schedule")
	flag.Parse()
	threads := runtime.GOMAXPROCS(0)

	spec, err := domain.ParseScenarioSpec(*scenario)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
		os.Exit(2)
	}
	if err := domain.ValidateScenarioSpec(spec); err != nil {
		fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
		os.Exit(2)
	}

	if *netWorker {
		runNetWorker(*size, *steps, spec, *netRank, *netRanks, *netRendezvous, *netCookie, *netFinal, *netOverlap)
		return
	}

	fmt.Printf("Verifying %d^3 %s problem over %d iterations\n\n", *size, spec.String(), *steps)

	cfg := domain.DefaultConfig(*size)
	build := func() *domain.Domain {
		d, err := domain.BuildScenarioCube(spec, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
			os.Exit(1)
		}
		return d
	}
	runBackend := func(mk func(*domain.Domain) core.Backend) *domain.Domain {
		d := build()
		b := mk(d)
		defer b.Close()
		if _, err := core.Run(d, b, core.RunConfig{MaxIterations: *steps}); err != nil {
			fmt.Fprintf(os.Stderr, "run failed: %v\n", err)
			os.Exit(1)
		}
		return d
	}

	ref := runBackend(func(d *domain.Domain) core.Backend { return core.NewBackendSerial(d) })

	// 1. Cross-backend bitwise equality.
	backends := []struct {
		name string
		mk   func(*domain.Domain) core.Backend
	}{
		{"omp", func(d *domain.Domain) core.Backend { return core.NewBackendOMP(d, threads) }},
		{"naive", func(d *domain.Domain) core.Backend { return core.NewBackendNaive(d, threads) }},
		{"task", func(d *domain.Domain) core.Backend {
			return core.NewBackendTask(d, core.DefaultOptions(*size, threads))
		}},
	}
	for _, bk := range backends {
		got := runBackend(bk.mk)
		same := equalState(ref, got)
		check("bitwise vs serial: "+bk.name, same, fmt.Sprintf("e0=%.9e", got.E[0]))
	}

	// 1a. Observability is read-only: a task-backend run with the perf
	// profiler attached (per-phase counters recording every task) must stay
	// bitwise identical to serial.
	prof := perf.NewProfiler(threads, 0)
	got := runBackend(func(d *domain.Domain) core.Backend {
		b := core.NewBackendTask(d, core.DefaultOptions(*size, threads))
		b.SetProfiler(prof)
		return b
	})
	check("bitwise vs serial: task+profiler", equalState(ref, got),
		fmt.Sprintf("recorded %d tasks", prof.Snapshot().Tasks))

	// 1b. The task backend's toggles are scheduling-only: every on/off
	// combination of the paper's four techniques and steal-half must stay
	// bitwise identical to serial.
	for mask := 0; mask < 32; mask++ {
		opt := core.DefaultOptions(*size, threads)
		opt.Chain = mask&1 != 0
		opt.Fuse = mask&2 != 0
		opt.ParallelForces = mask&4 != 0
		opt.ParallelRegions = mask&8 != 0
		opt.StealHalf = mask&16 != 0
		got := runBackend(func(d *domain.Domain) core.Backend {
			return core.NewBackendTask(d, opt)
		})
		name := fmt.Sprintf("task chain=%d fuse=%d forces=%d regions=%d half=%d",
			mask&1, mask>>1&1, mask>>2&1, mask>>3&1, mask>>4&1)
		check(name, equalState(ref, got), fmt.Sprintf("e0=%.9e", got.E[0]))
	}

	// 2. Distributed schedules agree bitwise with each other: every
	// combination of the overlap toggles — boundary-first scheduling and
	// the binomial-tree allreduce — must leave every state array of every rank bit-for-bit equal to the plain
	// synchronous schedule.
	dcfg := dist.Config{
		Nx: *size, Ny: *size, NzPerRank: *size, Ranks: 2,
		NumReg: cfg.NumReg, Balance: 1, Cost: 1, MaxIterations: *steps,
		Scenario: spec,
	}
	_, syncDoms, err := dist.RunDomains(dcfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist sync failed: %v\n", err)
		os.Exit(1)
	}
	for mask := 1; mask < 4; mask++ {
		ocfg := dcfg
		ocfg.Async = mask&1 != 0
		ocfg.TreeReduce = mask&2 != 0
		_, doms, err := dist.RunDomains(ocfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dist %s failed: %v\n", ocfg.Schedule(), err)
			os.Exit(1)
		}
		same := len(doms) == len(syncDoms)
		for r := 0; same && r < len(doms); r++ {
			same = equalState(syncDoms[r], doms[r])
		}
		check(fmt.Sprintf("dist sync == %s (2 ranks)", ocfg.Schedule()), same,
			fmt.Sprintf("e0=%.9e", doms[0].E[0]))
	}

	// 2a. The TCP fabric is invisible: multi-process runs (one OS process
	// per rank, exchanges over localhost sockets) end bitwise identical to
	// the in-process runs with the same decomposition — including when the
	// workers run the fully overlapped schedule against a synchronous
	// in-process ground truth, which proves schedule and transport are
	// independent in one shot.
	if *netMode {
		netCheck(*size, *steps, spec, 8, false)
		netCheck(*size, *steps, spec, 1, false)
		netCheck(*size, *steps, spec, 8, true)
	}

	// 3. Checkpoint round trip: interrupt at half distance, restore through
	// the scenario registry, continue — the result must equal the
	// uninterrupted reference bit for bit, and the restored tag must match.
	checkpointRoundTrip(ref, spec, cfg, *steps)

	// 4. Scenario physics.
	name := spec.Name
	if name == "" {
		name = domain.ScenarioSedov
	}
	switch name {
	case domain.ScenarioSedov, domain.ScenarioMultimat:
		// Both run the Sedov blast (multimat changes only the region
		// decomposition), so symmetry and the energy budget apply.
		maxAsym := axisAsymmetry(ref)
		check("axis symmetry", maxAsym < 1e-9, fmt.Sprintf("max rel asym %.2e", maxAsym))

		e0 := initialEnergy(build())
		internal, kinetic := energies(ref)
		total := internal + kinetic
		check("no energy creation", total <= e0*(1+1e-9),
			fmt.Sprintf("total/e0 = %.6f", total/e0))
		check("bounded dissipation", total >= 0.7*e0,
			fmt.Sprintf("loss %.1f%%", 100*(e0-total)/e0))
		if name == domain.ScenarioMultimat {
			checkRegionMass(build(), ref)
		}
	case domain.ScenarioPiston:
		checkPiston(ref)
	}

	if failed {
		fmt.Println("\nVERIFICATION FAILED")
		os.Exit(1)
	}
	fmt.Println("\nAll checks passed.")
}

// checkpointRoundTrip proves save/restore is exact for the scenario: the
// interrupted-and-resumed run must end bit-for-bit equal to ref, and the
// restore path must reject a deliberately mismatched scenario tag.
func checkpointRoundTrip(ref *domain.Domain, spec domain.ScenarioSpec, cfg domain.Config, steps int) {
	half := steps / 2
	d, err := domain.BuildScenarioCube(spec, cfg)
	if err != nil {
		check("checkpoint round trip", false, err.Error())
		return
	}
	b := core.NewBackendSerial(d)
	if _, err := core.Run(d, b, core.RunConfig{MaxIterations: half}); err != nil {
		b.Close()
		check("checkpoint round trip", false, err.Error())
		return
	}
	var buf bytes.Buffer
	if err := checkpoint.SaveCube(&buf, d, cfg); err != nil {
		b.Close()
		check("checkpoint round trip", false, err.Error())
		return
	}
	b.Close()

	resumed, err := checkpoint.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		check("checkpoint round trip", false, err.Error())
		return
	}
	if err := checkpoint.ExpectScenario(resumed, spec); err != nil {
		check("checkpoint round trip", false, err.Error())
		return
	}
	b2 := core.NewBackendSerial(resumed)
	defer b2.Close()
	// MaxIterations caps the absolute cycle count, so the resumed run
	// carries the same cap as the reference.
	if _, err := core.Run(resumed, b2, core.RunConfig{MaxIterations: steps}); err != nil {
		check("checkpoint round trip", false, err.Error())
		return
	}
	check("checkpoint round trip (restore via registry)", equalState(ref, resumed),
		fmt.Sprintf("resumed at cycle %d", half))

	// The guard must reject a tag that names a different scenario.
	other := domain.ScenarioSpec{Name: domain.ScenarioPiston,
		Options: map[string]string{"speed": "42"}}
	if resumed.Scenario.Equal(other) {
		other = domain.ScenarioSpec{Name: domain.ScenarioSedov}
	}
	err = checkpoint.ExpectScenario(resumed, other)
	check("checkpoint scenario mismatch rejected",
		errors.Is(err, checkpoint.ErrScenarioMismatch),
		fmt.Sprintf("tag %s vs run %s", resumed.Scenario.String(), other.String()))
}

// checkPiston verifies the piston scenario's physics on the final state: a
// shock front exists, it sits inside the box (the face has moved inward),
// gas well ahead of the front is still cold, and the piston has done
// positive work on the gas.
func checkPiston(d *domain.Domain) {
	h := 1.125 / float64(d.Mesh.EdgeElems)
	front := math.Inf(1)
	var x, y, z [8]float64
	center := func(e int) float64 {
		d.CollectElemNodes(e, &x, &y, &z)
		c := 0.0
		for _, v := range x {
			c += v
		}
		return c / 8
	}
	for e := 0; e < d.NumElem(); e++ {
		if d.P[e] > 1e-6 && center(e) < front {
			front = center(e)
		}
	}
	check("piston shock front exists", !math.IsInf(front, 1),
		fmt.Sprintf("front x=%.4f", front))
	if math.IsInf(front, 1) {
		return
	}
	cold := true
	worst := 0.0
	for e := 0; e < d.NumElem(); e++ {
		if center(e) < front-2*h && math.Abs(d.P[e]) > 1e-6 {
			cold = false
			worst = math.Max(worst, math.Abs(d.P[e]))
		}
	}
	check("gas ahead of front is cold", cold, fmt.Sprintf("max |p| ahead %.2e", worst))
	internal, kinetic := energies(d)
	check("piston does positive work", internal+kinetic > 0,
		fmt.Sprintf("E=%.6e", internal+kinetic))
}

// checkRegionMass verifies per-region mass conservation for multimat: the
// mass of every region, recomputed from the deformed geometry and the EOS
// density, must match the initial region mass.
func checkRegionMass(initial, final *domain.Domain) {
	ref := regionMasses(initial)
	got := regionMasses(final)
	worst := 0.0
	for r := range ref {
		if ref[r] == 0 {
			continue
		}
		worst = math.Max(worst, math.Abs(got[r]-ref[r])/ref[r])
	}
	check("per-region mass conserved", worst < 1e-8,
		fmt.Sprintf("%d regions, max drift %.2e", len(ref), worst))
}

func regionMasses(d *domain.Domain) []float64 {
	masses := make([]float64, d.Regions.NumReg)
	var x, y, z [8]float64
	for r, list := range d.Regions.ElemList {
		for _, e := range list {
			d.CollectElemNodes(int(e), &x, &y, &z)
			masses[r] += d.Par.RefDens / d.V[e] * domain.ElemVolume(&x, &y, &z)
		}
	}
	return masses
}

func equalState(a, b *domain.Domain) bool {
	pairs := [][2][]float64{
		{a.X, b.X}, {a.Y, b.Y}, {a.Z, b.Z},
		{a.Xd, b.Xd}, {a.Yd, b.Yd}, {a.Zd, b.Zd},
		{a.E, b.E}, {a.P, b.P}, {a.Q, b.Q}, {a.V, b.V}, {a.SS, b.SS},
	}
	for _, pr := range pairs {
		for i := range pr[0] {
			if pr[0][i] != pr[1][i] {
				return false
			}
		}
	}
	return a.Time == b.Time && a.Cycle == b.Cycle
}

func axisAsymmetry(d *domain.Domain) float64 {
	en := d.Mesh.EdgeNodes
	node := func(i, j, k int) int { return k*en*en + j*en + i }
	worst := 0.0
	rel := func(a, b float64) float64 {
		den := math.Max(math.Abs(a), math.Abs(b))
		if den < 1e-300 {
			return 0
		}
		return math.Abs(a-b) / den
	}
	for k := 0; k < en; k++ {
		for j := 0; j < en; j++ {
			for i := 0; i < en; i++ {
				a := node(i, j, k)
				b := node(j, i, k)
				worst = math.Max(worst, rel(d.X[a], d.Y[b]))
				worst = math.Max(worst, rel(d.Y[a], d.X[b]))
				c := node(i, k, j)
				worst = math.Max(worst, rel(d.Y[a], d.Z[c]))
			}
		}
	}
	return worst
}

func initialEnergy(d *domain.Domain) float64 {
	e := 0.0
	for i := range d.E {
		e += d.E[i] * d.Volo[i]
	}
	return e
}

func energies(d *domain.Domain) (internal, kinetic float64) {
	for e := 0; e < d.NumElem(); e++ {
		internal += d.E[e] * d.Volo[e]
	}
	for n := 0; n < d.NumNode(); n++ {
		v2 := d.Xd[n]*d.Xd[n] + d.Yd[n]*d.Yd[n] + d.Zd[n]*d.Zd[n]
		kinetic += 0.5 * d.NodalMass[n] * v2
	}
	return
}
