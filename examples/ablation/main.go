// Ablation quantifies the contribution of each tasking technique from
// Section IV of the paper by disabling one at a time in the task backend
// and comparing runtimes — plus a "none" variant with every technique off,
// which degenerates to partitioned tasks with a barrier after every stage.
package main

import (
	"fmt"
	"log"
	"os"
	"runtime"

	"lulesh/internal/core"
	"lulesh/internal/domain"
	"lulesh/internal/stats"
)

func main() {
	const size = 16
	const iters = 30
	threads := runtime.GOMAXPROCS(0)

	variants := []struct {
		name string
		mod  func(*core.Options)
	}{
		{"full (paper config)", func(o *core.Options) {}},
		{"no cross-loop chains", func(o *core.Options) { o.Chain = false }},
		{"no kernel fusion", func(o *core.Options) { o.Fuse = false }},
		{"no parallel force families", func(o *core.Options) { o.ParallelForces = false }},
		{"no parallel regions", func(o *core.Options) { o.ParallelRegions = false }},
		{"none (Fig 5 style)", func(o *core.Options) {
			o.Chain = false
			o.Fuse = false
			o.ParallelForces = false
			o.ParallelRegions = false
		}},
	}

	fmt.Printf("Technique ablation on a %d^3 Sedov problem, %d iterations, %d threads\n\n",
		size, iters, threads)
	t := stats.NewTable("variant", "runtime [s]", "vs full", "utilization")

	var base float64
	var baseEnergy float64
	for i, v := range variants {
		d := domain.NewSedov(domain.DefaultConfig(size))
		opt := core.DefaultOptions(size, threads)
		v.mod(&opt)
		b := core.NewBackendTask(d, opt)
		res, err := core.Run(d, b, core.RunConfig{MaxIterations: iters})
		b.Close()
		if err != nil {
			log.Fatalf("%s: %v", v.name, err)
		}
		sec := res.Elapsed.Seconds()
		if i == 0 {
			base = sec
			baseEnergy = res.OriginEnergy
		} else if res.OriginEnergy != baseEnergy {
			log.Fatalf("%s: result changed (%v vs %v) — ablations must be "+
				"performance-only", v.name, res.OriginEnergy, baseEnergy)
		}
		t.AddRow(v.name, sec, fmt.Sprintf("%.2fx", sec/base), res.Utilization)
	}
	t.Write(os.Stdout)
	fmt.Println("\nEvery variant computes the bitwise-identical physics; the")
	fmt.Println("techniques trade scheduling overhead and parallel slack only.")
}
