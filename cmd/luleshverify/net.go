package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"lulesh/internal/checkpoint"
	"lulesh/internal/dist"
	"lulesh/internal/domain"
	"lulesh/internal/wire"
)

// The -net check proves the TCP fabric is invisible to the physics: a
// multi-process run (one OS process per rank, exchanges over localhost
// sockets) must finish in exactly the same state — every coordinate,
// velocity and energy bit — as the in-process run with the same rank
// count. The verifier re-executes itself as the worker processes via
// the hidden -net-worker flags; each worker writes its rank's final
// domain as a checkpoint blob, which the parent compares against the
// domains dist.RunDomains kept in memory.

// netCheck runs the wire-vs-in-process comparison for one rank count.
// With overlap set, the wire workers run the fully overlapped schedule
// (boundary-first + tree allreduce) while the in-process ground truth
// stays synchronous — one comparison then proves both that the transport
// is invisible and that the overlapped schedule reproduces the
// synchronous physics bit for bit.
func netCheck(size, steps int, spec domain.ScenarioSpec, np int, overlap bool) {
	name := fmt.Sprintf("wire == in-process (%d ranks)", np)
	if overlap {
		name = fmt.Sprintf("wire overlap == in-process sync (%d ranks)", np)
	}
	cfg := domain.DefaultConfig(size)
	// Trace on: the bitwise comparison below doubles as the proof that
	// tracing never perturbs the arithmetic, on either message layer.
	// The ground truth deliberately omits the overlap toggles.
	dcfg := dist.Config{
		Nx: size, Ny: size, NzPerRank: size, Ranks: np,
		NumReg: cfg.NumReg, Balance: 1, Cost: 1, MaxIterations: steps,
		Scenario: spec, Trace: true,
	}
	_, doms, err := dist.RunDomains(dcfg)
	if err != nil {
		check(name, false, fmt.Sprintf("in-process run failed: %v", err))
		return
	}

	tmp, err := os.MkdirTemp("", "luleshverify-net-")
	if err != nil {
		check(name, false, err.Error())
		return
	}
	defer os.RemoveAll(tmp)
	bin, err := os.Executable()
	if err != nil {
		check(name, false, err.Error())
		return
	}
	cookie := wire.Cookie()
	finalFile := func(rank int) string {
		return filepath.Join(tmp, fmt.Sprintf("final-r%04d.lulcp", rank))
	}
	err = wire.Launch(wire.LaunchSpec{
		NP:     np,
		Binary: bin,
		Args: func(rank, attempt int, rendezvous string) []string {
			args := []string{
				"-net-worker",
				"-net-rank", strconv.Itoa(rank),
				"-net-ranks", strconv.Itoa(np),
				"-net-rendezvous", rendezvous,
				"-net-cookie", cookie,
				"-net-final", finalFile(rank),
				"-s", strconv.Itoa(size),
				"-i", strconv.Itoa(steps),
				"-scenario", spec.String(),
			}
			if overlap {
				args = append(args, "-net-overlap")
			}
			return args
		},
	})
	if err != nil {
		check(name, false, fmt.Sprintf("launch: %v", err))
		return
	}

	same := true
	detail := fmt.Sprintf("e0=%.9e", doms[0].E[0])
	for r := 0; r < np; r++ {
		f, err := os.Open(finalFile(r))
		if err != nil {
			same, detail = false, fmt.Sprintf("rank %d final state: %v", r, err)
			break
		}
		got, meta, err := checkpoint.LoadRank(f)
		f.Close()
		if err != nil {
			same, detail = false, fmt.Sprintf("rank %d final state: %v", r, err)
			break
		}
		if meta.Rank != r || meta.Ranks != np {
			same, detail = false, fmt.Sprintf("rank %d blob labeled %d/%d", r, meta.Rank, meta.Ranks)
			break
		}
		if !equalState(doms[r], got) {
			same, detail = false, fmt.Sprintf("rank %d state diverged", r)
			break
		}
	}
	check(name, same, detail)
}

// runNetWorker is the hidden worker mode: execute one rank of the wire
// fabric and dump its final domain for the parent to compare. With
// overlap set, the worker steps the boundary-first schedule with the
// tree allreduce.
func runNetWorker(size, steps int, spec domain.ScenarioSpec, rank, ranks int, rendezvous, cookie, final string, overlap bool) {
	cfg := domain.DefaultConfig(size)
	dcfg := dist.Config{
		Nx: size, Ny: size, NzPerRank: size, Ranks: ranks,
		NumReg: cfg.NumReg, Balance: 1, Cost: 1, MaxIterations: steps,
		Scenario: spec, Trace: true,
		Async: overlap, TreeReduce: overlap,
	}
	_, err := dist.RunWire(dcfg, dist.WireOptions{
		Rank:           rank,
		Rendezvous:     rendezvous,
		Cookie:         cookie,
		FinalStateFile: final,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "net worker rank %d: %v\n", rank, err)
		if dist.Recoverable(err) {
			os.Exit(wire.ExitRecoverable)
		}
		os.Exit(1)
	}
}
