package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"lulesh/internal/core"
	"lulesh/internal/dist"
	"lulesh/internal/domain"
)

// refEnergy is a reference output: the final origin energy, the final
// simulation time (the single-node runs) and, for dist-latency, the
// total energy Σ e·volo over every rank. The origin energy depends on
// the elements near the origin only; the final time, the sum of every
// cycle's dt, on the whole domain.
type refEnergy struct {
	Origin float64 `json:"origin"`
	Time   float64 `json:"time,omitempty"`
	Total  float64 `json:"total,omitempty"`
}

// refTable holds the reference outputs every run is checked against,
// bit for bit. Sim is keyed by workload, Serve by serveKey of the job
// spec. encoding/json writes the shortest decimal that reads back as the
// same float64, so the file round-trips exactly.
type refTable struct {
	Sim   map[string]refEnergy `json:"sim"`
	Dist  refEnergy            `json:"dist"`
	Serve map[string]refEnergy `json:"serve"`
}

//go:embed refs.json
var refsJSON []byte

var refs = mustLoadRefs()

func mustLoadRefs() refTable {
	var t refTable
	if err := json.Unmarshal(refsJSON, &t); err != nil {
		panic(fmt.Sprintf("perfbench: refs.json: %v", err))
	}
	return t
}

// genRefs recomputes the reference table and writes it to path: the
// simulations on the serial backend, dist-latency with the same
// decomposition and no injected latency (a two-rank slab stack regroups
// the shared-plane force sums, so it is not bitwise equal to one
// monolithic box; the latency, as the dist tests assert, changes no
// value), and every served job spec on the serial backend exactly as
// the server builds it.
func genRefs(path string) error {
	t := refTable{Sim: map[string]refEnergy{}, Serve: map[string]refEnergy{}}
	for name, w := range simWorkloads {
		r, err := serialRef(w.scenario, w.size, w.cycles)
		if err != nil {
			return err
		}
		t.Sim[name] = r
	}
	cfg := distConfig(distCycles)
	cfg.Latency = 0
	res, err := dist.Run(cfg)
	if err != nil {
		return err
	}
	t.Dist = refEnergy{Origin: res.OriginEnergy, Total: res.TotalEnergy}
	for _, mj := range serveDeck() {
		r, err := serialRef(mj.scenario, mj.size, mj.iterations)
		if err != nil {
			return err
		}
		t.Serve[serveKey(mj.scenario, mj.size, mj.iterations)] = r
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// serialRef runs a scenario cube on the serial backend, with the domain
// configuration serve.Manager also uses, and returns the final origin
// energy and simulation time.
func serialRef(scenario string, size, iterations int) (refEnergy, error) {
	spec, err := domain.ParseScenarioSpec(scenario)
	if err != nil {
		return refEnergy{}, err
	}
	d, err := domain.BuildScenarioCube(spec, domain.DefaultConfig(size))
	if err != nil {
		return refEnergy{}, err
	}
	res, err := core.Run(d, core.NewBackendSerial(d), core.RunConfig{MaxIterations: iterations})
	if err != nil {
		return refEnergy{}, err
	}
	return refEnergy{Origin: res.OriginEnergy, Time: res.FinalTime}, nil
}

func serveKey(scenario string, size, iterations int) string {
	return fmt.Sprintf("%s/s%d/i%d", scenario, size, iterations)
}
