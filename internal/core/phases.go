package core

import "lulesh/internal/perf"

// Solver phase tags, shared by every backend so the perf subsystem's
// per-phase tables line up across AMT and fork-join runs. They follow the
// paper's kernel families: forces (stress + hourglass), nodal
// position/kinematics, element kinematics and artificial viscosity, the
// per-region EOS chains, the volume commit, and the time-constraint
// reductions.
const (
	PhaseOther       uint32 = iota // untagged work (graph joins, bookkeeping)
	PhaseForce                     // stress + hourglass force kernels
	PhaseNodal                     // force gather, acceleration, velocity, position
	PhaseElements                  // kinematics, strain rate, monotonic Q
	PhaseRegions                   // per-region material / EOS chains
	PhaseVolumes                   // volume commit
	PhaseConstraints               // Courant + hydro constraint reductions
	NumPhases
)

// PhaseNames labels the tags above, indexed by phase id.
var PhaseNames = [NumPhases]string{
	"other", "force", "nodal", "elements", "eos-regions", "volumes", "constraints",
}

// PhaseProfiled is implemented by backends that can feed a perf.Profiler:
// attaching one routes every executed task or region part — tagged with
// the phase constants above — into the profiler's sharded counters.
// SetProfiler(nil) detaches.
type PhaseProfiled interface {
	SetProfiler(*perf.Profiler)
}

// registerPhases labels the canonical solver phases in p.
func registerPhases(p *perf.Profiler) {
	for id, name := range PhaseNames {
		p.SetPhaseName(uint32(id), name)
	}
}

// SetProfiler attaches the profiler to the serial backend: each kernel
// family of a step becomes one record on worker 0.
func (b *BackendSerial) SetProfiler(p *perf.Profiler) {
	if p != nil {
		registerPhases(p)
	}
	b.prof = p
}

// SetProfiler attaches the profiler to the fork-join pool's region sink.
func (b *BackendOMP) SetProfiler(p *perf.Profiler) {
	if p == nil {
		b.pool.SetSink(nil)
		return
	}
	registerPhases(p)
	b.pool.SetSink(p)
}
