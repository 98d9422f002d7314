package core

import (
	"time"

	"lulesh/internal/domain"
	"lulesh/internal/perf"
)

// BackendSerial runs every kernel sequentially. It is the ground truth the
// parallel backends are compared against (both for correctness — bitwise —
// and as the single-thread baseline of Figure 9).
type BackendSerial struct {
	kit  *Kit
	plan stepPlan
	prof *perf.Profiler // nil unless SetProfiler attached one
}

// NewBackendSerial creates a serial backend for domains shaped like d.
func NewBackendSerial(d *domain.Domain) *BackendSerial {
	return &BackendSerial{kit: NewKit(d, d.NumElem())}
}

func (b *BackendSerial) Name() string { return "serial" }

// Threads reports 1.
func (b *BackendSerial) Threads() int { return 1 }

// Utilization is not measured for the serial backend.
func (b *BackendSerial) Utilization() (float64, bool) { return 0, false }

// ResetCounters is a no-op.
func (b *BackendSerial) ResetCounters() {}

// Close is a no-op.
func (b *BackendSerial) Close() {}

// phase runs the families of one phase and, with a profiler attached,
// records them as one task of that phase on worker 0 — one record per
// phase per step.
func (b *BackendSerial) phase(id uint32, fn func()) {
	if b.prof == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	b.prof.RecordTask(0, id, t0, time.Since(t0), 0, false)
}

// Step advances one leapfrog iteration sequentially: the task backend's
// families, each over its whole index space (one partition per region),
// in graph order.
func (b *BackendSerial) Step(d *domain.Domain) error {
	k := b.kit
	k.Begin(d)
	pl := &b.plan
	pl.build(d, 0, 0)
	elems, nodes := &pl.Elems[0], &pl.Nodes[0]

	b.phase(PhaseForce, func() {
		k.Run(Stress, elems)
		k.Run(Hourglass, elems)
	})
	if err := k.Err(); err != nil {
		return err
	}
	b.phase(PhaseNodal, func() { k.Run(Nodal, nodes) })
	b.phase(PhaseElements, func() { k.Run(Elements, elems) })
	if err := k.Err(); err != nil {
		return err
	}
	b.phase(PhaseRegions, func() {
		for _, parts := range pl.Regions {
			for i := range parts {
				k.Run(Region, &parts[i])
			}
		}
	})
	b.phase(PhaseVolumes, func() { k.Run(Volumes, elems) })
	b.phase(PhaseConstraints, func() {
		k.ResetConstraints()
		for _, parts := range pl.Regions {
			k.Fold(parts...)
		}
	})
	return k.Err()
}
