package fault

import (
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sim"
)

// DegradedLoss wraps a channel loss model with a time-bounded degradation
// window: during [Start, End) every delivery that the base model lets
// through additionally survives an independent Bernoulli(Loss) drop drawn
// from a dedicated stream (so the base model's own draws — and therefore
// every delivery outside the window — match the undegraded run exactly).
//
// The wrapper needs the simulation clock to know whether a transmission
// falls in the window; Bind it to the run's kernel after network
// construction and before traffic starts. It is per-run state: never share
// one wrapper across replicated runs.
type DegradedLoss struct {
	base   radio.LossModel
	plan   DegradationSpec
	st     *rng.Stream
	kernel *sim.Kernel
}

// NewDegradedLoss wraps base with a normalized degradation window (End
// set), drawing the extra drops from st (conventionally
// src.Stream("fault/degrade")).
func NewDegradedLoss(base radio.LossModel, p DegradationSpec, st *rng.Stream) *DegradedLoss {
	return &DegradedLoss{base: base, plan: p, st: st}
}

// Bind attaches the simulation clock. Delivers panics without it.
func (d *DegradedLoss) Bind(k *sim.Kernel) { d.kernel = k }

// Delivers implements radio.LossModel.
func (d *DegradedLoss) Delivers(dist float64, st *rng.Stream) bool {
	if !d.base.Delivers(dist, st) {
		return false
	}
	if d.kernel == nil {
		panic("fault: DegradedLoss used before Bind")
	}
	now := d.kernel.Now()
	if now >= d.plan.Start && now < d.plan.End && d.st.Bernoulli(d.plan.Loss) {
		return false
	}
	return true
}

// MaxRange implements radio.LossModel: degradation raises loss inside the
// base range, never the range itself, so topology caches keyed on the range
// stay valid.
func (d *DegradedLoss) MaxRange() float64 { return d.base.MaxRange() }
