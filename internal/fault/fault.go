// Package fault is the deterministic fault-injection subsystem of the PAS
// reproduction. A FailureSpec — the failures section of a scenario spec —
// compiles (Compile) into a pure-data Plan; applying the plan to a built
// network (Plan.Apply) schedules crash-stop kills (time-windowed,
// optionally spatially clustered), crash-recovery churn (nodes go dark and
// rejoin — reusing the frozen network topology, since positions never
// change), and installs sensor miscalibration models (additive drift,
// stuck-at, burst noise) between stimulus and reading. Radio degradation
// windows wrap the channel loss model (DegradedLoss).
//
// Every random draw comes from a named rng stream ("failures" for the
// legacy uniform crash case — byte-compatible with the pre-fault kill loop —
// and "fault/crash", "fault/churn", "fault/sensor" plus per-node
// StreamN("fault/sensor", id) for the extensions), so faulted runs stay
// byte-identical whether replicated serially or in parallel.
//
// The package also hosts the sink-side liveness tracker (Liveness) the
// PAS/SAS agents embed: after MissK missed report intervals a peer is
// suspect and re-probed with capped exponential backoff before being
// declared dead.
package fault

import (
	"math"
	"sort"

	"repro/internal/node"
	"repro/internal/rng"
)

// Plan is a compiled fault schedule: pure data, safe to share across
// replicated runs (Apply draws per-run randomness from the run's source).
type Plan struct {
	// Horizon is the simulated duration the windows were materialized
	// against.
	Horizon float64
	// Spec is the normalized fault spec: every window end is set and every
	// disabled model is absent (see FailureSpec.Normalized).
	Spec FailureSpec
}

// Compile normalizes a FailureSpec against the horizon into a Plan, so a
// spec and its normalized form compile to the same plan.
func Compile(f FailureSpec, horizon float64) *Plan {
	return &Plan{Horizon: horizon, Spec: f.Normalized(horizon)}
}

// Apply draws the plan's per-run randomness from src and schedules every
// fault on the built nodes. Call after node construction, before the run.
// Radio degradation is not applied here — it wraps the loss model at build
// time (NewDegradedLoss), before the network exists.
func (p *Plan) Apply(src *rng.Source, nodes []*node.Node) {
	p.applyCrash(src, nodes)
	p.applyChurn(src, nodes)
	p.applySensor(src, nodes)
}

// fraction rounds a node-count fraction the way the legacy kill loop always
// has.
func fraction(f float64, n int) int {
	k := int(math.Round(f * float64(n)))
	if k > n {
		k = n
	}
	return k
}

func (p *Plan) applyCrash(src *rng.Source, nodes []*node.Node) {
	c := p.Spec
	if c.Fraction <= 0 {
		return
	}
	n := len(nodes)
	kill := fraction(c.Fraction, n)
	if c.From == 0 && c.ClusterRadius == 0 {
		// Pure uniform kill: the legacy path, stream-for-stream identical to
		// the pre-fault harness so old scenarios keep their golden traces.
		st := src.Stream("failures")
		for _, idx := range st.Perm(n)[:kill] {
			nodes[idx].FailAt(st.Uniform(0, c.By))
		}
		return
	}
	st := src.Stream("fault/crash")
	if c.ClusterRadius > 0 {
		// Spatially clustered kill: the victims are the nodes nearest a
		// random epicentre, restricted to the radius.
		center := nodes[st.Intn(n)].Pos()
		type cand struct {
			d   float64
			idx int
		}
		cands := make([]cand, 0, n)
		for i, nd := range nodes {
			if d := nd.Pos().Dist(center); d <= c.ClusterRadius {
				cands = append(cands, cand{d, i})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].d != cands[j].d {
				return cands[i].d < cands[j].d
			}
			return cands[i].idx < cands[j].idx
		})
		if len(cands) > kill {
			cands = cands[:kill]
		}
		for _, cd := range cands {
			nodes[cd.idx].FailAt(st.Uniform(c.From, c.By))
		}
		return
	}
	for _, idx := range st.Perm(n)[:kill] {
		nodes[idx].FailAt(st.Uniform(c.From, c.By))
	}
}

func (p *Plan) applyChurn(src *rng.Source, nodes []*node.Node) {
	c := p.Spec.Churn
	if c == nil {
		return
	}
	n := len(nodes)
	by := c.By
	if by < c.Start {
		by = c.Start
	}
	st := src.Stream("fault/churn")
	for _, idx := range st.Perm(n)[:fraction(c.Fraction, n)] {
		start := st.Uniform(c.Start, by)
		down := c.MinDown + st.Exponential(c.MeanDown)
		nodes[idx].FailAt(start)
		nodes[idx].RecoverAt(start + down)
	}
}

func (p *Plan) applySensor(src *rng.Source, nodes []*node.Node) {
	s := p.Spec.Sensor
	if s == nil {
		return
	}
	n := len(nodes)
	st := src.Stream("fault/sensor")
	for _, idx := range st.Perm(n)[:fraction(s.Fraction, n)] {
		nd := nodes[idx]
		nd.SetSensor(NewSensorState(*s, p.Horizon, src.StreamN("fault/sensor", int(nd.ID()))))
	}
}
