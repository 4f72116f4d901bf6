package predict

import (
	"math"

	"repro/internal/geom"
)

// EstimatorConfig carries the paper-estimator tunables every predictor
// shares; they live in core.Config (not in Spec) because they parameterize
// the raw measurement, not the model fitted on top of it.
type EstimatorConfig struct {
	// UseMeanETA switches the report aggregation from the paper's minimum
	// to a mean (estimator ablation only).
	UseMeanETA bool
	// MaxReportAge discards neighbour reports older than this; 0 disables.
	MaxReportAge float64
	// DisableExpectedVelocity stops undetected nodes from folding
	// neighbour velocities into their own estimate (estimator ablation).
	DisableExpectedVelocity bool
}

// Input is one prediction refresh request from the agent: its position, the
// current time, and the neighbour-report snapshot. The Reports slice is
// only read during the call, so the agent may reuse its scratch buffer.
type Input struct {
	Pos     geom.Vec2
	Now     float64
	Reports []Report
}

// Stats accumulates a predictor's per-run quality measures; metrics
// collectors reach it through the agent.
type Stats struct {
	// ErrSq and ErrN accumulate squared arrival-prediction errors: one
	// sample per detecting node, the final pre-detection prediction against
	// the actual detection instant.
	ErrSq float64
	ErrN  int
	// MaxStale is the longest observed span between consecutive granted
	// announcements while suppression was active — how stale the
	// neighbourhood's view of this node was allowed to grow.
	MaxStale float64
	// Suppressed counts announce-gate evaluations that withheld a report.
	Suppressed int
}

// kind is the resolved Spec.Kind, switch-dispatchable without string
// comparisons on the hot path.
type kind uint8

const (
	kindPaper kind = iota
	kindLMS
	kindEWMA
	kindAR
	kindKalman
	kindSwitching
)

func kindOf(name string) kind {
	switch name {
	case KindLMS:
		return kindLMS
	case KindEWMA:
		return kindEWMA
	case KindAR:
		return kindAR
	case KindKalman:
		return kindKalman
	case KindSwitching:
		return kindSwitching
	default:
		return kindPaper
	}
}

// Model is the pluggable prediction subsystem of a PAS agent and the
// concrete predictor behind every Spec kind: it owns the velocity estimate
// and the absolute arrival prediction, refreshes them from neighbour-report
// snapshots, and gates prediction rebroadcasts. The agent embeds it by value
// to stay allocation-free. The zero value is unusable; Init it (the agent
// slab factory does).
type Model struct {
	spec Spec
	est  EstimatorConfig
	k    kind

	velocity    geom.Vec2
	hasVelocity bool
	detected    bool

	prev      float64 // previous published prediction (for Announce)
	predicted float64 // current published absolute arrival (+Inf unknown)
	raw       float64 // current raw estimator reading (+Inf unknown)

	lms  lmsFilter
	ewma ewmaFilter
	ar   arFilter
	kal  kalmanFilter
	// score is the portfolio's EWMA'd absolute one-step error per arm
	// (lms, ewma, ar, kalman), driving the switching choice.
	score [4]float64

	stats        Stats
	lastAnnounce float64
	announced    bool
}

// Init configures the model in place for one run; spec defaults are
// materialized here. Init allocates nothing.
func (m *Model) Init(spec Spec, est EstimatorConfig) {
	d := spec.WithDefaults()
	*m = Model{spec: d, est: est, k: kindOf(d.Kind)}
	m.prev = math.Inf(1)
	m.predicted = math.Inf(1)
	m.raw = math.Inf(1)
	m.lms.reset()
	m.ewma.reset()
	m.ar.reset(d.Order)
	m.kal.reset()
}

// Refresh recomputes the prediction from a report snapshot and returns the
// expected arrival in seconds from now (+Inf when unknown): it recomputes
// the expected velocity (pre-detection, unless ablated), reads the raw paper
// estimate from the snapshot, and publishes the model's prediction.
func (m *Model) Refresh(in Input) float64 {
	if !m.detected && !m.est.DisableExpectedVelocity {
		if v, ok := ExpectedVelocity(in.Reports); ok {
			m.velocity, m.hasVelocity = v, true
		}
	}
	var eta float64
	if m.est.UseMeanETA {
		eta = MeanETA(in.Pos, in.Now, in.Reports, m.est.MaxReportAge)
	} else {
		eta = MinETA(in.Pos, in.Now, in.Reports, m.est.MaxReportAge)
	}
	raw := math.Inf(1)
	if !math.IsInf(eta, 1) {
		raw = in.Now + eta
	}
	m.prev = m.predicted
	m.raw = raw
	m.predicted = m.step(raw)
	if m.k == kindPaper {
		return eta
	}
	if math.IsInf(m.predicted, 1) {
		return math.Inf(1)
	}
	out := m.predicted - in.Now
	if out < 0 {
		out = 0
	}
	return out
}

// step feeds one raw reading to the active filter arm(s) and returns the
// published prediction. +Inf readings carry no information: the filters
// hold their state and the model publishes unknown.
func (m *Model) step(raw float64) float64 {
	if math.IsInf(raw, 1) {
		return raw
	}
	switch m.k {
	case kindPaper:
		return raw
	case kindLMS:
		m.lms.update(m.spec.Mu, raw)
		if p, ok := m.lms.predict(); ok {
			return p
		}
	case kindEWMA:
		m.ewma.update(m.spec.Alpha, raw)
		if p, ok := m.ewma.predict(); ok {
			return p
		}
	case kindAR:
		m.ar.update(raw)
		if p, ok := m.ar.predict(); ok {
			return p
		}
	case kindKalman:
		m.kal.update(m.spec.ProcessVar, m.spec.MeasureVar, raw)
		if p, ok := m.kal.predict(); ok {
			return p
		}
	case kindSwitching:
		return m.stepSwitching(raw)
	}
	return raw // filter not primed yet: pass the reading through
}

// stepSwitching runs the whole portfolio: score each arm's pre-update
// prediction against the fresh reading (exponentially discounted), update
// every arm, and publish the best-scoring primed arm (ties break toward
// the earliest arm; the raw reading stands in until an arm is primed).
func (m *Model) stepSwitching(raw float64) float64 {
	const lambda = 0.8
	if p, ok := m.lms.predict(); ok {
		m.score[0] = lambda*m.score[0] + (1-lambda)*abs(p-raw)
	}
	if p, ok := m.ewma.predict(); ok {
		m.score[1] = lambda*m.score[1] + (1-lambda)*abs(p-raw)
	}
	if p, ok := m.ar.predict(); ok {
		m.score[2] = lambda*m.score[2] + (1-lambda)*abs(p-raw)
	}
	if p, ok := m.kal.predict(); ok {
		m.score[3] = lambda*m.score[3] + (1-lambda)*abs(p-raw)
	}
	m.lms.update(m.spec.Mu, raw)
	m.ewma.update(m.spec.Alpha, raw)
	m.ar.update(raw)
	m.kal.update(m.spec.ProcessVar, m.spec.MeasureVar, raw)
	out, best := raw, math.Inf(1)
	if p, ok := m.lms.predict(); ok && m.score[0] < best {
		out, best = p, m.score[0]
	}
	if p, ok := m.ewma.predict(); ok && m.score[1] < best {
		out, best = p, m.score[1]
	}
	if p, ok := m.ar.predict(); ok && m.score[2] < best {
		out, best = p, m.score[2]
	}
	if p, ok := m.kal.predict(); ok && m.score[3] < best {
		out, best = p, m.score[3]
	}
	return out
}

// Announce reports whether the refreshed prediction should be rebroadcast.
// It also tracks suppression stats, so call it only where a report would
// actually be sent. For the switching kind the significant-change rule is additionally gated by the dual-prediction tolerance: the
// neighbourhood runs the same model, so while |model − reading| stays
// within tolerance there is nothing it cannot reconstruct on its own.
func (m *Model) Announce(frac, now float64) bool {
	ann := SignificantChange(m.prev, m.predicted, frac, now)
	if ann && m.k == kindSwitching {
		// NaN (unknown − unknown) and within-tolerance deviations are both
		// suppressed; a +Inf tolerance suppresses every report.
		if !(abs(m.predicted-m.raw) > m.spec.Tolerance) {
			ann = false
		}
	}
	if !m.announced {
		m.announced = true
		m.lastAnnounce = now
	}
	if ann {
		m.lastAnnounce = now
	} else {
		m.stats.Suppressed++
		if s := now - m.lastAnnounce; s > m.stats.MaxStale {
			m.stats.MaxStale = s
		}
	}
	return ann
}

// Predicted returns the current absolute arrival prediction (+Inf unknown).
func (m *Model) Predicted() float64 { return m.predicted }

// Velocity returns the current spreading-velocity estimate.
func (m *Model) Velocity() (geom.Vec2, bool) { return m.velocity, m.hasVelocity }

// SetVelocity installs an externally computed velocity (the covered node's
// actual-velocity estimate).
func (m *Model) SetVelocity(v geom.Vec2) { m.velocity, m.hasVelocity = v, true }

// MarkDetected records the stimulus arrival: it scores the final
// pre-detection prediction against the actual arrival, then pins the
// prediction to fact.
func (m *Model) MarkDetected(at float64) {
	if !m.detected && !math.IsInf(m.predicted, 1) && !math.IsNaN(m.predicted) {
		e := at - m.predicted
		m.stats.ErrSq += e * e
		m.stats.ErrN++
	}
	m.detected = true
	m.prev = m.predicted
	m.predicted = at
	m.raw = at
}

// Stats snapshots the per-run prediction-quality counters.
func (m *Model) Stats() Stats { return m.stats }
