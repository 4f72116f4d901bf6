// Package sas reimplements the comparison baseline SAS — Stimulus-based
// Adaptive Sleeping (Ngan et al., ICPP'05) — as described by the PAS paper:
// the same adaptive linear sleep schedule, but with a simpler, scalar local
// velocity estimate and with alert information transmitted only by sensors
// that are covered by the stimulus. Both simplifications follow the PAS
// paper's characterization: "It employs a simple method for the local
// velocity estimation" and "PAS allows the DS information to be exchanged in
// a larger field of sensors than SAS, i.e., the sensors which are not
// covered by the stimulus also transmit alert information" (§3.1) — so in
// SAS, they do not. The net effect, as the paper argues in §3.4, is that SAS
// behaves like PAS with a sharply reduced alert time: predictions exist only
// within one radio hop of the front.
package sas

import (
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/predict"
	"repro/internal/radio"
	"repro/internal/sim"
)

// Config holds the SAS tunables. The sleep schedule matches PAS so the
// paper's Figs. 4/6 sweep compares like with like.
type Config struct {
	// AlertThreshold is the expected-arrival threshold below which a node
	// stays awake.
	AlertThreshold float64
	// SleepInit, SleepIncrement, SleepMax define the linear sleep ramp.
	SleepInit      float64
	SleepIncrement float64
	SleepMax       float64
	// ResponseWindow is the wake-time listen window after the probe.
	ResponseWindow float64
	// AlertReassess is the awake-state re-evaluation period.
	AlertReassess float64
	// DetectionTimeout returns a covered node to safe after the stimulus
	// leaves.
	DetectionTimeout float64
	// MaxReportAge ages out stale alerts (0 disables).
	MaxReportAge float64
	// ResponseStagger spaces concurrent responses.
	ResponseStagger float64
	// SleepJitter matches the PAS per-cycle sleep jitter.
	SleepJitter float64
	// MinVelocityDt matches the PAS minimum usable detection-time gap.
	MinVelocityDt float64
	// Liveness mirrors the PAS sink-side peer liveness tracker (zero value
	// = disabled).
	Liveness fault.LivenessConfig
}

// DefaultConfig mirrors the PAS defaults so head-to-head sweeps differ only
// in the protocols' mechanisms.
func DefaultConfig() Config {
	p := core.DefaultConfig()
	return Config{
		AlertThreshold:   p.AlertThreshold,
		SleepInit:        p.SleepInit,
		SleepIncrement:   p.SleepIncrement,
		SleepMax:         p.SleepMax,
		ResponseWindow:   p.ResponseWindow,
		AlertReassess:    p.AlertReassess,
		DetectionTimeout: p.DetectionTimeout,
		MaxReportAge:     p.MaxReportAge,
		ResponseStagger:  p.ResponseStagger,
		SleepJitter:      p.SleepJitter,
		MinVelocityDt:    p.MinVelocityDt,
	}
}

// Agent is one node's SAS protocol instance.
type Agent struct {
	cfg      Config
	n        *node.Node // bound at Init; the arg handlers below reach it here
	reports  map[radio.NodeID]predict.Report
	scratch  []predict.Report // reused snapshot buffer
	schedule core.SleepSchedule

	speed    float64 // scalar spreading-speed estimate (0 = unknown)
	hasSpeed bool

	decision       sim.Timer
	reassess       sim.Timer
	coveredTimeout sim.Timer

	// Liveness tracking (nil/unarmed unless cfg.Liveness is enabled).
	live     *fault.Liveness
	liveTick sim.Timer

	detected   bool
	detectedAt float64
	sleepCount int
}

var _ node.Agent = (*Agent)(nil)

// New constructs a SAS agent.
func New(cfg Config) *Agent {
	a := &Agent{}
	a.fill(cfg)
	return a
}

// fill initializes an agent in place — shared by New and the slab factory.
func (a *Agent) fill(cfg Config) {
	*a = Agent{
		cfg:      cfg,
		reports:  make(map[radio.NodeID]predict.Report),
		schedule: core.MakeSleepSchedule(cfg.SleepInit, cfg.SleepIncrement, cfg.SleepMax),
	}
}

// NewSlab returns a factory producing up to n agents carved from one
// contiguous slab (mirroring core.NewSlab); agents past n fall back to
// individual allocation.
func NewSlab(cfg Config, n int) func() *Agent {
	slab := make([]Agent, 0, n)
	return func() *Agent {
		if len(slab) == cap(slab) {
			return New(cfg)
		}
		slab = slab[:len(slab)+1]
		a := &slab[len(slab)-1]
		a.fill(cfg)
		return a
	}
}

// Package-level arg handlers (mirroring the PAS agent): re-arming timers
// with long-lived handlers and the agent as the argument keeps the
// steady-state probe/reassess cycle free of closure allocations.
func sasDecide(_ *sim.Kernel, arg any) {
	a := arg.(*Agent)
	a.decide(a.n)
}

func sasReassess(_ *sim.Kernel, arg any) {
	a := arg.(*Agent)
	n := a.n
	if n.State() != node.StateAlert {
		return
	}
	if n.Sense() {
		return // detection takes over (OnDetect ran)
	}
	if a.eta(n) >= a.cfg.AlertThreshold {
		a.enterSafe(n, true)
		return
	}
	a.armReassess(n)
}

func sasSpeedWindow(_ *sim.Kernel, arg any) {
	a := arg.(*Agent)
	if s, ok := a.scalarSpeed(a.n); ok {
		a.speed, a.hasSpeed = s, true
	}
	a.sendResponse(a.n)
}

func sasCoveredTimeout(_ *sim.Kernel, arg any) {
	a := arg.(*Agent)
	n := a.n
	if n.State() != node.StateCovered || !n.IsAwake() {
		return
	}
	if n.CoveredNow() {
		return
	}
	a.enterSafe(n, true)
}

func sasStaggerSend(_ *sim.Kernel, arg any) {
	a := arg.(*Agent)
	if a.n.IsAwake() && a.n.State() == node.StateCovered {
		a.sendResponse(a.n)
	}
}

// sasLivenessTick mirrors the PAS liveness scan: advance the tracker, probe
// when due, re-arm without closures.
func sasLivenessTick(_ *sim.Kernel, arg any) {
	a := arg.(*Agent)
	n := a.n
	if n.IsAwake() && a.live.Tick(n.Now()) {
		before := n.Meter().Breakdown().TxJ
		n.Broadcast(core.Request{}.Envelope())
		a.live.AddProbeEnergy(n.Meter().Breakdown().TxJ - before)
	}
	a.liveTick.ResetArg(a.cfg.Liveness.Interval, sasLivenessTick, a)
}

// Init implements node.Agent.
func (a *Agent) Init(n *node.Node) {
	a.n = n
	a.decision.Bind(n.Kernel())
	a.reassess.Bind(n.Kernel())
	a.coveredTimeout.Bind(n.Kernel())
	if a.cfg.Liveness.Enabled() {
		a.live = fault.NewLiveness(a.cfg.Liveness)
		a.liveTick.Bind(n.Kernel())
		a.liveTick.ResetArg(a.cfg.Liveness.Interval, sasLivenessTick, a)
	}
	n.SetState(node.StateSafe)
	a.probe(n)
}

// probe asks covered neighbours for stimulus information and schedules the
// decision.
func (a *Agent) probe(n *node.Node) {
	n.Broadcast(core.Request{}.Envelope())
	a.decision.ResetArg(a.cfg.ResponseWindow, sasDecide, a)
}

// decide commits to staying awake (near the front) or sleeping longer.
func (a *Agent) decide(n *node.Node) {
	if n.State() == node.StateCovered {
		return
	}
	if a.eta(n) < a.cfg.AlertThreshold {
		n.SetState(node.StateAlert)
		a.armReassess(n)
		return
	}
	a.enterSafe(n, false)
}

func (a *Agent) armReassess(n *node.Node) {
	a.reassess.ResetArg(a.cfg.AlertReassess, sasReassess, a)
}

func (a *Agent) enterSafe(n *node.Node, resetRamp bool) {
	a.reassess.Stop()
	n.SetState(node.StateSafe)
	if resetRamp {
		a.schedule.Reset()
	}
	a.sleepCount++
	d := a.schedule.Next() * core.PhaseJitter(int(n.ID()), a.sleepCount, a.cfg.SleepJitter)
	n.Sleep(d)
}

// OnWake implements node.Agent.
func (a *Agent) OnWake(n *node.Node) { a.probe(n) }

// LivenessStats snapshots the liveness tracker (zero value when disabled).
func (a *Agent) LivenessStats() fault.LivenessStats {
	if a.live == nil {
		return fault.LivenessStats{}
	}
	return a.live.Stats()
}

// OnDetect implements node.Agent: compute the scalar local speed from
// covered neighbours and broadcast the alert.
func (a *Agent) OnDetect(n *node.Node) {
	a.detected = true
	a.detectedAt = n.Now()
	a.reassess.Stop()
	a.decision.Stop()
	n.SetState(node.StateCovered)
	n.Broadcast(core.Request{}.Envelope())
	a.decision.ResetArg(a.cfg.ResponseWindow, sasSpeedWindow, a)
}

// scalarSpeed is SAS's "simple method for the local velocity estimation":
// the mean of straight-line distance over detection-time difference across
// covered neighbours — a speed with no direction.
func (a *Agent) scalarSpeed(n *node.Node) (float64, bool) {
	var sum float64
	count := 0
	for _, r := range a.sortedReports() {
		if !r.Detected || r.State != node.StateCovered {
			continue
		}
		dt := a.detectedAt - r.DetectedAt
		minDt := a.cfg.MinVelocityDt
		if minDt <= 0 {
			minDt = 1e-9
		}
		if dt < minDt {
			continue
		}
		sum += n.Pos().Dist(r.Pos) / dt
		count++
	}
	if count == 0 {
		return 0, false
	}
	return sum / float64(count), true
}

// OnStimulusGone implements node.Agent.
func (a *Agent) OnStimulusGone(n *node.Node) {
	a.coveredTimeout.ResetArg(a.cfg.DetectionTimeout, sasCoveredTimeout, a)
}

// OnMessage implements node.Agent. The crucial SAS restriction lives here:
// only covered nodes answer REQUESTs, so stimulus information never travels
// beyond the front's one-hop neighbourhood.
func (a *Agent) OnMessage(n *node.Node, from radio.NodeID, env radio.Envelope) {
	if a.live != nil {
		a.live.Observe(from, n.Now())
	}
	switch env.Kind {
	case radio.KindRequest:
		a.handleRequest(n)
	case radio.KindResponse:
		a.handleResponse(n, from, core.ResponseFromEnvelope(env))
	}
}

// handleRequest answers a REQUEST if (and only if) this node is covered.
func (a *Agent) handleRequest(n *node.Node) {
	if n.State() != node.StateCovered {
		return
	}
	stagger := a.cfg.ResponseStagger * float64(1+int(n.ID())%8)
	if stagger <= 0 {
		a.sendResponse(n)
		return
	}
	n.Kernel().ScheduleArg(stagger, sasStaggerSend, a)
}

// handleResponse folds a neighbour's alert into the report table.
func (a *Agent) handleResponse(n *node.Node, from radio.NodeID, m core.Response) {
	a.reports[from] = predict.Report{
		ID:               from,
		Pos:              m.Pos,
		State:            m.State,
		Velocity:         m.Velocity,
		HasVelocity:      m.HasVelocity,
		HasDirection:     m.HasDirection,
		PredictedArrival: m.PredictedArrival,
		DetectedAt:       m.DetectedAt,
		Detected:         m.Detected,
		ReceivedAt:       n.Now(),
	}
	if n.State() == node.StateAlert && a.eta(n) >= a.cfg.AlertThreshold {
		a.enterSafe(n, true)
	}
}

// eta is SAS's expected arrival estimate: straight-line distance over the
// neighbour's scalar speed, anchored at the neighbour's detection time, with
// no directional correction — the simplification PAS improves on.
func (a *Agent) eta(n *node.Node) float64 {
	now := n.Now()
	best := math.Inf(1)
	for _, r := range a.sortedReports() {
		if a.cfg.MaxReportAge > 0 && now-r.ReceivedAt > a.cfg.MaxReportAge {
			continue
		}
		if !r.Detected || !r.HasVelocity {
			continue
		}
		speed := r.Velocity.Norm()
		if speed <= 0 {
			continue
		}
		eta := n.Pos().Dist(r.Pos)/speed - (now - r.DetectedAt)
		if eta < 0 {
			eta = 0
		}
		if eta < best {
			best = eta
		}
	}
	return best
}

// sendResponse broadcasts the covered node's alert: position, detection time
// and the scalar speed (carried in the velocity field's magnitude; SAS has
// no direction estimate).
func (a *Agent) sendResponse(n *node.Node) {
	if !n.IsAwake() {
		return
	}
	n.Broadcast(core.Response{
		Pos:   n.Pos(),
		State: n.State(),
		// The velocity field carries a bare magnitude; HasDirection stays
		// unset so receivers never project along the placeholder heading.
		Velocity:         predict.SpeedOnly(a.speed),
		HasVelocity:      a.hasSpeed,
		HasDirection:     false,
		PredictedArrival: a.detectedAt,
		DetectedAt:       a.detectedAt,
		Detected:         a.detected,
	}.Envelope())
}

// sortedReports snapshots the report table in deterministic (ID) order into
// a reused buffer; callers only read the slice during the call.
func (a *Agent) sortedReports() []predict.Report {
	if cap(a.scratch) < len(a.reports) {
		// One right-sized allocation instead of an append growth chain.
		a.scratch = make([]predict.Report, 0, len(a.reports))
	}
	out := a.scratch[:0]
	for _, r := range a.reports {
		out = append(out, r)
	}
	slices.SortFunc(out, func(x, y predict.Report) int { return int(x.ID) - int(y.ID) })
	a.scratch = out
	return out
}
