package core

import (
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/predict"
	"repro/internal/radio"
	"repro/internal/sim"
)

// Agent is one node's PAS protocol instance, implementing the state machine
// of the paper's Fig. 3:
//
//	safe    — sleeps on the linear schedule; on wake it probes with a
//	          REQUEST, waits ResponseWindow, and either alerts (expected
//	          arrival below the threshold) or sleeps longer.
//	alert   — stays awake, answers REQUESTs, refines its prediction on
//	          every RESPONSE (rebroadcasting significant changes), and
//	          periodically reassesses: back to safe when the expected
//	          arrival rises above the threshold, covered on detection.
//	covered — stays awake, answers REQUESTs; on detection it REQUESTs its
//	          neighbours, computes the actual spreading velocity from the
//	          covered ones and broadcasts the new estimate. When the
//	          stimulus leaves, a detection timeout returns it to safe.
//
// Prediction itself — the velocity estimate, the arrival-time model, and
// the rebroadcast gate — is delegated to the predict.Model selected by
// cfg.Predictor; the zero spec is the paper's §3.3 estimator.
type Agent struct {
	cfg      Config
	n        *node.Node // bound at Init; the arg handlers below reach it here
	reports  predict.Table
	schedule SleepSchedule

	// model is the pluggable prediction subsystem, embedded by value so
	// slab-carved agents stay allocation-free.
	model predict.Model

	decision       sim.Timer // end of a REQUEST's response window
	reassess       sim.Timer // alert-state periodic re-evaluation
	coveredTimeout sim.Timer // covered → safe after the stimulus leaves

	// Liveness tracking (nil/unarmed unless cfg.Liveness is enabled, so the
	// fault-free path pays nothing).
	live     *fault.Liveness
	liveTick sim.Timer

	detected   bool
	detectedAt float64
	sleepCount int // jitter sequence index
}

var _ node.Agent = (*Agent)(nil)

// New constructs a PAS agent with the given tunables; the config is
// validated once here so misconfigured experiments fail loudly.
func New(cfg Config) *Agent {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	a := &Agent{}
	a.fill(cfg)
	return a
}

// fill initializes an agent in place — shared by New and the slab factory.
func (a *Agent) fill(cfg Config) {
	*a = Agent{
		cfg:      cfg,
		schedule: MakeSleepSchedule(cfg.SleepInit, cfg.SleepIncrement, cfg.SleepMax),
	}
	a.model.Init(cfg.Predictor, predict.EstimatorConfig{
		UseMeanETA:              cfg.UseMeanETA,
		MaxReportAge:            cfg.MaxReportAge,
		DisableExpectedVelocity: cfg.DisableExpectedVelocity,
	})
}

// NewSlab returns a factory producing up to n agents carved from one
// contiguous slab — the bulk-construction path of node.BuildNetwork, which
// would otherwise pay one heap allocation per agent at 10k-node scale.
// Agents past n (never requested in practice: deployments are fixed-size)
// fall back to individual allocation. The config is validated once.
func NewSlab(cfg Config, n int) func() *Agent {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
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

// Package-level arg handlers for the agent's timers and staggered sends.
// Re-arming a timer with a long-lived handler and the agent as the argument
// allocates nothing, where the previous per-arm closures made every probe,
// reassessment and staggered response an allocation — the dominant
// steady-state garbage at 10k nodes.
func agentDecide(_ *sim.Kernel, arg any) {
	a := arg.(*Agent)
	a.decide(a.n)
}

func agentReassess(_ *sim.Kernel, arg any) {
	a := arg.(*Agent)
	n := a.n
	if n.State() != node.StateAlert {
		return
	}
	if n.Sense() {
		return // detection takes over (OnDetect ran)
	}
	if eta := a.refreshEstimate(n); eta >= a.cfg.AlertThreshold {
		a.enterSafe(n, true)
		return
	}
	a.armReassess(n)
}

func agentVelocityWindow(_ *sim.Kernel, arg any) {
	a := arg.(*Agent)
	n := a.n
	v, ok := predict.ActualVelocity(n.Pos(), a.detectedAt, a.reports, a.cfg.MinVelocityDt)
	if ok {
		a.model.SetVelocity(v)
	}
	if a.cfg.Hook != nil && a.cfg.Hook.Velocity != nil {
		a.cfg.Hook.Velocity(int(n.ID()), v.X, v.Y, ok)
	}
	a.sendResponse(n)
}

func agentCoveredTimeout(_ *sim.Kernel, arg any) {
	a := arg.(*Agent)
	n := a.n
	if n.State() != node.StateCovered || !n.IsAwake() {
		return
	}
	if n.CoveredNow() {
		return // stimulus came back during the timeout
	}
	a.enterSafe(n, true)
}

func agentStaggerSend(_ *sim.Kernel, arg any) {
	a := arg.(*Agent)
	if a.n.IsAwake() {
		a.sendResponse(a.n)
	}
}

// agentLivenessTick is the periodic liveness scan: advance the tracker and,
// when a suspect peer's backoff expired, broadcast one re-probe REQUEST
// (charging its transmit energy to the probe budget). The timer re-arms
// through ResetArg every tick — no per-event closures — and keeps ticking
// across sleep and churn outages (the handler only acts while awake).
func agentLivenessTick(_ *sim.Kernel, arg any) {
	a := arg.(*Agent)
	n := a.n
	if n.IsAwake() && a.live.Tick(n.Now()) {
		before := n.Meter().Breakdown().TxJ
		n.Broadcast(Request{}.Envelope())
		a.live.AddProbeEnergy(n.Meter().Breakdown().TxJ - before)
	}
	a.liveTick.ResetArg(a.cfg.Liveness.Interval, agentLivenessTick, a)
}

// Predicted returns the agent's current absolute arrival prediction (+Inf
// when unknown); exposed for tests and the visualizer.
func (a *Agent) Predicted() float64 { return a.model.Predicted() }

// LivenessStats snapshots the liveness tracker (zero value when tracking is
// disabled). Metrics collectors reach it through node.Agent type assertion.
func (a *Agent) LivenessStats() fault.LivenessStats {
	if a.live == nil {
		return fault.LivenessStats{}
	}
	return a.live.Stats()
}

// PredictionStats snapshots the predictor's per-run quality counters.
// Metrics collectors reach it through node.Agent type assertion.
func (a *Agent) PredictionStats() predict.Stats { return a.model.Stats() }

// Velocity returns the agent's current spreading-velocity estimate.
func (a *Agent) Velocity() (geom.Vec2, bool) { return a.model.Velocity() }

// Init implements node.Agent: boot in safe state and probe once, then start
// sleeping. (All sensors boot active; the first probe establishes whether
// anything is already happening nearby.)
func (a *Agent) Init(n *node.Node) {
	a.n = n
	a.decision.Bind(n.Kernel())
	a.reassess.Bind(n.Kernel())
	a.coveredTimeout.Bind(n.Kernel())
	if a.cfg.Liveness.Enabled() {
		a.live = fault.NewLiveness(a.cfg.Liveness)
		a.liveTick.Bind(n.Kernel())
		a.liveTick.ResetArg(a.cfg.Liveness.Interval, agentLivenessTick, a)
	}
	n.SetState(node.StateSafe)
	a.probe(n)
}

// probe sends a REQUEST and schedules the state decision at the end of the
// response window.
func (a *Agent) probe(n *node.Node) {
	n.Broadcast(Request{}.Envelope())
	a.decision.ResetArg(a.cfg.ResponseWindow, agentDecide, a)
}

// decide evaluates the freshly gathered reports and commits to alert or
// safe+sleep (safe-state behaviour of §3.2).
func (a *Agent) decide(n *node.Node) {
	if n.State() == node.StateCovered {
		return // detection happened inside the window; covered logic owns the node
	}
	eta := a.refreshEstimate(n)
	alert := eta < a.cfg.AlertThreshold
	if a.cfg.Hook != nil && a.cfg.Hook.Decision != nil {
		a.cfg.Hook.Decision(int(n.ID()), eta, len(a.reports), alert)
	}
	if alert {
		a.enterAlert(n)
		return
	}
	a.enterSafe(n, false)
}

// enterAlert transitions to the alert state and announces the prediction.
func (a *Agent) enterAlert(n *node.Node) {
	wasAlert := n.State() == node.StateAlert
	n.SetState(node.StateAlert)
	if !wasAlert {
		// Entering alert is by definition a significant new prediction:
		// propagate it so farther nodes learn (the mechanism that gives PAS
		// its larger information field than SAS).
		a.sendResponse(n)
		a.armReassess(n)
	}
}

// armReassess schedules the periodic alert re-evaluation.
func (a *Agent) armReassess(n *node.Node) {
	a.reassess.ResetArg(a.cfg.AlertReassess, agentReassess, a)
}

// enterSafe transitions to safe and sleeps. resetRamp restarts the linear
// schedule (used when falling back from alert/covered, where the situation
// has changed and cautious re-probing is warranted).
func (a *Agent) enterSafe(n *node.Node, resetRamp bool) {
	a.reassess.Stop()
	n.SetState(node.StateSafe)
	if resetRamp {
		a.schedule.Reset()
	}
	a.sleepCount++
	d := a.schedule.Next() * PhaseJitter(int(n.ID()), a.sleepCount, a.cfg.SleepJitter)
	n.Sleep(d)
}

// OnWake implements node.Agent: a safe node that slept through nothing
// probes again.
func (a *Agent) OnWake(n *node.Node) {
	a.probe(n)
}

// OnDetect implements node.Agent: the covered-state entry of §3.2 ("it first
// sends a REQUEST message; then it calculates the expected arrival time
// according to its neighbors' response, and finally it sends a RESPONSE
// message to deliver the new changes" — for a detecting node the calculation
// is the actual spreading velocity).
func (a *Agent) OnDetect(n *node.Node) {
	a.detected = true
	a.detectedAt = n.Now()
	a.model.MarkDetected(a.detectedAt) // arrival is no longer a prediction
	a.reassess.Stop()
	a.decision.Stop()
	n.SetState(node.StateCovered)
	n.Broadcast(Request{}.Envelope())
	a.decision.ResetArg(a.cfg.ResponseWindow, agentVelocityWindow, a)
}

// OnStimulusGone implements node.Agent: covered → safe after the detection
// timeout (paper Fig. 3).
func (a *Agent) OnStimulusGone(n *node.Node) {
	a.coveredTimeout.ResetArg(a.cfg.DetectionTimeout, agentCoveredTimeout, a)
}

// OnMessage implements node.Agent: value-dispatch on the envelope kind.
// Other kinds are ignored, except as life evidence for the liveness tracker.
func (a *Agent) OnMessage(n *node.Node, from radio.NodeID, env radio.Envelope) {
	if a.live != nil {
		// Any message is life evidence, whatever its kind.
		a.live.Observe(from, n.Now())
	}
	switch env.Kind {
	case radio.KindRequest:
		a.handleRequest(n)
	case radio.KindResponse:
		a.handleResponse(n, from, ResponseFromEnvelope(env))
	}
}

// handleRequest answers with the node's current knowledge. Only alert and
// covered nodes respond — safe nodes have nothing fresher than what the
// requester already knows, and keeping them quiet preserves the PAS/SAS
// contrast (alert-node responses are what widen PAS's information field).
func (a *Agent) handleRequest(n *node.Node) {
	st := n.State()
	if st != node.StateAlert && st != node.StateCovered {
		return
	}
	stagger := a.cfg.ResponseStagger * float64(1+int(n.ID())%8)
	if stagger <= 0 {
		a.sendResponse(n)
		return
	}
	n.Kernel().ScheduleArg(stagger, agentStaggerSend, a)
}

// handleResponse folds a neighbour's report into the table and re-evaluates
// (alert-state behaviour of §3.2: "If a sensor receives a RESPONSE message,
// it re-calculates the expected arrival time and replies with a RESPONSE
// message if the difference between the expectations has changed
// significantly"). The rebroadcast decision itself belongs to the
// predictor: the paper kind applies the significant-change rule, the
// switching kind additionally suppresses reports within its dual-prediction
// tolerance.
func (a *Agent) handleResponse(n *node.Node, from radio.NodeID, m Response) {
	a.reports.Put(m.Report(from, n.Now()))
	switch n.State() {
	case node.StateCovered:
		// Covered nodes only serve information; their own arrival is fact.
	case node.StateAlert:
		if eta := a.refreshEstimate(n); eta >= a.cfg.AlertThreshold {
			a.enterSafe(n, true)
			return
		}
		if a.model.Announce(a.cfg.SignificantChange, n.Now()) {
			a.sendResponse(n)
		}
	case node.StateSafe:
		if a.decision.Armed() {
			return // decision at the window end will use the fresh table
		}
		// A safe node awake outside a probe window (e.g. just fell back
		// from alert within the same instant) re-evaluates directly.
		if eta := a.refreshEstimate(n); eta < a.cfg.AlertThreshold {
			a.enterAlert(n)
		}
	}
}

// Report converts a response from neighbour from, received at now, into the
// report the PAS and SAS agents store.
func (r Response) Report(from radio.NodeID, now float64) predict.Report {
	return predict.Report{
		ID:               from,
		Pos:              r.Pos,
		State:            r.State,
		Velocity:         r.Velocity,
		HasVelocity:      r.HasVelocity,
		HasDirection:     r.HasDirection,
		PredictedArrival: r.PredictedArrival,
		DetectedAt:       r.DetectedAt,
		Detected:         r.Detected,
		ReceivedAt:       now,
	}
}

// refreshEstimate delegates one prediction refresh to the plugged predictor
// and returns the expected arrival in seconds from now.
func (a *Agent) refreshEstimate(n *node.Node) float64 {
	return a.model.Refresh(predict.Input{Pos: n.Pos(), Now: n.Now(), Reports: a.reports})
}

// sendResponse broadcasts the node's current knowledge.
func (a *Agent) sendResponse(n *node.Node) {
	if !n.IsAwake() {
		return
	}
	v, hasV := a.model.Velocity()
	n.Broadcast(Response{
		Pos:      n.Pos(),
		State:    n.State(),
		Velocity: v,
		// PAS velocity estimates are true vectors (§3.3), so a valid
		// velocity always carries a valid direction.
		HasVelocity:      hasV,
		HasDirection:     hasV,
		PredictedArrival: a.model.Predicted(),
		DetectedAt:       a.detectedAt,
		Detected:         a.detected,
	}.Envelope())
}
