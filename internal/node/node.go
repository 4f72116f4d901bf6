// Package node implements the sensor-mote runtime: the per-node state
// machine scaffolding (safe/alert/covered, paper Fig. 3), the sensing
// process, sleep/wake control with energy accounting, radio plumbing and
// failure injection. Protocol behaviour (PAS, SAS, NS, duty-cycling) is
// supplied by an Agent implementation; the Node provides the facilities
// agents act through.
//
// A Network runs on one or more spatial shards through one builder
// (BuildShardedNetwork; BuildNetwork is the one-shard call) and one run loop
// (Network.RunContext). One shard is serial execution: one kernel, one
// medium, no goroutine and no barrier. Two or more split the deployment into
// contiguous strips over one shared frozen topology and advance in lockstep
// windows of W = TxTime(minWire) — the shortest on-air transmission, hence
// the minimum cross-shard influence delay — with a barrier between windows
// that reconstructs the serial event order (sim.ShardGroup.EndWindow) and
// exchanges the staged cross-shard deliveries (radio FlushBoundary). The
// output is bit-identical at any shard count; only the wall-clock changes.
package node

import (
	"fmt"
	"math"

	"repro/internal/diffusion"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/sim"
)

// State is the protocol state of a sensor (paper §3.2).
type State int

// The three sensor states of the paper.
const (
	// StateSafe means the stimulus is far (or unknown); the node may sleep.
	StateSafe State = iota
	// StateAlert means the predicted arrival is imminent; the node stays
	// awake to catch it.
	StateAlert
	// StateCovered means the node's sensor currently observes the stimulus.
	StateCovered
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateSafe:
		return "safe"
	case StateAlert:
		return "alert"
	case StateCovered:
		return "covered"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Agent is the protocol personality plugged into a Node. All callbacks run
// on the simulation goroutine.
type Agent interface {
	// Init is called once at simulation start with the node fully wired.
	Init(n *Node)
	// OnWake is called when the node wakes from sleep and its sensor does
	// not newly detect the stimulus (a new detection goes to OnDetect
	// instead).
	OnWake(n *Node)
	// OnDetect is called the moment the node's sensor first observes the
	// stimulus: immediately at arrival while awake, or at wake-up while it
	// slept through the arrival.
	OnDetect(n *Node)
	// OnStimulusGone is called when a previously covered node's sensor
	// stops observing the stimulus (receding stimuli only).
	OnStimulusGone(n *Node)
	// OnMessage is called for every message received while awake. The
	// envelope arrives by value; protocol payloads are unpacked from the
	// tagged union by kind (radio.KindRequest/KindResponse/KindBeacon).
	OnMessage(n *Node, from radio.NodeID, env radio.Envelope)
}

// Departer is implemented by stimuli whose coverage can end (e.g.
// diffusion.Receding); nodes use it to schedule OnStimulusGone.
type Departer interface {
	DepartureTime(p geom.Vec2) float64
}

// SensorModel transforms ground-truth coverage into what a (possibly
// miscalibrated) sensor actually reads. internal/fault implements it; a node
// without one reads the stimulus directly.
type SensorModel interface {
	// Reading is the sensor output at time now given the true stimulus.
	// Query times are non-decreasing within a run.
	Reading(stim diffusion.Stimulus, pos geom.Vec2, now float64) bool
	// SenseTimes lists extra instants the node should sample its sensor at
	// (perceived arrival, noise-burst onsets, ...) beyond the ground-truth
	// arrival event. Times in the past or at +Inf are ignored.
	SenseTimes(stim diffusion.Stimulus, pos geom.Vec2) []float64
}

// Downtime is one closed outage interval of a churned node.
type Downtime struct {
	Start, End float64
}

// Node is one simulated sensor mote. Nodes embed their meter and timers by
// value and schedule their callbacks as package-level arg handlers, so the
// network builder can slab-allocate thousands of them with O(1) allocations.
type Node struct {
	id     radio.NodeID
	pos    geom.Vec2
	kernel *sim.Kernel
	medium *radio.Medium
	stim   diffusion.Stimulus
	meter  energy.Meter
	agent  Agent
	sensor SensorModel // nil = perfect sensor (the default)

	state      State
	awake      bool
	failed     bool
	detected   bool
	detectedAt float64
	arrival    float64 // ground-truth arrival time (possibly +Inf)

	wake      sim.Timer
	txCount   int
	rxCount   int
	stateTime [3]float64 // residency per state
	lastState float64    // time of last state change

	// Battery, when positive, is the energy budget in joules; the node dies
	// the moment its meter would exceed it.
	battery float64
	death   sim.Timer
	diedAt  float64
	dead    bool // exhausted battery (distinct from injected failure)

	// Churn bookkeeping: failedAt is the instant of the current (or last)
	// failure; downs accumulates closed outage intervals on recovery, so the
	// legacy crash-stop path (which never recovers) stays allocation-free.
	failedAt float64
	downs    []Downtime

	// Observer hooks (optional; set by metrics/trace collectors).
	onStateChange func(n *Node, old, new State)
	onDetect      func(n *Node, delay float64)
}

// Config wires a node into a simulation.
type Config struct {
	ID       radio.NodeID
	Pos      geom.Vec2
	Kernel   *sim.Kernel
	Medium   *radio.Medium
	Stimulus diffusion.Stimulus
	Profile  energy.Profile
	Agent    Agent
}

// Package-level arg handlers for node callbacks: scheduling them with the
// node as the event argument (a pointer, which boxes without allocating)
// keeps node construction and sleep/wake churn free of closure allocations.
func nodeWake(_ *sim.Kernel, arg any)    { arg.(*Node).wakeUp() }
func nodeSense(_ *sim.Kernel, arg any)   { arg.(*Node).senseNow() }
func nodeGone(_ *sim.Kernel, arg any)    { arg.(*Node).stimulusGone() }
func nodeDie(_ *sim.Kernel, arg any)     { arg.(*Node).dieOfBattery() }
func nodeFail(_ *sim.Kernel, arg any)    { arg.(*Node).Fail() }
func nodeRecover(_ *sim.Kernel, arg any) { arg.(*Node).Recover() }

// New creates a node, registers it on the medium and schedules its sensing
// events. The node starts awake in the safe state (all sensors boot active;
// the agent decides in Init whether to sleep).
func New(cfg Config) *Node {
	n := new(Node)
	n.init(cfg)
	return n
}

// init wires a node in place — the slab-construction entry point used by
// BuildShardedNetwork (New wraps it for hand-built nodes).
func (n *Node) init(cfg Config) {
	if cfg.Kernel == nil || cfg.Medium == nil || cfg.Stimulus == nil || cfg.Agent == nil {
		panic("node: incomplete config")
	}
	*n = Node{
		id:        cfg.ID,
		pos:       cfg.Pos,
		kernel:    cfg.Kernel,
		medium:    cfg.Medium,
		stim:      cfg.Stimulus,
		agent:     cfg.Agent,
		state:     StateSafe,
		awake:     true,
		arrival:   cfg.Stimulus.ArrivalTime(cfg.Pos),
		lastState: cfg.Kernel.Now(),
	}
	n.meter.Init(cfg.Profile, cfg.Kernel.Now(), energy.ModeActive)
	n.wake.Bind(cfg.Kernel)
	n.death.Bind(cfg.Kernel)
	cfg.Medium.AddNode(cfg.ID, cfg.Pos, n, &n.meter)
	// The events scheduled here act for this node: give them its hop class.
	prev := cfg.Kernel.SetClass(cfg.Medium.HopClass(cfg.ID))
	defer cfg.Kernel.SetClass(prev)

	// Ground-truth arrival: an awake sensor detects at this exact instant.
	if !math.IsInf(n.arrival, 1) && n.arrival >= cfg.Kernel.Now() {
		cfg.Kernel.ScheduleArgAt(n.arrival, nodeSense, n)
	}
	// Receding stimuli: schedule the departure check.
	if dep, ok := cfg.Stimulus.(Departer); ok {
		if d := dep.DepartureTime(cfg.Pos); !math.IsInf(d, 1) && d >= cfg.Kernel.Now() {
			cfg.Kernel.ScheduleArgAt(d, nodeGone, n)
		}
	}
}

// Start invokes the agent's Init. Call after all nodes exist so that initial
// broadcasts can reach every neighbour.
func (n *Node) Start() {
	prev := n.kernel.SetClass(n.medium.HopClass(n.id))
	n.agent.Init(n)
	n.kernel.SetClass(prev)
}

// --- identity & environment accessors ---

// ID returns the node's medium identifier.
func (n *Node) ID() radio.NodeID { return n.id }

// Pos returns the node's fixed position.
func (n *Node) Pos() geom.Vec2 { return n.pos }

// Now returns the current virtual time.
func (n *Node) Now() float64 { return n.kernel.Now() }

// Kernel exposes the simulation kernel for agent-managed timers.
func (n *Node) Kernel() *sim.Kernel { return n.kernel }

// Meter returns the node's energy meter.
func (n *Node) Meter() *energy.Meter { return &n.meter }

// TrueArrival returns the ground-truth stimulus arrival time at this node
// (+Inf if never). Metrics use it; protocol agents must not (they only see
// sensor readings and messages).
func (n *Node) TrueArrival() float64 { return n.arrival }

// --- state ---

// State returns the node's protocol state.
func (n *Node) State() State { return n.state }

// SetState transitions the protocol state, updating residency accounting and
// notifying the observer hook.
func (n *Node) SetState(s State) {
	if s == n.state {
		return
	}
	now := n.kernel.Now()
	n.stateTime[n.state] += now - n.lastState
	n.lastState = now
	old := n.state
	n.state = s
	if n.onStateChange != nil {
		n.onStateChange(n, old, s)
	}
}

// StateResidency returns the time spent in each state so far, with the
// current stretch included.
func (n *Node) StateResidency() [3]float64 {
	r := n.stateTime
	r[n.state] += n.kernel.Now() - n.lastState
	return r
}

// --- sleep/wake ---

// IsAwake reports whether the node is awake (false while sleeping or after
// failure); every change is mirrored into the medium's listening bit.
func (n *Node) IsAwake() bool { return n.awake && !n.failed }

// Sleep puts the node to sleep for d seconds, after which it wakes and the
// agent's OnWake (or OnDetect, if the stimulus arrived meanwhile) runs.
// Sleeping with d <= 0 panics: a zero sleep would busy-loop the kernel.
func (n *Node) Sleep(d float64) {
	if d <= 0 {
		panic(fmt.Sprintf("node %d: sleep duration must be positive, got %g", n.id, d))
	}
	if n.failed || !n.awake {
		return
	}
	n.awake = false
	n.medium.SetListening(n.id, false)
	n.meter.SetMode(n.kernel.Now(), energy.ModeSleep)
	n.rescheduleDeath()
	n.wake.ResetArg(d, nodeWake, n)
}

// wakeUp transitions to awake and routes to the agent.
func (n *Node) wakeUp() {
	if n.failed {
		return
	}
	n.awake = true
	n.medium.SetListening(n.id, true)
	n.meter.SetMode(n.kernel.Now(), energy.ModeActive)
	n.rescheduleDeath()
	if n.senseNow() {
		return // new detection already routed to OnDetect
	}
	n.agent.OnWake(n)
}

// senseNow samples the sensor; on a new detection it records the delay and
// calls OnDetect, reporting true.
func (n *Node) senseNow() bool {
	if n.failed || !n.awake || n.detected {
		return false
	}
	if !n.covered(n.kernel.Now()) {
		return false
	}
	n.detected = true
	n.detectedAt = n.kernel.Now()
	if n.onDetect != nil {
		n.onDetect(n, n.detectedAt-n.arrival)
	}
	n.agent.OnDetect(n)
	return true
}

// stimulusGone fires when a receding stimulus leaves the node's position.
func (n *Node) stimulusGone() {
	if n.failed {
		return
	}
	// Only meaningful if the node had detected; a node that slept through
	// the whole dwell never knew.
	if n.detected && n.awake {
		n.agent.OnStimulusGone(n)
	}
}

// Sense samples the sensor and routes a new detection to the agent's
// OnDetect, reporting whether a new detection occurred. Awake agents use it
// to model continuous monitoring (the scheduled ground-truth arrival event
// normally fires first; Sense is the safety net for stimuli whose coverage
// queries carry numerical error). Asleep or failed nodes sense nothing.
func (n *Node) Sense() bool { return n.senseNow() }

// CoveredNow returns the sensor reading at the current instant. Agents may
// only call it while awake (the sensor is powered down asleep); calling it
// asleep panics to catch protocol bugs.
func (n *Node) CoveredNow() bool {
	if !n.IsAwake() {
		panic(fmt.Sprintf("node %d: sensor read while asleep", n.id))
	}
	return n.covered(n.kernel.Now())
}

// covered is the sensor reading at time t: the ground-truth coverage, routed
// through the miscalibration model when one is installed.
func (n *Node) covered(t float64) bool {
	if n.sensor != nil {
		return n.sensor.Reading(n.stim, n.pos, t)
	}
	return n.stim.Covered(n.pos, t)
}

// SetSensor installs a miscalibration model and schedules its extra sensing
// instants (perceived arrival, burst onsets). Call before Start.
func (n *Node) SetSensor(sm SensorModel) {
	n.sensor = sm
	if sm == nil {
		return
	}
	now := n.kernel.Now()
	for _, t := range sm.SenseTimes(n.stim, n.pos) {
		if !math.IsInf(t, 1) && t >= now {
			n.kernel.ScheduleArgAt(t, nodeSense, n)
		}
	}
}

// Sensor returns the installed sensor model (nil = perfect sensor).
func (n *Node) Sensor() SensorModel { return n.sensor }

// Detected reports whether and when the node has detected the stimulus.
func (n *Node) Detected() (float64, bool) { return n.detectedAt, n.detected }

// DetectionDelay returns the elapsed time between ground-truth arrival and
// detection, and whether the node has detected at all.
func (n *Node) DetectionDelay() (float64, bool) {
	if !n.detected {
		return 0, false
	}
	return n.detectedAt - n.arrival, true
}

// --- radio ---

// Deliver implements radio.Receiver; the medium delivers only while awake.
func (n *Node) Deliver(from radio.NodeID, env radio.Envelope) {
	n.rxCount++
	n.agent.OnMessage(n, from, env)
}

// Broadcast transmits an envelope to the neighbourhood. Transmitting while
// asleep or failed panics — it indicates a protocol bug.
func (n *Node) Broadcast(env radio.Envelope) {
	if !n.IsAwake() {
		panic(fmt.Sprintf("node %d: broadcast while not awake", n.id))
	}
	n.txCount++
	n.medium.Broadcast(n.id, env)
}

// TxCount returns the number of transmissions initiated.
func (n *Node) TxCount() int { return n.txCount }

// RxCount returns the number of messages received.
func (n *Node) RxCount() int { return n.rxCount }

// --- battery ---

// SetBattery gives the node a finite energy budget in joules; when the
// meter's projected consumption reaches it, the node dies (like a failure,
// but recorded separately). Call before Start. A non-positive budget
// disables the battery (infinite energy, the default).
func (n *Node) SetBattery(joules float64) {
	n.battery = joules
	n.rescheduleDeath()
}

// rescheduleDeath projects the exhaustion instant under the current draw.
// It must be called after every mode change; the projection is exact
// between mode changes because the draw is piecewise constant (transmit
// charges land between projections and only pull death earlier, which the
// next mode change corrects — acceptable because packet energies are ~µJ
// against multi-joule budgets).
func (n *Node) rescheduleDeath() {
	if n.battery <= 0 || n.failed {
		return
	}
	now := n.kernel.Now()
	remaining := n.battery - n.meter.TotalAtJ(now)
	if remaining <= 0 {
		n.dieOfBattery()
		return
	}
	draw := n.meter.CurrentDrawW()
	if draw <= 0 {
		n.death.Stop()
		return
	}
	n.death.ResetArg(remaining/draw, nodeDie, n)
}

// dieOfBattery marks exhaustion and kills the node.
func (n *Node) dieOfBattery() {
	if n.failed {
		return
	}
	n.dead = true
	n.diedAt = n.kernel.Now()
	n.Fail()
}

// BatteryDead reports whether (and when) the node died of battery
// exhaustion.
func (n *Node) BatteryDead() (float64, bool) { return n.diedAt, n.dead }

// --- failure injection ---

// Fail kills the node at the current instant: it stops sensing, listening
// and waking, and its meter stops accruing (a dead node draws nothing).
func (n *Node) Fail() {
	if n.failed {
		return
	}
	n.failed = true
	n.medium.SetListening(n.id, false)
	n.failedAt = n.kernel.Now()
	n.wake.Stop()
	n.death.Stop()
	n.meter.Close(n.kernel.Now())
}

// Failed reports whether the node has been killed.
func (n *Node) Failed() bool { return n.failed }

// FailAt schedules the node to fail at virtual time at.
func (n *Node) FailAt(at float64) {
	n.kernel.ScheduleArgAt(at, nodeFail, n)
}

// Recover reboots a failed node in place: the outage closes, the meter
// reopens in active mode (charging the wake-up cost — a reboot is at least
// a wake-up), the radio is marked deaf to transmissions already in flight,
// and the agent sees an OnWake (or OnDetect if the stimulus arrived during
// the outage). Positions never change, so the frozen network topology stays
// valid — recovery must never touch the medium's neighbor structure.
// Battery-dead nodes stay dead; recovery is for injected churn only.
func (n *Node) Recover() {
	if !n.failed || n.dead {
		return
	}
	now := n.kernel.Now()
	n.downs = append(n.downs, Downtime{Start: n.failedAt, End: now})
	n.failed = false
	n.awake = true
	n.medium.SetListening(n.id, true)
	n.meter.Reopen(now, energy.ModeActive)
	n.medium.MarkDeafUntil(n.id, now)
	n.rescheduleDeath()
	if !n.senseNow() {
		n.agent.OnWake(n)
	}
}

// RecoverAt schedules the node to recover at virtual time at.
func (n *Node) RecoverAt(at float64) {
	n.kernel.ScheduleArgAt(at, nodeRecover, n)
}

// Downtimes returns the closed outage intervals so far (recoveries only; a
// node currently down has an open interval ending at WasDownAt's query
// time). The slice is owned by the node — do not mutate.
func (n *Node) Downtimes() []Downtime { return n.downs }

// WasDownAt reports whether the node was failed at time t.
func (n *Node) WasDownAt(t float64) bool {
	for _, d := range n.downs {
		if t >= d.Start && t < d.End {
			return true
		}
	}
	return n.failed && t >= n.failedAt
}

// DownDuring returns the total time the node spent failed within
// [0, horizon], the open tail of a still-failed node included.
func (n *Node) DownDuring(horizon float64) float64 {
	var tot float64
	for _, d := range n.downs {
		tot += math.Min(d.End, horizon) - math.Min(d.Start, horizon)
	}
	if n.failed && n.failedAt < horizon {
		tot += horizon - n.failedAt
	}
	return tot
}

// Agent exposes the protocol agent, letting metrics collectors type-assert
// for protocol-specific statistics (e.g. liveness tracking).
func (n *Node) Agent() Agent { return n.agent }

// --- observers ---

// OnStateChange registers a hook invoked on every state transition.
func (n *Node) OnStateChange(f func(n *Node, old, new State)) { n.onStateChange = f }

// OnDetectHook registers a hook invoked when the node first detects the
// stimulus, with the detection delay.
func (n *Node) OnDetectHook(f func(n *Node, delay float64)) { n.onDetect = f }

// Finish closes the meter at the end of the simulation. Idempotent for a
// fixed timestamp; failed nodes were closed at failure time.
func (n *Node) Finish(at float64) {
	if !n.failed {
		n.meter.Close(at)
	}
}
