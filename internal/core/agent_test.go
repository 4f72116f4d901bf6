package core

import (
	"math"
	"testing"

	"repro/internal/deploy"
	"repro/internal/diffusion"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// stubAgent is an always-awake scripted neighbour for driving PAS agents.
type stubAgent struct {
	onInit func(n *node.Node)
	onMsg  func(n *node.Node, from radio.NodeID, env radio.Envelope)
	got    []radio.Envelope
}

func (s *stubAgent) Init(n *node.Node) {
	if s.onInit != nil {
		s.onInit(n)
	}
}
func (s *stubAgent) OnWake(*node.Node)         {}
func (s *stubAgent) OnDetect(*node.Node)       {}
func (s *stubAgent) OnStimulusGone(*node.Node) {}
func (s *stubAgent) OnMessage(n *node.Node, from radio.NodeID, env radio.Envelope) {
	s.got = append(s.got, env)
	if s.onMsg != nil {
		s.onMsg(n, from, env)
	}
}

// farStimulus returns a front that effectively never reaches the test field.
func farStimulus() diffusion.FrontModel {
	return diffusion.NewRadialFront(geom.V(-1e6, 0), 0.001, 0)
}

// rig wires a kernel+medium over a small field.
func rig() (*sim.Kernel, *radio.Medium) {
	k := sim.NewKernel()
	st := rng.NewSource(1).Stream("channel")
	m := radio.NewMedium(k, geom.R(-50, -50, 50, 50), energy.Telos(), radio.UnitDisk{Range: 15}, st)
	return k, m
}

func addNode(k *sim.Kernel, m *radio.Medium, id radio.NodeID, pos geom.Vec2, stim diffusion.Stimulus, a node.Agent) *node.Node {
	return node.New(node.Config{
		ID: id, Pos: pos, Kernel: k, Medium: m,
		Stimulus: stim, Profile: energy.Telos(), Agent: a,
	})
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.AlertThreshold = 10
	cfg.SleepInit = 1
	cfg.SleepIncrement = 1
	cfg.SleepMax = 3
	return cfg
}

// imminentResponse is a covered-neighbour report whose front is heading
// straight for the given target position.
func imminentResponse(from geom.Vec2, target geom.Vec2, speed, detectedAt float64) Response {
	dir := target.Sub(from).Normalize().Scale(speed)
	return Response{
		Pos:              from,
		State:            node.StateCovered,
		Velocity:         dir,
		HasVelocity:      true,
		HasDirection:     true,
		PredictedArrival: detectedAt,
		DetectedAt:       detectedAt,
		Detected:         true,
	}
}

func TestSafeNodeAlertsOnImminentThreat(t *testing.T) {
	k, m := rig()
	stim := farStimulus()
	pas := New(testConfig())
	target := geom.V(0, 0)
	n := addNode(k, m, 0, target, stim, pas)
	stub := &stubAgent{onInit: func(sn *node.Node) {
		// Covered neighbour 5 m away, front moving toward the PAS node at
		// 1 m/s: eta ≈ 5 s < threshold 10.
		sn.Kernel().Schedule(0.01, func(*sim.Kernel) {
			sn.Broadcast(imminentResponse(geom.V(-5, 0), target, 1, 0).Envelope())
		})
	}}
	sn := addNode(k, m, 1, geom.V(-5, 0), stim, stub)
	n.Start()
	sn.Start()
	k.RunUntil(0.5)
	if n.State() != node.StateAlert {
		t.Fatalf("state = %v, want alert", n.State())
	}
	if !n.IsAwake() {
		t.Error("alert node asleep")
	}
	// Entering alert announces the prediction: the stub must have received
	// a RESPONSE (besides nothing else it asked for).
	sawResponse := false
	for _, env := range stub.got {
		if env.Kind == radio.KindResponse {
			sawResponse = true
		}
	}
	if !sawResponse {
		t.Error("alert entry did not broadcast a response")
	}
	if p := pas.Predicted(); math.IsInf(p, 1) {
		t.Error("no prediction recorded")
	}
	if _, ok := pas.Velocity(); !ok {
		t.Error("no velocity estimate recorded")
	}
}

func TestSafeNodeSleepsWhenThreatFar(t *testing.T) {
	k, m := rig()
	stim := farStimulus()
	pas := New(testConfig())
	target := geom.V(0, 0)
	n := addNode(k, m, 0, target, stim, pas)
	stub := &stubAgent{onInit: func(sn *node.Node) {
		// Covered neighbour 14 m away moving toward us at 0.1 m/s:
		// eta ≈ 140 s >> threshold.
		sn.Kernel().Schedule(0.01, func(*sim.Kernel) {
			sn.Broadcast(imminentResponse(geom.V(-14, 0), target, 0.1, 0).Envelope())
		})
	}}
	sn := addNode(k, m, 1, geom.V(-14, 0), stim, stub)
	n.Start()
	sn.Start()
	k.RunUntil(0.5)
	if n.State() != node.StateSafe {
		t.Fatalf("state = %v, want safe", n.State())
	}
	if n.IsAwake() {
		t.Error("safe node with distant threat is not sleeping")
	}
}

func TestSafeNodeIgnoresRecedingFront(t *testing.T) {
	k, m := rig()
	stim := farStimulus()
	pas := New(testConfig())
	n := addNode(k, m, 0, geom.V(0, 0), stim, pas)
	stub := &stubAgent{onInit: func(sn *node.Node) {
		sn.Kernel().Schedule(0.01, func(*sim.Kernel) {
			// Fast front moving AWAY from the node.
			sn.Broadcast(Response{
				Pos: geom.V(-5, 0), State: node.StateCovered,
				Velocity: geom.V(-3, 0), HasVelocity: true, HasDirection: true,
				PredictedArrival: 0, DetectedAt: 0, Detected: true,
			}.Envelope())
		})
	}}
	sn := addNode(k, m, 1, geom.V(-5, 0), stim, stub)
	n.Start()
	sn.Start()
	k.RunUntil(0.5)
	if n.State() != node.StateSafe || n.IsAwake() {
		t.Errorf("receding front: state=%v awake=%v, want safe+asleep", n.State(), n.IsAwake())
	}
}

func TestAlertFallsBackToSafeViaAging(t *testing.T) {
	k, m := rig()
	stim := farStimulus()
	cfg := testConfig()
	cfg.MaxReportAge = 2
	cfg.AlertReassess = 0.5
	pas := New(cfg)
	target := geom.V(0, 0)
	n := addNode(k, m, 0, target, stim, pas)
	stub := &stubAgent{onInit: func(sn *node.Node) {
		sn.Kernel().Schedule(0.01, func(*sim.Kernel) {
			sn.Broadcast(imminentResponse(geom.V(-5, 0), target, 1, 0).Envelope())
		})
	}}
	sn := addNode(k, m, 1, geom.V(-5, 0), stim, stub)
	n.Start()
	sn.Start()
	k.RunUntil(0.5)
	if n.State() != node.StateAlert {
		t.Fatalf("precondition: state = %v, want alert", n.State())
	}
	// The single report ages out at ~2 s; the next reassessment must drop
	// the node back to safe and put it to sleep.
	k.RunUntil(4)
	if n.State() != node.StateSafe {
		t.Fatalf("state = %v, want safe after aging", n.State())
	}
	if n.IsAwake() {
		// It may legitimately be awake inside one of its probe windows;
		// advance past the window and check again.
		k.RunUntil(4.5)
		if n.IsAwake() && n.State() == node.StateSafe {
			sleeping := false
			for tt := 4.5; tt < 8; tt += 0.5 {
				k.RunUntil(tt)
				if !n.IsAwake() {
					sleeping = true
					break
				}
			}
			if !sleeping {
				t.Error("safe node never went back to sleep")
			}
		}
	}
}

func TestCoveredNodeComputesActualVelocity(t *testing.T) {
	// Front crosses the stub (at x=-5) at t=5, then the PAS node (x=0) at
	// t=10 → actual velocity ≈ (1, 0) from the single covered neighbour.
	k, m := rig()
	stim := diffusion.NewRadialFront(geom.V(-10, 0), 1, 0)
	pas := New(testConfig())
	n := addNode(k, m, 0, geom.V(0, 0), stim, pas)
	// The stub answers the PAS node's detection-time REQUEST as a covered
	// node that detected at t=5.
	stub := &stubAgent{}
	stub.onMsg = func(sn *node.Node, _ radio.NodeID, env radio.Envelope) {
		if env.Kind != radio.KindRequest {
			return
		}
		if sn.Now() < 5 {
			return // not "covered" yet
		}
		sn.Broadcast(Response{
			Pos: sn.Pos(), State: node.StateCovered,
			PredictedArrival: 5, DetectedAt: 5, Detected: true,
		}.Envelope())
	}
	sn := addNode(k, m, 1, geom.V(-5, 0), stim, stub)
	n.Start()
	sn.Start()
	k.RunUntil(12)
	if n.State() != node.StateCovered {
		t.Fatalf("state = %v, want covered", n.State())
	}
	v, ok := pas.Velocity()
	if !ok {
		t.Fatal("covered node has no velocity estimate")
	}
	// Detection may lag arrival by up to the sleep interval, so the speed
	// estimate is |AB| / (tDetect − 5) ∈ [5/(5+maxSleep+ε), 1].
	if v.X < 0.5 || v.X > 1.05 || math.Abs(v.Y) > 1e-9 {
		t.Errorf("velocity = %v, want ≈(1,0)", v)
	}
	// And it must have broadcast the estimate.
	sawVelocity := false
	for _, env := range stub.got {
		if env.Kind == radio.KindResponse && ResponseFromEnvelope(env).HasVelocity {
			sawVelocity = true
		}
	}
	if !sawVelocity {
		t.Error("covered node never broadcast its velocity")
	}
}

func TestRequestAnsweredOnlyWhenAlertOrCovered(t *testing.T) {
	k, m := rig()
	stim := farStimulus()
	cfg := testConfig()
	cfg.SleepMax = 1000 // keep the PAS node asleep after its first window
	cfg.SleepInit = 1000
	pas := New(cfg)
	n := addNode(k, m, 0, geom.V(0, 0), stim, pas)
	stub := &stubAgent{}
	sn := addNode(k, m, 1, geom.V(-5, 0), stim, stub)
	// Probe the PAS node inside its initial awake window, while it is safe.
	k.Schedule(0.05, func(*sim.Kernel) { sn.Broadcast(Request{}.Envelope()) })
	n.Start()
	sn.Start()
	k.RunUntil(0.2)
	for _, env := range stub.got {
		if env.Kind == radio.KindResponse {
			t.Fatal("safe node answered a REQUEST")
		}
	}
	_ = n
}

func TestAlertNodeAnswersRequest(t *testing.T) {
	k, m := rig()
	stim := farStimulus()
	pas := New(testConfig())
	target := geom.V(0, 0)
	n := addNode(k, m, 0, target, stim, pas)
	stub := &stubAgent{}
	sn := addNode(k, m, 1, geom.V(-5, 0), stim, stub)
	k.Schedule(0.01, func(*sim.Kernel) {
		sn.Broadcast(imminentResponse(geom.V(-5, 0), target, 1, 0).Envelope())
	})
	// After the node has gone alert, probe it.
	k.Schedule(1, func(*sim.Kernel) { sn.Broadcast(Request{}.Envelope()) })
	n.Start()
	sn.Start()
	k.RunUntil(2)
	if n.State() != node.StateAlert {
		t.Fatalf("precondition: state = %v", n.State())
	}
	responses := 0
	for _, env := range stub.got {
		if env.Kind == radio.KindResponse {
			responses++
		}
	}
	// One on entering alert plus one answering the request.
	if responses < 2 {
		t.Errorf("got %d responses, want >= 2", responses)
	}
}

func TestPASNetworkPaperScenario(t *testing.T) {
	sc := paperScenario(t)
	dep := deploy.ConnectedUniform(rng.NewSource(7).Stream("deploy"), sc.Field, 30, 10, 500)
	cfg := DefaultConfig()
	cfg.SleepMax = 10
	nw := node.BuildNetwork(node.NetworkConfig{
		Deployment: dep,
		Stimulus:   sc.Stimulus,
		Profile:    energy.Telos(),
		Loss:       radio.UnitDisk{Range: 10},
		Agents:     func(radio.NodeID) node.Agent { return New(cfg) },
	})
	var sawAlert bool
	for _, n := range nw.Nodes {
		n.OnStateChange(func(_ *node.Node, _, s node.State) {
			if s == node.StateAlert {
				sawAlert = true
			}
		})
	}
	nw.Run(sc.Horizon)

	nsEnergy := 0.041 * sc.Horizon // an always-on node's joules
	detected := 0
	var totalDelay, totalEnergy float64
	for _, n := range nw.Nodes {
		if d, ok := n.DetectionDelay(); ok {
			detected++
			totalDelay += d
			if d < 0 {
				t.Fatalf("node %d detected before arrival (delay %v)", n.ID(), d)
			}
			if d > cfg.SleepMax*1.3+1 {
				t.Errorf("node %d delay %v exceeds jittered max sleep", n.ID(), d)
			}
		}
		totalEnergy += n.Meter().TotalJ()
	}
	if detected < 25 {
		t.Fatalf("only %d/30 nodes detected", detected)
	}
	if !sawAlert {
		t.Error("no node ever entered the alert state")
	}
	meanDelay := totalDelay / float64(detected)
	if meanDelay >= cfg.SleepMax/2 {
		t.Errorf("mean delay %v not better than oblivious sleeping (%v)", meanDelay, cfg.SleepMax/2)
	}
	meanEnergy := totalEnergy / float64(len(nw.Nodes))
	if meanEnergy >= nsEnergy {
		t.Errorf("mean energy %v J not below always-on %v J", meanEnergy, nsEnergy)
	}
}

func TestAlertResidencyGrowsWithThreshold(t *testing.T) {
	// The paper's adaptive knob: a larger alert time produces a larger
	// alert area (more alert residency), trading energy for latency.
	residency := func(threshold float64) float64 {
		sc := paperScenario(t)
		dep := deploy.ConnectedUniform(rng.NewSource(7).Stream("deploy"), sc.Field, 30, 10, 500)
		cfg := DefaultConfig()
		cfg.AlertThreshold = threshold
		nw := node.BuildNetwork(node.NetworkConfig{
			Deployment: dep,
			Stimulus:   sc.Stimulus,
			Profile:    energy.Telos(),
			Loss:       radio.UnitDisk{Range: 10},
			Agents:     func(radio.NodeID) node.Agent { return New(cfg) },
		})
		nw.Run(sc.Horizon)
		var alert float64
		for _, n := range nw.Nodes {
			alert += n.StateResidency()[node.StateAlert]
		}
		return alert
	}
	lo := residency(3)
	hi := residency(30)
	if hi <= lo {
		t.Errorf("alert residency did not grow with threshold: %v (T=3) vs %v (T=30)", lo, hi)
	}
}

// paperScenario builds the registry's paper workload (Figs. 4-7).
func paperScenario(t *testing.T) diffusion.Scenario {
	t.Helper()
	sp, _ := scenario.Lookup("paper")
	sc, err := sp.BuildStimulus(1)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}
