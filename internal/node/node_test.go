package node

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/deploy"
	"repro/internal/diffusion"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sim"
)

// scriptAgent records callbacks and runs optional scripted reactions.
type scriptAgent struct {
	inits, wakes, detects, gones int
	msgs                         []radio.Envelope
	onInit                       func(n *Node)
	onWake                       func(n *Node)
	onDetect                     func(n *Node)
	onMsg                        func(n *Node, from radio.NodeID, env radio.Envelope)
}

func (a *scriptAgent) Init(n *Node) {
	a.inits++
	if a.onInit != nil {
		a.onInit(n)
	}
}
func (a *scriptAgent) OnWake(n *Node) {
	a.wakes++
	if a.onWake != nil {
		a.onWake(n)
	}
}
func (a *scriptAgent) OnDetect(n *Node) {
	a.detects++
	if a.onDetect != nil {
		a.onDetect(n)
	}
}
func (a *scriptAgent) OnStimulusGone(n *Node) { a.gones++ }
func (a *scriptAgent) OnMessage(n *Node, from radio.NodeID, env radio.Envelope) {
	a.msgs = append(a.msgs, env)
	if a.onMsg != nil {
		a.onMsg(n, from, env)
	}
}

// ping is a 16-byte frame for hand-wired node tests.
var ping = radio.Envelope{Kind: radio.KindBeacon, Wire: 16}

// probe is a bare radio endpoint that transmits on behalf of a test.
type probe struct{}

func (probe) Deliver(radio.NodeID, radio.Envelope) {}

// hears broadcasts a ping from the probe registered as from and runs the
// kernel to its delivery instant, reporting whether the medium delivered it
// (rather than dropping it at a receiver that is not listening). The probe
// must have exactly one neighbour, the node under test.
func hears(k *sim.Kernel, m *radio.Medium, from radio.NodeID) bool {
	before := m.Stats().Delivered
	m.Broadcast(from, ping)
	k.RunUntil(k.Now() + m.TxTime(ping))
	return m.Stats().Delivered > before
}

// testRig builds a kernel + medium + stimulus for hand-wired node tests.
func testRig(stim diffusion.Stimulus) (*sim.Kernel, *radio.Medium) {
	k := sim.NewKernel()
	st := rng.NewSource(1).Stream("channel")
	m := radio.NewMedium(k, geom.R(0, 0, 100, 100), energy.Telos(), radio.UnitDisk{Range: 10}, st)
	return k, m
}

func newNode(k *sim.Kernel, m *radio.Medium, id radio.NodeID, pos geom.Vec2, stim diffusion.Stimulus, a Agent) *Node {
	return New(Config{
		ID: id, Pos: pos, Kernel: k, Medium: m,
		Stimulus: stim, Profile: energy.Telos(), Agent: a,
	})
}

func TestAwakeNodeDetectsInstantly(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 50), 1, 0) // arrives at x=10 at t=10... pos (10,50)
	k, m := testRig(stim)
	a := &scriptAgent{}
	n := newNode(k, m, 0, geom.V(10, 50), stim, a)
	n.Start()
	k.RunUntil(30)
	if a.detects != 1 {
		t.Fatalf("detects = %d", a.detects)
	}
	delay, ok := n.DetectionDelay()
	if !ok || delay != 0 {
		t.Errorf("delay = %v,%v want 0,true", delay, ok)
	}
	at, ok := n.Detected()
	if !ok || at != 10 {
		t.Errorf("detected at %v", at)
	}
}

func TestSleepingNodeDetectsAtWake(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 50), 1, 0)
	k, m := testRig(stim)
	a := &scriptAgent{
		onInit: func(n *Node) { n.Sleep(25) }, // sleeps through arrival at t=10
	}
	n := newNode(k, m, 0, geom.V(10, 50), stim, a)
	n.Start()
	k.RunUntil(40)
	if a.detects != 1 {
		t.Fatalf("detects = %d", a.detects)
	}
	if a.wakes != 0 {
		t.Errorf("OnWake called despite detection at wake (wakes=%d)", a.wakes)
	}
	delay, _ := n.DetectionDelay()
	if math.Abs(delay-15) > 1e-9 {
		t.Errorf("delay = %v, want 15", delay)
	}
}

func TestWakeWithoutStimulusCallsOnWake(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 0), 0.001, 0) // effectively never arrives
	k, m := testRig(stim)
	a := &scriptAgent{onInit: func(n *Node) { n.Sleep(5) }}
	n := newNode(k, m, 0, geom.V(90, 90), stim, a)
	n.Start()
	k.RunUntil(10)
	if a.wakes != 1 {
		t.Errorf("wakes = %d", a.wakes)
	}
	if a.detects != 0 {
		t.Errorf("detects = %d", a.detects)
	}
	if _, ok := n.Detected(); ok {
		t.Error("node claims detection")
	}
}

func TestSleepEnergyAccounting(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 0), 0.001, 0)
	k, m := testRig(stim)
	a := &scriptAgent{onInit: func(n *Node) { n.Sleep(60) }}
	n := newNode(k, m, 0, geom.V(90, 90), stim, a)
	n.Start()
	k.RunUntil(100)
	n.Finish(100)
	b := n.Meter().Breakdown()
	if math.Abs(b.SleepSec-60) > 1e-9 {
		t.Errorf("SleepSec = %v, want 60", b.SleepSec)
	}
	if math.Abs(b.ActiveSec-40) > 1e-9 {
		t.Errorf("ActiveSec = %v, want 40", b.ActiveSec)
	}
}

func TestMessageDelivery(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 0), 0.001, 0)
	k, m := testRig(stim)
	rxA := &scriptAgent{}
	txA := &scriptAgent{onInit: func(n *Node) { n.Broadcast(ping) }}
	rx := newNode(k, m, 0, geom.V(50, 50), stim, rxA)
	tx := newNode(k, m, 1, geom.V(55, 50), stim, txA)
	rx.Start()
	tx.Start()
	k.RunUntil(1)
	if len(rxA.msgs) != 1 {
		t.Fatalf("rx got %d messages", len(rxA.msgs))
	}
	if rx.RxCount() != 1 || tx.TxCount() != 1 {
		t.Errorf("counters rx=%d tx=%d", rx.RxCount(), tx.TxCount())
	}
}

func TestAsleepNodeMissesMessages(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 0), 0.001, 0)
	k, m := testRig(stim)
	rxA := &scriptAgent{onInit: func(n *Node) { n.Sleep(10) }}
	txA := &scriptAgent{onInit: func(n *Node) { n.Broadcast(ping) }}
	rx := newNode(k, m, 0, geom.V(50, 50), stim, rxA)
	tx := newNode(k, m, 1, geom.V(55, 50), stim, txA)
	rx.Start()
	tx.Start()
	k.RunUntil(20)
	if len(rxA.msgs) != 0 {
		t.Errorf("sleeping node received %d messages", len(rxA.msgs))
	}
}

func TestStateResidency(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 0), 0.001, 0)
	k, m := testRig(stim)
	a := &scriptAgent{}
	n := newNode(k, m, 0, geom.V(50, 50), stim, a)
	n.Start()
	k.Schedule(10, func(*sim.Kernel) { n.SetState(StateAlert) })
	k.Schedule(30, func(*sim.Kernel) { n.SetState(StateCovered) })
	k.RunUntil(50)
	r := n.StateResidency()
	if math.Abs(r[StateSafe]-10) > 1e-9 || math.Abs(r[StateAlert]-20) > 1e-9 || math.Abs(r[StateCovered]-20) > 1e-9 {
		t.Errorf("residency = %v", r)
	}
}

func TestStateChangeHook(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 0), 0.001, 0)
	k, m := testRig(stim)
	n := newNode(k, m, 0, geom.V(50, 50), stim, &scriptAgent{})
	var transitions []State
	n.OnStateChange(func(_ *Node, _, new State) { transitions = append(transitions, new) })
	n.SetState(StateAlert)
	n.SetState(StateAlert) // no-op, must not re-notify
	n.SetState(StateCovered)
	if len(transitions) != 2 || transitions[0] != StateAlert || transitions[1] != StateCovered {
		t.Errorf("transitions = %v", transitions)
	}
	_ = k
}

func TestDetectHook(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 50), 1, 0)
	k, m := testRig(stim)
	n := newNode(k, m, 0, geom.V(10, 50), stim, &scriptAgent{})
	var gotDelay float64 = -1
	n.OnDetectHook(func(_ *Node, d float64) { gotDelay = d })
	n.Start()
	k.RunUntil(20)
	if gotDelay != 0 {
		t.Errorf("hook delay = %v", gotDelay)
	}
}

func TestFailure(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 50), 1, 0)
	k, m := testRig(stim)
	a := &scriptAgent{}
	n := newNode(k, m, 0, geom.V(20, 50), stim, a) // arrival t=20
	m.AddNode(1, geom.V(25, 50), probe{}, nil)
	n.FailAt(5)
	n.Start()
	k.RunUntil(40)
	if !n.Failed() {
		t.Fatal("node not failed")
	}
	if a.detects != 0 {
		t.Error("failed node detected the stimulus")
	}
	if hears(k, m, 1) {
		t.Error("failed node still listening")
	}
	// Meter stopped at failure: only 5 s of active time.
	b := n.Meter().Breakdown()
	if math.Abs(b.ActiveSec-5) > 1e-9 {
		t.Errorf("ActiveSec = %v, want 5", b.ActiveSec)
	}
	// Fail is idempotent, Finish after failure is a no-op.
	n.Fail()
	n.Finish(40)
}

func TestFailedNodeDoesNotWake(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 0), 0.001, 0)
	k, m := testRig(stim)
	a := &scriptAgent{onInit: func(n *Node) { n.Sleep(10) }}
	n := newNode(k, m, 0, geom.V(50, 50), stim, a)
	n.Start()
	n.FailAt(5)
	k.RunUntil(30)
	if a.wakes != 0 {
		t.Errorf("failed node woke %d times", a.wakes)
	}
}

func TestRecedingStimulusGone(t *testing.T) {
	inner := diffusion.NewRadialFront(geom.V(0, 50), 1, 0)
	stim := diffusion.NewReceding(inner, 5) // at (10,50): covered 10..15
	k, m := testRig(stim)
	a := &scriptAgent{}
	n := newNode(k, m, 0, geom.V(10, 50), stim, a)
	n.Start()
	k.RunUntil(30)
	if a.detects != 1 {
		t.Fatalf("detects = %d", a.detects)
	}
	if a.gones != 1 {
		t.Errorf("gones = %d, want 1", a.gones)
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	stim := diffusion.NewRadialFront(geom.V(0, 0), 0.001, 0)
	k, m := testRig(stim)
	a := &scriptAgent{}
	n := newNode(k, m, 0, geom.V(50, 50), stim, a)
	mustPanic("zero sleep", func() { n.Sleep(0) })
	mustPanic("incomplete config", func() { New(Config{}) })
	// Broadcast/sensor while asleep.
	n2 := newNode(k, m, 1, geom.V(60, 50), stim, &scriptAgent{onInit: func(n *Node) { n.Sleep(100) }})
	n2.Start()
	k.RunUntil(1)
	mustPanic("broadcast asleep", func() { n2.Broadcast(ping) })
	mustPanic("sense asleep", func() { n2.CoveredNow() })
}

func TestSleepWhileAsleepIgnored(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 0), 0.001, 0)
	k, m := testRig(stim)
	n := newNode(k, m, 0, geom.V(50, 50), stim, &scriptAgent{})
	n.Start()
	n.Sleep(10)
	n.Sleep(5) // already asleep: ignored, keeps the original wake time
	k.RunUntil(20)
	if !n.IsAwake() {
		t.Error("node never woke")
	}
}

// TestQuickMediumListeningFollowsIsAwake drives random sleep, wake, fail
// and recover sequences on one node and requires the medium's listening bit,
// read as whether a neighbour's broadcast is delivered, to equal IsAwake()
// after every step.
func TestQuickMediumListeningFollowsIsAwake(t *testing.T) {
	f := func(steps []uint8) bool {
		stim := diffusion.NewRadialFront(geom.V(0, 0), 0.001, 0) // never arrives
		k, m := testRig(stim)
		n := newNode(k, m, 0, geom.V(50, 50), stim, &scriptAgent{})
		m.AddNode(1, geom.V(55, 50), probe{}, nil)
		n.Start()
		if !hears(k, m, 1) {
			return false // a fresh node listens
		}
		for i, s := range steps {
			switch s % 5 {
			case 0:
				n.Sleep(0.5)
			case 1:
				n.Sleep(1e6) // outlasts the run
			case 2:
				k.RunUntil(k.Now() + 1) // fires a short sleep's wake-up
			case 3:
				n.Fail()
			case 4:
				n.Recover()
			}
			if hears(k, m, 1) != n.IsAwake() {
				t.Logf("steps %v: medium bit diverged from IsAwake() = %v at step %d", steps, n.IsAwake(), i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBuildNetworkAndRun(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 20), 0.5, 5)
	dep := deploy.Grid(nil, geom.R(0, 0, 40, 40), 5, 5, 0)
	agents := make([]*scriptAgent, dep.N())
	nw := BuildNetwork(NetworkConfig{
		Deployment: dep,
		Stimulus:   stim,
		Profile:    energy.Telos(),
		Loss:       radio.UnitDisk{Range: 10},
		Agents: func(id radio.NodeID) Agent {
			agents[id] = &scriptAgent{}
			return agents[id]
		},
	})
	if len(nw.Nodes) != 25 {
		t.Fatalf("nodes = %d", len(nw.Nodes))
	}
	nw.Run(200)
	// Every agent initialized; every node (always awake) detected with zero
	// delay once the front passed it.
	for i, a := range agents {
		if a.inits != 1 {
			t.Fatalf("agent %d inits = %d", i, a.inits)
		}
		n := nw.Nodes[i]
		if n.TrueArrival() <= 200 {
			if d, ok := n.DetectionDelay(); !ok || d != 0 {
				t.Errorf("node %d delay = %v,%v", i, d, ok)
			}
		}
	}
}

func TestBuildNetworkPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	dep := deploy.Grid(nil, geom.R(0, 0, 10, 10), 2, 2, 0)
	stim := diffusion.NewRadialFront(geom.V(0, 0), 1, 0)
	mustPanic("empty deployment", func() {
		BuildNetwork(NetworkConfig{Deployment: &deploy.Deployment{}})
	})
	mustPanic("missing agents", func() {
		BuildNetwork(NetworkConfig{Deployment: dep, Stimulus: stim, Loss: radio.UnitDisk{Range: 1}})
	})
	mustPanic("bad horizon", func() {
		nw := BuildNetwork(NetworkConfig{
			Deployment: dep, Stimulus: stim, Profile: energy.Telos(),
			Loss:   radio.UnitDisk{Range: 5},
			Agents: func(radio.NodeID) Agent { return &scriptAgent{} },
		})
		nw.Run(0)
	})
}

func TestStateString(t *testing.T) {
	if StateSafe.String() != "safe" || StateAlert.String() != "alert" || StateCovered.String() != "covered" {
		t.Error("state strings wrong")
	}
	if State(9).String() == "" {
		t.Error("unknown state string empty")
	}
}
