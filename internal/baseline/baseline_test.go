package baseline

import (
	"math"
	"testing"

	"repro/internal/deploy"
	"repro/internal/diffusion"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/radio"
	"repro/internal/scenario"
)

func buildNet(t *testing.T, agents func(radio.NodeID) node.Agent) (*node.Network, diffusion.Scenario) {
	t.Helper()
	sc := paperScenario(t)
	dep := deploy.Grid(nil, sc.Field, 5, 5, 0)
	nw := node.BuildNetwork(node.NetworkConfig{
		Deployment: dep,
		Stimulus:   sc.Stimulus,
		Profile:    energy.Telos(),
		Loss:       radio.UnitDisk{Range: 10},
		Agents:     agents,
	})
	return nw, sc
}

func TestNSZeroDelay(t *testing.T) {
	nw, sc := buildNet(t, func(radio.NodeID) node.Agent { return NewNS() })
	nw.Run(sc.Horizon)
	for _, n := range nw.Nodes {
		if n.TrueArrival() > sc.Horizon {
			continue
		}
		d, ok := n.DetectionDelay()
		if !ok {
			t.Fatalf("NS node %d missed the stimulus", n.ID())
		}
		if d != 0 {
			t.Fatalf("NS node %d delay = %v, want 0", n.ID(), d)
		}
		if n.State() != node.StateCovered {
			t.Errorf("covered NS node %d in state %v", n.ID(), n.State())
		}
	}
}

func TestNSEnergyIsAlwaysOn(t *testing.T) {
	nw, sc := buildNet(t, func(radio.NodeID) node.Agent { return NewNS() })
	nw.Run(sc.Horizon)
	want := 0.041 * sc.Horizon
	for _, n := range nw.Nodes {
		if got := n.Meter().TotalJ(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("NS node energy = %v, want %v", got, want)
		}
		b := n.Meter().Breakdown()
		if b.SleepSec != 0 {
			t.Fatalf("NS node slept %v s", b.SleepSec)
		}
	}
}

func TestNSSendsNothing(t *testing.T) {
	nw, sc := buildNet(t, func(radio.NodeID) node.Agent { return NewNS() })
	nw.Run(sc.Horizon)
	if st := nw.Medium.Stats(); st.Broadcasts != 0 {
		t.Errorf("NS network sent %d messages", st.Broadcasts)
	}
}

func TestDutyCycleSleepsOnSchedule(t *testing.T) {
	// Far-away stimulus: pure duty cycling. Period 10, on 2 → duty 20%.
	far := diffusion.NewRadialFront(geom.V(-1e6, 0), 0.001, 0)
	dep := deploy.Grid(nil, geom.R(0, 0, 40, 40), 3, 3, 0)
	nw := node.BuildNetwork(node.NetworkConfig{
		Deployment: dep,
		Stimulus:   far,
		Profile:    energy.Telos(),
		Loss:       radio.UnitDisk{Range: 10},
		Agents:     func(radio.NodeID) node.Agent { return NewDutyCycle(10, 2) },
	})
	nw.Run(100)
	for _, n := range nw.Nodes {
		b := n.Meter().Breakdown()
		duty := b.DutyCycle()
		if duty < 0.15 || duty > 0.3 {
			t.Fatalf("node %d duty cycle = %v, want ~0.2", n.ID(), duty)
		}
	}
}

func TestDutyCycleDetectsLate(t *testing.T) {
	nw, sc := buildNet(t, func(radio.NodeID) node.Agent { return NewDutyCycle(10, 1) })
	nw.Run(sc.Horizon)
	detected := 0
	for _, n := range nw.Nodes {
		if n.TrueArrival() > sc.Horizon {
			continue
		}
		d, ok := n.DetectionDelay()
		if !ok {
			t.Fatalf("duty-cycle node %d missed the stimulus entirely", n.ID())
		}
		detected++
		if d < 0 || d > 9.001 {
			t.Errorf("node %d delay = %v, want within the off period", n.ID(), d)
		}
	}
	if detected == 0 {
		t.Fatal("nothing detected")
	}
}

func TestDutyCycleStaysAwakeOnceCovered(t *testing.T) {
	nw, sc := buildNet(t, func(radio.NodeID) node.Agent { return NewDutyCycle(10, 1) })
	nw.Run(sc.Horizon)
	for _, n := range nw.Nodes {
		if _, ok := n.Detected(); ok {
			if n.State() != node.StateCovered {
				t.Errorf("detected node %d in state %v", n.ID(), n.State())
			}
			if !n.IsAwake() {
				t.Errorf("covered duty-cycle node %d asleep", n.ID())
			}
		}
	}
}

func TestDutyCyclePanics(t *testing.T) {
	cases := []struct{ period, on float64 }{
		{0, 1}, {10, 0}, {5, 5}, {5, 7},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("period=%v on=%v did not panic", c.period, c.on)
				}
			}()
			NewDutyCycle(c.period, c.on)
		}()
	}
}

func TestNSOnRecedingStimulus(t *testing.T) {
	// NS nodes return to safe when the stimulus leaves (Fig. 3 transition).
	inner := diffusion.NewRadialFront(geom.V(0, 20), 0.5, 5)
	stim := diffusion.NewReceding(inner, 10)
	dep := deploy.Grid(nil, geom.R(0, 0, 40, 40), 3, 3, 0)
	nw := node.BuildNetwork(node.NetworkConfig{
		Deployment: dep,
		Stimulus:   stim,
		Profile:    energy.Telos(),
		Loss:       radio.UnitDisk{Range: 10},
		Agents:     func(radio.NodeID) node.Agent { return NewNS() },
	})
	nw.Run(140)
	for _, n := range nw.Nodes {
		if _, ok := n.Detected(); ok && n.State() == node.StateCovered {
			// Receding stimulus with 10 s dwell: nothing stays covered at
			// the end of a 140 s run whose last arrivals are ≈ t=95.
			t.Errorf("node %d still covered at horizon", n.ID())
		}
	}
}

func TestDutyCycleOnRecedingStimulus(t *testing.T) {
	inner := diffusion.NewRadialFront(geom.V(0, 20), 0.5, 5)
	stim := diffusion.NewReceding(inner, 10)
	dep := deploy.Grid(nil, geom.R(0, 0, 40, 40), 3, 3, 0)
	nw := node.BuildNetwork(node.NetworkConfig{
		Deployment: dep,
		Stimulus:   stim,
		Profile:    energy.Telos(),
		Loss:       radio.UnitDisk{Range: 10},
		Agents:     func(radio.NodeID) node.Agent { return NewDutyCycle(10, 1) },
	})
	nw.Run(140)
	// Nodes that detected and saw the stimulus leave resumed duty cycling:
	// their total duty stays below always-on.
	resumed := 0
	for _, n := range nw.Nodes {
		if _, ok := n.Detected(); ok {
			if b := n.Meter().Breakdown(); b.DutyCycle() < 0.9 {
				resumed++
			}
		}
	}
	if resumed == 0 {
		t.Error("no duty-cycle node resumed sleeping after the stimulus passed")
	}
}

func TestNSIgnoresMessages(t *testing.T) {
	// Feeding a message to an NS agent must be a no-op (no panic, no state).
	agent := NewNS()
	agent.OnMessage(nil, 0, radio.Envelope{})
	d := NewDutyCycle(10, 1)
	d.OnMessage(nil, 0, radio.Envelope{})
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
