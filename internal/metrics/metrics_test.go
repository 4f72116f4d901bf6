package metrics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/deploy"
	"repro/internal/diffusion"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/radio"
	"repro/internal/scenario"
)

func runNS(t *testing.T) (RunReport, float64) {
	t.Helper()
	sc := paperScenario(t)
	dep := deploy.Grid(nil, sc.Field, 4, 4, 0)
	nw := node.BuildNetwork(node.NetworkConfig{
		Deployment: dep,
		Stimulus:   sc.Stimulus,
		Profile:    energy.Telos(),
		Loss:       radio.UnitDisk{Range: 10},
		Agents:     func(radio.NodeID) node.Agent { return baseline.NewNS() },
	})
	nw.Run(sc.Horizon)
	return Collect(nw.Nodes, sc.Horizon), sc.Horizon
}

func TestCollectNSRun(t *testing.T) {
	rep, horizon := runNS(t)
	if len(rep.Nodes) != 16 {
		t.Fatalf("nodes = %d", len(rep.Nodes))
	}
	if rep.AvgDelay != 0 || rep.MaxDelay != 0 || rep.P95Delay != 0 {
		t.Errorf("NS delays = %v/%v/%v, want 0", rep.AvgDelay, rep.P95Delay, rep.MaxDelay)
	}
	wantE := 0.041 * horizon
	if math.Abs(rep.AvgEnergyJ-wantE) > 1e-9 {
		t.Errorf("AvgEnergyJ = %v, want %v", rep.AvgEnergyJ, wantE)
	}
	if rep.AvgDuty != 1 {
		t.Errorf("AvgDuty = %v", rep.AvgDuty)
	}
	if rep.Missed != 0 {
		t.Errorf("Missed = %d", rep.Missed)
	}
	if rep.Detected != rep.Reached {
		t.Errorf("Detected %d != Reached %d", rep.Detected, rep.Reached)
	}
	if rep.Messages != 0 {
		t.Errorf("Messages = %d", rep.Messages)
	}
	// Per-node invariants.
	for _, n := range rep.Nodes {
		if n.Detected && n.Delay != 0 {
			t.Errorf("node %d delay %v", n.ID, n.Delay)
		}
		if n.CoveredSec < 0 || n.SafeSec < 0 || n.AlertSec < 0 {
			t.Error("negative residency")
		}
	}
}

func TestReportStrings(t *testing.T) {
	rep, _ := runNS(t)
	if s := rep.String(); !strings.Contains(s, "delay") || !strings.Contains(s, "energy") {
		t.Errorf("String = %q", s)
	}
	tbl := rep.Table()
	if !strings.Contains(tbl, "node") || !strings.Contains(tbl, "arrival") {
		t.Error("table missing header")
	}
	if got := strings.Count(tbl, "\n"); got != 17 { // header + 16 nodes
		t.Errorf("table rows = %d", got)
	}
}

func TestCollectEmpty(t *testing.T) {
	rep := Collect(nil, 100)
	if rep.AvgDelay != 0 || rep.AvgEnergyJ != 0 || len(rep.Nodes) != 0 {
		t.Error("empty collect not neutral")
	}
}

func TestAggregate(t *testing.T) {
	rep, _ := runNS(t)
	var agg Aggregate
	agg.Add(rep)
	agg.Add(rep)
	if agg.N() != 2 {
		t.Fatalf("N = %d", agg.N())
	}
	if agg.Delay.Mean() != rep.AvgDelay {
		t.Errorf("agg delay = %v", agg.Delay.Mean())
	}
	if agg.Energy.Mean() != rep.AvgEnergyJ {
		t.Errorf("agg energy = %v", agg.Energy.Mean())
	}
	if s := agg.String(); !strings.Contains(s, "runs 2") {
		t.Errorf("String = %q", s)
	}
}

func TestMissedForever(t *testing.T) {
	// A failed node that the stimulus reaches counts as missed.
	sc := paperScenario(t)
	dep := deploy.Grid(nil, sc.Field, 3, 3, 0)
	nw := node.BuildNetwork(node.NetworkConfig{
		Deployment: dep,
		Stimulus:   sc.Stimulus,
		Profile:    energy.Telos(),
		Loss:       radio.UnitDisk{Range: 10},
		Agents:     func(radio.NodeID) node.Agent { return baseline.NewNS() },
	})
	for _, n := range nw.Nodes {
		n.FailAt(1) // everyone dies before arrival
	}
	nw.Run(sc.Horizon)
	rep := Collect(nw.Nodes, sc.Horizon)
	if rep.Missed != rep.Reached || rep.Missed == 0 {
		t.Errorf("Missed = %d, Reached = %d", rep.Missed, rep.Reached)
	}
	for _, n := range rep.Nodes {
		if !n.Failed {
			t.Error("node not marked failed")
		}
	}
	_ = geom.Vec2{}
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
