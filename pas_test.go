package pas_test

import (
	"math"
	"strings"
	"testing"

	pas "repro"
)

func TestQuickstartFlow(t *testing.T) {
	sc := mustScenario(t, "paper")
	report, err := pas.Run(pas.RunConfig{Scenario: sc, Protocol: pas.ProtoPAS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if report.Detected == 0 {
		t.Fatal("nothing detected")
	}
	if !strings.Contains(report.String(), "delay") {
		t.Error("summary missing")
	}
	if !strings.Contains(report.Table(), "node") {
		t.Error("table missing")
	}
}

func TestReplicateFlow(t *testing.T) {
	agg, err := pas.Replicate(pas.RunConfig{Protocol: pas.ProtoSAS}, pas.Seeds(3))
	if err != nil {
		t.Fatal(err)
	}
	if agg.N() != 3 {
		t.Errorf("N = %d", agg.N())
	}
}

func TestExperimentRegistryFlow(t *testing.T) {
	exps := pas.Experiments()
	if len(exps) < 5 {
		t.Fatalf("registry too small: %d", len(exps))
	}
	e, ok := pas.LookupExperiment("table1")
	if !ok {
		t.Fatal("table1 missing")
	}
	res, err := e.Run(pas.ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "Telos") {
		t.Error("render missing content")
	}
}

func TestHandWiredNetwork(t *testing.T) {
	sc := mustScenario(t, "paper")
	dep := pas.UniformDeployment(7, sc.Field, 30, 10, 500)
	nw := pas.BuildNetwork(pas.NetworkConfig{
		Deployment: dep,
		Stimulus:   sc.Stimulus,
		Profile:    pas.Telos(),
		Loss:       pas.UnitDisk{Range: 10},
		Agents:     func(pas.NodeID) pas.Agent { return pas.NewPASAgent(pas.DefaultPASConfig()) },
	})
	var log pas.StateLog
	log.Attach(nw.Nodes)
	nw.Run(sc.Horizon)
	rep := pas.CollectMetrics(nw.Nodes, sc.Horizon)
	if rep.Detected == 0 {
		t.Fatal("nothing detected")
	}
	if len(log.Transitions) == 0 {
		t.Error("no transitions logged")
	}
	// Field snapshot after the front crossed most of the field.
	snap := pas.RenderField(sc.Field, sc.Stimulus, nw.Nodes, 100, 40, 16)
	if !strings.Contains(snap, "~") {
		t.Error("snapshot missing stimulus")
	}
}

func TestCustomStimulusAndAgents(t *testing.T) {
	front := pas.NewAdvectedFront(pas.V(0, 20), 0.8, pas.V(0.2, 0), 5)
	sc := pas.Scenario{
		Name: "custom", Field: pas.R(0, 0, 40, 40), Horizon: 80, Stimulus: front,
	}
	dep := pas.GridDeployment(1, sc.Field, 5, 5, 0.2)
	for _, mk := range []func() pas.Agent{
		func() pas.Agent { return pas.NewNSAgent() },
		func() pas.Agent { return pas.NewDutyCycleAgent(10, 2) },
		func() pas.Agent { return pas.NewSASAgent(pas.DefaultSASConfig()) },
	} {
		nw := pas.BuildNetwork(pas.NetworkConfig{
			Deployment: dep,
			Stimulus:   sc.Stimulus,
			Profile:    pas.Telos(),
			Loss:       pas.DistanceFalloff{Reliable: 8, Max: 12},
			Agents:     func(pas.NodeID) pas.Agent { return mk() },
		})
		nw.Run(sc.Horizon)
		rep := pas.CollectMetrics(nw.Nodes, sc.Horizon)
		if rep.Reached > 0 && rep.Detected == 0 {
			t.Error("agent detected nothing")
		}
	}
	if a := front.ArrivalTime(pas.V(0, 20)); a != 5 {
		t.Errorf("origin arrival = %v", a)
	}
	if a := pas.NewRadialFront(pas.V(0, 0), 1, 0).ArrivalTime(pas.V(3, 4)); math.Abs(a-5) > 1e-9 {
		t.Errorf("radial arrival = %v", a)
	}
}

func TestScenarioByName(t *testing.T) {
	for _, name := range pas.ScenarioNames() {
		sc, err := pas.ScenarioByName(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.Stimulus == nil {
			t.Errorf("%s: nil stimulus", name)
		}
	}
	if _, err := pas.ScenarioByName("bogus", 1); err == nil {
		t.Error("bogus scenario accepted")
	}
	// Empty name defaults to the paper workload.
	sc, err := pas.ScenarioByName("", 1)
	if err != nil || sc.Name != "paper" {
		t.Errorf("default scenario = %v, %v", sc.Name, err)
	}
}

func TestScenarioSpecPublicAPI(t *testing.T) {
	specs := pas.Scenarios()
	if len(specs) == 0 || specs[0].Name != "paper" {
		t.Fatalf("registry head = %+v", specs)
	}
	sp, ok := pas.LookupScenario("scale-1k")
	if !ok || sp.Nodes != 1000 {
		t.Fatalf("scale-1k = %+v, ok %v", sp, ok)
	}
	if pas.ScaleScenario(5000).Nodes != 5000 {
		t.Error("ScaleScenario node count")
	}
	// JSON round trip through the public helpers.
	data, err := sp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := pas.DecodeScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "scale-1k" {
		t.Errorf("decoded name %q", back.Name)
	}
	// Compile and run a small spec end to end.
	cfg, err := pas.RunConfigFromScenario(pas.ScaleScenario(100), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Protocol = pas.ProtoPAS
	rep, err := pas.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Nodes) != 100 {
		t.Errorf("%d node reports, want 100", len(rep.Nodes))
	}
	if _, err := pas.ScenarioSweepExperiment("nope"); err == nil {
		t.Error("unknown sweep scenario accepted")
	}
	if e, err := pas.ScenarioSweepExperiment("clustered"); err != nil || e.ID != "scenario-clustered" {
		t.Errorf("sweep experiment = %+v, %v", e, err)
	}
}

func TestContourPublicAPI(t *testing.T) {
	sc := mustScenario(t, "paper")
	dep := pas.GridDeployment(1, sc.Field, 5, 5, 0)
	nw := pas.BuildNetwork(pas.NetworkConfig{
		Deployment: dep,
		Stimulus:   sc.Stimulus,
		Profile:    pas.Telos(),
		Loss:       pas.UnitDisk{Range: 10},
		Agents:     func(pas.NodeID) pas.Agent { return pas.NewNSAgent() },
	})
	var est pas.ContourEstimator
	est.Attach(nw.Nodes)
	nw.Run(sc.Horizon)
	rep := pas.ContourAreaError(&est, sc.Stimulus, sc.Field, 80, 4000, 7)
	if rep.TrueArea <= 0 {
		t.Fatalf("TrueArea = %v", rep.TrueArea)
	}
	if rep.ErrFrac < 0 || rep.ErrFrac > 1.5 {
		t.Errorf("ErrFrac = %v", rep.ErrFrac)
	}
}

func TestBatteryPublicAPI(t *testing.T) {
	rep, err := pas.Run(pas.RunConfig{
		Scenario: mustScenario(t, "quiet"), Protocol: pas.ProtoNS, Seed: 1, BatteryJ: 0.41,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatteryDeaths != 30 {
		t.Errorf("BatteryDeaths = %d, want 30", rep.BatteryDeaths)
	}
	if math.Abs(rep.FirstDeath-10) > 1e-6 {
		t.Errorf("FirstDeath = %v, want 10", rep.FirstDeath)
	}
}

// mustScenario resolves a registry workload through the public API.
func mustScenario(t *testing.T, name string) pas.Scenario {
	t.Helper()
	sc, err := pas.ScenarioByName(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}
