package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/diffusion"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/rng"
)

func TestRegistryValidatesAndBuilds(t *testing.T) {
	all := All()
	if len(all) == 0 {
		t.Fatal("empty registry")
	}
	if all[0].Name != "paper" {
		t.Fatalf("first registry entry is %q, want the paper workload", all[0].Name)
	}
	seen := map[string]bool{}
	for _, sp := range all {
		if seen[sp.Name] {
			t.Errorf("duplicate scenario name %q", sp.Name)
		}
		seen[sp.Name] = true
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: %v", sp.Name, err)
			continue
		}
		ds, err := sp.BuildStimulus(1)
		if err != nil {
			t.Errorf("%s: building stimulus: %v", sp.Name, err)
			continue
		}
		if ds.Stimulus == nil || ds.Name != sp.Name || ds.Horizon != sp.Horizon {
			t.Errorf("%s: malformed diffusion scenario %+v", sp.Name, ds)
			continue
		}
		// Every front crosses the field centre within the horizon, except
		// the quiet surveillance workload, where nothing arrives at all.
		a := ds.Stimulus.ArrivalTime(ds.Field.Center())
		if reached := a <= ds.Horizon; reached != (sp.Name != "quiet") {
			t.Errorf("%s: field centre arrival %g against horizon %g", sp.Name, a, ds.Horizon)
		}
	}
}

func TestLookup(t *testing.T) {
	sp, ok := Lookup("scale-10k")
	if !ok || sp.Nodes != 10000 {
		t.Fatalf("scale-10k = %+v, ok %v", sp, ok)
	}
	if _, ok := Lookup("atlantis"); ok {
		t.Error("unknown scenario found")
	}
	names := Names()
	if len(names) != len(All()) || names[0] != "paper" {
		t.Errorf("names = %v", names)
	}
}

// TestRegistryHandsOutCopies edits every pointer and slice field that the
// registry entries carry, on entries returned by both Lookup and All, and
// checks that later calls still return the original values.
func TestRegistryHandsOutCopies(t *testing.T) {
	want := entries() // a fresh build shares nothing with the registry
	edit := func(sp *Scenario) {
		switch sp.Name {
		case "twinspill":
			sp.Stimulus.Sources[0].Speed = 99
			sp.Stimulus.Sources = append(sp.Stimulus.Sources, StimulusSpec{Kind: StimRadial})
		case "plume":
			sp.Stimulus.Plume.Rate = 99
		case "terrain":
			sp.Stimulus.Eikonal.BaseSpeed = 99
			sp.Stimulus.Eikonal.Patches[0].Speed = 99
		case "churn":
			sp.Failures.Churn.Fraction = 0.99
			sp.Protocol.Liveness.MissK = 99
		case "drift":
			sp.Failures.Sensor.Drift = 99
		}
	}
	for _, name := range []string{"twinspill", "plume", "terrain", "churn", "drift"} {
		sp, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s missing from the registry", name)
		}
		edit(&sp)
	}
	edited := All()
	for i := range edited {
		edit(&edited[i])
	}
	if got := All(); !reflect.DeepEqual(got, want) {
		t.Error("All changed after callers edited returned entries")
	}
	for _, sp := range want {
		if got, _ := Lookup(sp.Name); !reflect.DeepEqual(got, sp) {
			t.Errorf("Lookup(%q) changed after callers edited returned entries:\n got %+v\nwant %+v", sp.Name, got, sp)
		}
	}
}

func TestLookupZeroAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := Lookup("paper"); !ok {
			t.Fatal("paper missing from the registry")
		}
	})
	if allocs != 0 {
		t.Errorf("Lookup(\"paper\") = %v allocs/op, want 0", allocs)
	}
}

func TestDeploymentSpecGenerate(t *testing.T) {
	field := geom.R(0, 0, 40, 40)
	st := func() *rng.Stream { return rng.NewSource(9).Stream("deploy") }

	uniform := DeploymentSpec{}.Generate(st(), field, 30, 10, 2000)
	if uniform.N() != 30 || !uniform.Connected(10) {
		t.Errorf("uniform: %d nodes, connected %v", uniform.N(), uniform.Connected(10))
	}

	grid := DeploymentSpec{Kind: DeployGrid, Jitter: 0.3}.Generate(st(), field, 30, 10, 2000)
	if grid.N() != 30 {
		t.Errorf("grid truncation: %d nodes, want 30", grid.N())
	}
	for _, p := range grid.Positions {
		if !field.Contains(p) {
			t.Fatalf("grid point %v outside field", p)
		}
	}

	clustered := DeploymentSpec{Kind: DeployClustered, Clusters: 4, Spread: 3}.Generate(st(), field, 30, 10, 2000)
	if clustered.N() != 30 {
		t.Errorf("clustered truncation: %d nodes, want 30", clustered.N())
	}

	poisson := DeploymentSpec{Kind: DeployPoisson, MinDist: 4}.Generate(st(), field, 30, 10, 2000)
	if poisson.N() != 30 {
		t.Errorf("poisson: placed %d of 30", poisson.N())
	}
	for i := 0; i < poisson.N(); i++ {
		for j := i + 1; j < poisson.N(); j++ {
			if poisson.Positions[i].Dist(poisson.Positions[j]) < 4 {
				t.Fatalf("poisson spacing violated between %d and %d", i, j)
			}
		}
	}

	// Same stream state, same spec → identical layout.
	a := DeploymentSpec{Kind: DeployGrid, Jitter: 0.2}.Generate(st(), field, 25, 10, 2000)
	b := DeploymentSpec{Kind: DeployGrid, Jitter: 0.2}.Generate(st(), field, 25, 10, 2000)
	if !reflect.DeepEqual(a.Positions, b.Positions) {
		t.Error("grid generation not deterministic")
	}
}

func TestDeploymentSpecDefaults(t *testing.T) {
	field := geom.R(0, 0, 40, 40)
	st := func() *rng.Stream { return rng.NewSource(4).Stream("deploy") }
	// Clustered with zero clusters/spread falls back to 5 clusters and 10% of
	// the field; more clusters than nodes clamps.
	d := DeploymentSpec{Kind: DeployClustered}.Generate(st(), field, 12, 10, 2000)
	if d.N() != 12 {
		t.Errorf("clustered defaults placed %d nodes", d.N())
	}
	d = DeploymentSpec{Kind: DeployClustered, Clusters: 50}.Generate(st(), field, 3, 10, 2000)
	if d.N() != 3 {
		t.Errorf("clamped clusters placed %d nodes", d.N())
	}
	// Poisson with zero spacing derives it from the density.
	d = DeploymentSpec{Kind: DeployPoisson}.Generate(st(), field, 20, 10, 2000)
	if d.N() != 20 {
		t.Errorf("poisson default spacing placed %d of 20", d.N())
	}
	// A saturating poisson spec must panic, not silently thin the network.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("saturated poisson deployment did not panic")
			}
		}()
		DeploymentSpec{Kind: DeployPoisson, MinDist: 30}.Generate(st(), field, 20, 10, 2000)
	}()
	defer func() {
		if recover() == nil {
			t.Error("unknown kind did not panic in Generate")
		}
	}()
	DeploymentSpec{Kind: "teleport"}.Generate(st(), field, 5, 10, 2000)
}

func TestScaleScenario(t *testing.T) {
	for n, name := range map[int]string{
		100: "scale-100", 1000: "scale-1k", 10000: "scale-10k",
		100000: "scale-100k", 1000000: "scale-1m", 2500: "scale-2500",
	} {
		sp := Scale(n)
		if sp.Name != name {
			t.Errorf("Scale(%d).Name = %q, want %q", n, sp.Name, name)
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("Scale(%d): %v", n, err)
		}
		// Density matches the paper: 30 nodes per 40×40 m.
		density := float64(sp.Nodes) / sp.Field.Area()
		if math.Abs(density-30.0/1600.0) > 1e-9 {
			t.Errorf("Scale(%d) density = %g, want paper density", n, density)
		}
		// The front must cross the whole field within the horizon.
		ds, err := sp.BuildStimulus(1)
		if err != nil {
			t.Fatalf("Scale(%d): %v", n, err)
		}
		far := sp.Field.Max
		if at := ds.Stimulus.ArrivalTime(far); at > sp.Horizon {
			t.Errorf("Scale(%d): far corner arrives at %g after horizon %g", n, at, sp.Horizon)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	good, _ := Lookup("paper")
	cases := map[string]func(*Scenario){
		"no name":        func(s *Scenario) { s.Name = "" },
		"empty field":    func(s *Scenario) { s.Field = geom.Rect{} },
		"no nodes":       func(s *Scenario) { s.Nodes = 0 },
		"no horizon":     func(s *Scenario) { s.Horizon = 0 },
		"bad deployment": func(s *Scenario) { s.Deployment.Kind = "teleport" },
		"bad jitter":     func(s *Scenario) { s.Deployment = DeploymentSpec{Kind: DeployGrid, Jitter: 0.6} },
		"no range":       func(s *Scenario) { s.Radio.Range = 0 },
		"bad loss":       func(s *Scenario) { s.Radio.Loss = "psychic" },
		"bad loss prob":  func(s *Scenario) { s.Radio = RadioSpec{Range: 10, Loss: LossLossy, LossProb: 1.5} },
		"bad stimulus":   func(s *Scenario) { s.Stimulus.Kind = "vibes" },
		"no speed":       func(s *Scenario) { s.Stimulus.Speed = 0 },
		"bad failures":   func(s *Scenario) { s.Failures.Fraction = 2 },
		"bad protocol":   func(s *Scenario) { s.Protocol.Name = "tcp" },
		"empty multi":    func(s *Scenario) { s.Stimulus = StimulusSpec{Kind: StimMulti} },
		"nested multi": func(s *Scenario) {
			s.Stimulus = StimulusSpec{Kind: StimMulti, Sources: []StimulusSpec{{Kind: StimMulti}}}
		},
		"plume sans config":   func(s *Scenario) { s.Stimulus = StimulusSpec{Kind: StimPlume} },
		"eikonal sans config": func(s *Scenario) { s.Stimulus = StimulusSpec{Kind: StimEikonal} },
		"negative clusters":   func(s *Scenario) { s.Deployment = DeploymentSpec{Kind: DeployClustered, Clusters: -1} },
		"negative spread":     func(s *Scenario) { s.Deployment = DeploymentSpec{Kind: DeployClustered, Spread: -1} },
		"negative minDist":    func(s *Scenario) { s.Deployment = DeploymentSpec{Kind: DeployPoisson, MinDist: -2} },
		"bad reliable":        func(s *Scenario) { s.Radio = RadioSpec{Range: 10, Loss: LossFalloff, Reliable: 11} },
		"negative fail by":    func(s *Scenario) { s.Failures = fault.FailureSpec{Fraction: 0.1, By: -5} },
		"negative fail from":  func(s *Scenario) { s.Failures = fault.FailureSpec{Fraction: 0.1, From: -1} },
		"fail by before from": func(s *Scenario) { s.Failures = fault.FailureSpec{Fraction: 0.1, From: 9, By: 4} },
		"negative cluster radius": func(s *Scenario) {
			s.Failures = fault.FailureSpec{Fraction: 0.1, ClusterRadius: -2}
		},
		"churn fraction > 1": func(s *Scenario) { s.Failures = fault.FailureSpec{Churn: &fault.ChurnSpec{Fraction: 1.5}} },
		"churn negative mean": func(s *Scenario) {
			s.Failures = fault.FailureSpec{Churn: &fault.ChurnSpec{Fraction: 0.1, MeanDown: -3}}
		},
		"churn negative min": func(s *Scenario) {
			s.Failures = fault.FailureSpec{Churn: &fault.ChurnSpec{Fraction: 0.1, MinDown: -1}}
		},
		"churn negative start": func(s *Scenario) {
			s.Failures = fault.FailureSpec{Churn: &fault.ChurnSpec{Fraction: 0.1, Start: -1}}
		},
		"churn negative by": func(s *Scenario) {
			s.Failures = fault.FailureSpec{Churn: &fault.ChurnSpec{Fraction: 0.1, By: -1}}
		},
		"churn by before start": func(s *Scenario) {
			s.Failures = fault.FailureSpec{Churn: &fault.ChurnSpec{Fraction: 0.1, Start: 8, By: 3}}
		},
		"sensor fraction > 1": func(s *Scenario) { s.Failures = fault.FailureSpec{Sensor: &fault.SensorSpec{Fraction: 2}} },
		"sensor negative drift": func(s *Scenario) {
			s.Failures = fault.FailureSpec{Sensor: &fault.SensorSpec{Fraction: 0.1, Drift: -1}}
		},
		"sensor stuck > 1": func(s *Scenario) {
			s.Failures = fault.FailureSpec{Sensor: &fault.SensorSpec{Fraction: 0.1, Stuck: 1.1}}
		},
		"sensor negative burst rate": func(s *Scenario) {
			s.Failures = fault.FailureSpec{Sensor: &fault.SensorSpec{Fraction: 0.1, BurstRate: -1}}
		},
		"sensor negative burst len": func(s *Scenario) {
			s.Failures = fault.FailureSpec{Sensor: &fault.SensorSpec{Fraction: 0.1, BurstLen: -1}}
		},
		"radio loss = 1":       func(s *Scenario) { s.Failures = fault.FailureSpec{Radio: &fault.DegradationSpec{Loss: 1}} },
		"radio negative start": func(s *Scenario) { s.Failures = fault.FailureSpec{Radio: &fault.DegradationSpec{Loss: 0.5, Start: -1}} },
		"radio negative end":   func(s *Scenario) { s.Failures = fault.FailureSpec{Radio: &fault.DegradationSpec{Loss: 0.5, End: -1}} },
		"radio end before start": func(s *Scenario) {
			s.Failures = fault.FailureSpec{Radio: &fault.DegradationSpec{Loss: 0.5, Start: 7, End: 2}}
		},
		"liveness negative missK": func(s *Scenario) { s.Protocol.Liveness = &fault.LivenessConfig{MissK: -1} },
		"liveness missK sans interval": func(s *Scenario) {
			s.Protocol.Liveness = &fault.LivenessConfig{MissK: 3}
		},
		"liveness negative backoff": func(s *Scenario) {
			s.Protocol.Liveness = &fault.LivenessConfig{MissK: 3, Interval: 5, BackoffInit: -1}
		},
		"liveness negative probes": func(s *Scenario) {
			s.Protocol.Liveness = &fault.LivenessConfig{MissK: 3, Interval: 5, MaxProbes: -2}
		},
		"liveness backoff inverted": func(s *Scenario) {
			s.Protocol.Liveness = &fault.LivenessConfig{MissK: 3, Interval: 5, BackoffInit: 9, BackoffMax: 4}
		},
		"negative max sleep":  func(s *Scenario) { s.Protocol = ProtocolSpec{MaxSleep: -1} },
		"negative dwell":      func(s *Scenario) { s.Stimulus.Dwell = -1 },
		"advected no speed":   func(s *Scenario) { s.Stimulus = StimulusSpec{Kind: StimAdvected, Drift: geom.V(1, 0)} },
		"anisotropic no base": func(s *Scenario) { s.Stimulus = StimulusSpec{Kind: StimAnisotropic, Irregularity: 0.2} },
		"anisotropic irr > 1": func(s *Scenario) {
			s.Stimulus = StimulusSpec{Kind: StimAnisotropic, Speed: 1, Irregularity: 1.2}
		},
		"bad multi source": func(s *Scenario) {
			s.Stimulus = StimulusSpec{Kind: StimMulti, Sources: []StimulusSpec{{Kind: StimRadial}}}
		},
		"bad plume config": func(s *Scenario) {
			s.Stimulus = StimulusSpec{Kind: StimPlume, Plume: &diffusion.PlumeConfig{NX: 1}}
		},
		"bad eikonal config": func(s *Scenario) {
			s.Stimulus = StimulusSpec{Kind: StimEikonal, Eikonal: &EikonalSpec{NX: 1}}
		},
	}
	for name, mutate := range cases {
		s := good
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := good.Validate(); err != nil {
		t.Errorf("pristine paper spec rejected: %v", err)
	}
}

func TestRadioSpecModel(t *testing.T) {
	if m, err := (RadioSpec{Range: 10}).Model(); err != nil || m.MaxRange() != 10 {
		t.Errorf("unit model = %v, %v", m, err)
	}
	m, err := (RadioSpec{Range: 10, Loss: LossLossy, LossProb: 0.3}).Model()
	if err != nil || m.MaxRange() != 10 {
		t.Errorf("lossy model = %v, %v", m, err)
	}
	f, err := (RadioSpec{Range: 10, Loss: LossFalloff}).Model()
	if err != nil {
		t.Fatalf("falloff model: %v", err)
	}
	// Default reliable radius is 60% of range: always delivers inside it.
	st := rng.NewSource(1).Stream("loss")
	if !f.Delivers(5.9, st) {
		t.Error("falloff dropped a packet inside the reliable radius")
	}
	if f.Delivers(10.1, st) {
		t.Error("falloff delivered beyond max range")
	}
	if _, err := (RadioSpec{Range: -1}).Model(); err == nil {
		t.Error("negative range accepted")
	}
}

func TestEikonalPatchSpeedMap(t *testing.T) {
	spec := EikonalSpec{
		NX: 8, NY: 8,
		Bounds:    geom.R(0, 0, 40, 40),
		BaseSpeed: 0.6,
		Patches: []SpeedPatch{
			{Rect: geom.R(0, 18, 32, 24), Speed: 0.15},
			{Rect: geom.R(0, 20, 10, 22), Speed: 0}, // barrier wins (later patch)
		},
		Source:  geom.V(6, 6),
		Horizon: 100,
	}
	cfg := spec.terrainConfig()
	if v := cfg.Speed(geom.V(30, 30)); v != 0.6 {
		t.Errorf("base speed = %g", v)
	}
	if v := cfg.Speed(geom.V(20, 20)); v != 0.15 {
		t.Errorf("band speed = %g", v)
	}
	if v := cfg.Speed(geom.V(5, 21)); v != 0 {
		t.Errorf("barrier speed = %g", v)
	}
}

func TestDwellWrapsReceding(t *testing.T) {
	spec := StimulusSpec{Kind: StimRadial, Origin: geom.V(0, 0), Speed: 1, Start: 0, Dwell: 5}
	front, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	p := geom.V(10, 0) // arrival at t=10, dwell 5 → uncovered at t=16
	if !front.Covered(p, 12) {
		t.Error("not covered during dwell")
	}
	if front.Covered(p, 16) {
		t.Error("still covered after dwell")
	}
}

func TestMultiAnisotropicSourcesAreIndependent(t *testing.T) {
	aniso := StimulusSpec{Kind: StimAnisotropic, Origin: geom.V(0, 0), Speed: 1, Irregularity: 0.5, Harmonics: 4}
	multi := StimulusSpec{Kind: StimMulti, Sources: []StimulusSpec{aniso, aniso}}
	front, err := multi.Build(11)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := front.(*diffusion.MultiSource)
	if !ok {
		t.Fatalf("built %T, want *diffusion.MultiSource", front)
	}
	a := m.Sources[0].(*diffusion.AnisotropicFront)
	b := m.Sources[1].(*diffusion.AnisotropicFront)
	if reflect.DeepEqual(a.Harmonics, b.Harmonics) {
		t.Error("sibling anisotropic sources drew identical harmonics (correlated streams)")
	}
	// Same seed still reproduces the same pair.
	again, err := multi.Build(11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.(*diffusion.MultiSource).Sources[0].(*diffusion.AnisotropicFront).Harmonics, a.Harmonics) {
		t.Error("multi-source build not reproducible")
	}
}

func TestStimulusBuildErrorsMentionScenario(t *testing.T) {
	sp, _ := Lookup("paper")
	sp.Stimulus.Speed = -1
	if _, err := sp.BuildStimulus(1); err == nil || !strings.Contains(err.Error(), "paper") {
		t.Errorf("error %v does not name the scenario", err)
	}
}
