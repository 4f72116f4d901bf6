package experiment

import (
	"fmt"
	"testing"

	"repro/internal/scenario"
)

// canonicalOverlays are hand-written sections over a small paper-like spec,
// one for each default that spec normalization sets: a crash window with
// nothing to crash, a disabled liveness section, a paper-kind predictor with
// a parameter it never reads, the clustered and poisson deployment
// defaults, the falloff radius, the MaxSleep/5 sleep ramp and the window
// ends that default to the horizon.
var canonicalOverlays = []struct{ name, json string }{
	{"failures from 5", `"failures":{"from":5}`},
	{"disabled liveness", `"protocol":{"liveness":{"interval":5}}`},
	{"paper predictor with mu", `"protocol":{"predictor":{"kind":"paper","mu":1.9}}`},
	{"clustered defaults", `"deployment":{"kind":"clustered"}`},
	{"poisson defaults", `"deployment":{"kind":"poisson"}`},
	{"falloff defaults", `"radio":{"range":10,"loss":"falloff"}`},
	{"sleep ramp", `"protocol":{"maxSleep":20}`},
	{"window ends", `"failures":{"fraction":0.1,"from":20,"churn":{"fraction":0.2,"meanDown":20},"radio":{"loss":0.2,"start":30}}`},
}

// TestCanonicalFormBuildsTheSameRun pins that a spec and its canonical form
// — the bytes its result key hashes — run one simulation: for every registry
// entry small enough for a unit test and every hand-written overlay,
// FromScenario of the spec and of Decode(Canonical(spec)) must give
// byte-identical reports and the same verdict on running at two shards.
func TestCanonicalFormBuildsTheSameRun(t *testing.T) {
	var specs []scenario.Scenario
	for _, sp := range scenario.All() {
		if sp.Name != "scale-100k" && sp.Name != "scale-1m" {
			specs = append(specs, sp)
		}
	}
	for _, o := range canonicalOverlays {
		sp, err := scenario.Decode([]byte(`{"name":"` + o.name + `",
		  "field":{"Min":{"X":0,"Y":0},"Max":{"X":40,"Y":40}},"nodes":30,"horizon":140,
		  "radio":{"range":10},
		  "stimulus":{"kind":"radial","origin":{"X":0,"Y":20},"speed":0.5,"start":10},` + o.json + `}`))
		if err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		specs = append(specs, sp)
	}
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			canon, err := scenario.Canonical(sp)
			if err != nil {
				t.Fatal(err)
			}
			back, err := scenario.Decode(canon)
			if err != nil {
				t.Fatal(err)
			}
			report, verdict := canonicalRun(t, sp)
			canonReport, canonVerdict := canonicalRun(t, back)
			if verdict != canonVerdict {
				t.Errorf("2-shard verdict %q, canonical form's %q", verdict, canonVerdict)
			}
			if report != canonReport {
				t.Errorf("report differs from the canonical form's (%d vs %d bytes)", len(report), len(canonReport))
			}
		})
	}
}

// canonicalRun compiles sp at seed 3 and returns its encoded report and its
// Shardable verdict at two shards.
func canonicalRun(t *testing.T, sp scenario.Scenario) (report, verdict string) {
	t.Helper()
	rc, err := FromScenario(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunOnce(rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Shards = 2
	return fmt.Sprintf("%+v", rep), fmt.Sprint(Shardable(rc))
}

// TestFromScenarioNodeOverrideKeepsDensityDefaults pins that a deployment
// default derived from the node count follows a caller's Nodes override: a
// poisson spec that leaves its spacing to the default must still place
// 100 nodes when compiled for 30 and run with 100, as passim -nodes does.
func TestFromScenarioNodeOverrideKeepsDensityDefaults(t *testing.T) {
	sp, err := scenario.Decode([]byte(`{"name":"poisson-default",
	  "field":{"Min":{"X":0,"Y":0},"Max":{"X":40,"Y":40}},"nodes":30,"horizon":140,
	  "deployment":{"kind":"poisson"},"radio":{"range":10},
	  "stimulus":{"kind":"radial","origin":{"X":0,"Y":20},"speed":0.5,"start":10}}`))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := FromScenario(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	rc.Nodes = 100
	nw, _, err := Build(rc)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(nw.Nodes); n != 100 {
		t.Fatalf("built %d nodes, want 100", n)
	}
}
