package scenario

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/geom"
)

// minimalSpec returns a small valid spec the canonicalization tests mutate.
func minimalSpec() Scenario {
	return Scenario{
		Name:     "canon-test",
		Field:    geom.R(0, 0, 40, 40),
		Nodes:    10,
		Horizon:  100,
		Radio:    RadioSpec{Range: 10},
		Stimulus: StimulusSpec{Kind: StimRadial, Origin: geom.V(0, 20), Speed: 0.5, Start: 10},
	}
}

// TestCanonicalRoundTrip pins the contract for every registry spec: the
// canonical form decodes back to a valid spec, re-canonicalizes to
// byte-identical output, and hashes equal to the original.
func TestCanonicalRoundTrip(t *testing.T) {
	for _, sp := range All() {
		c1, err := Canonical(sp)
		if err != nil {
			t.Fatalf("%s: Canonical: %v", sp.Name, err)
		}
		back, err := Decode(c1)
		if err != nil {
			t.Fatalf("%s: canonical form failed to decode: %v\n%s", sp.Name, err, c1)
		}
		c2, err := Canonical(back)
		if err != nil {
			t.Fatalf("%s: re-canonicalize: %v", sp.Name, err)
		}
		if !bytes.Equal(c1, c2) {
			t.Errorf("%s: canonicalization not idempotent:\n%s\nvs\n%s", sp.Name, c1, c2)
		}
		h1, err := Hash(sp)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := Hash(back)
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Errorf("%s: hash drifted across the canonical round trip", sp.Name)
		}
		if len(h1) != 64 || strings.ToLower(h1) != h1 {
			t.Errorf("%s: hash %q is not lowercase hex sha-256", sp.Name, h1)
		}
	}
}

// TestCanonicalSortedKeys verifies the canonical encoding emits object keys
// in sorted order — the property golden-style consumers rely on.
func TestCanonicalSortedKeys(t *testing.T) {
	sp := minimalSpec()
	sp.Deployment = DeploymentSpec{Kind: DeployGrid, Jitter: 0.3}
	c, err := Canonical(sp)
	if err != nil {
		t.Fatal(err)
	}
	// Top-level keys of the canonical form must appear in sorted order.
	want := []string{`"deployment"`, `"field"`, `"horizon"`, `"name"`, `"nodes"`, `"radio"`, `"stimulus"`}
	last := -1
	for _, key := range want {
		idx := bytes.Index(c, []byte(key))
		if idx < 0 {
			t.Fatalf("canonical form missing key %s:\n%s", key, c)
		}
		if idx < last {
			t.Fatalf("key %s out of sorted order:\n%s", key, c)
		}
		last = idx
	}
}

// TestHashEquivalentSpecs verifies that spec pairs compiling to the same
// simulation share a content address, and that behaviorally distinct pairs
// do not.
func TestHashEquivalentSpecs(t *testing.T) {
	base := minimalSpec()

	equal := []struct {
		name string
		a, b func(Scenario) Scenario
	}{
		{"deployment kind empty vs uniform", func(s Scenario) Scenario {
			s.Deployment.Kind = ""
			return s
		}, func(s Scenario) Scenario {
			s.Deployment.Kind = DeployUniform
			return s
		}},
		{"uniform ignores grid jitter", func(s Scenario) Scenario {
			return s
		}, func(s Scenario) Scenario {
			s.Deployment.Jitter = 0.3
			return s
		}},
		{"loss empty vs unit", func(s Scenario) Scenario {
			s.Radio.Loss = ""
			return s
		}, func(s Scenario) Scenario {
			s.Radio.Loss = LossUnit
			return s
		}},
		{"unit disk ignores lossProb", func(s Scenario) Scenario {
			return s
		}, func(s Scenario) Scenario {
			s.Radio.LossProb = 0.3
			return s
		}},
		{"falloff reliable default materialized", func(s Scenario) Scenario {
			s.Radio.Loss = LossFalloff
			return s
		}, func(s Scenario) Scenario {
			s.Radio.Loss = LossFalloff
			s.Radio.Reliable = 6 // 0.6 × range 10
			return s
		}},
		{"sleep increment ramp materialized", func(s Scenario) Scenario {
			s.Protocol = ProtocolSpec{Name: "pas", MaxSleep: 20}
			return s
		}, func(s Scenario) Scenario {
			s.Protocol = ProtocolSpec{Name: "pas", MaxSleep: 20, SleepIncrement: 4}
			return s
		}},
		{"failure deadline 0 vs horizon", func(s Scenario) Scenario {
			s.Failures = fault.FailureSpec{Fraction: 0.1}
			return s
		}, func(s Scenario) Scenario {
			s.Failures = fault.FailureSpec{Fraction: 0.1, By: s.Horizon}
			return s
		}},
		{"no failures ignore deadline", func(s Scenario) Scenario {
			return s
		}, func(s Scenario) Scenario {
			s.Failures = fault.FailureSpec{By: 50}
			return s
		}},
		{"clustered defaults materialized", func(s Scenario) Scenario {
			s.Deployment = DeploymentSpec{Kind: DeployClustered}
			return s
		}, func(s Scenario) Scenario {
			s.Deployment = DeploymentSpec{Kind: DeployClustered, Clusters: 5, Spread: 4}
			return s
		}},
	}
	for _, tc := range equal {
		ha, err := Hash(tc.a(base))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		hb, err := Hash(tc.b(base))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ha != hb {
			t.Errorf("%s: hashes differ for semantically equal specs", tc.name)
		}
	}

	distinct := []struct {
		name string
		mut  func(Scenario) Scenario
	}{
		{"node count", func(s Scenario) Scenario { s.Nodes = 11; return s }},
		{"radio range", func(s Scenario) Scenario { s.Radio.Range = 11; return s }},
		{"stimulus speed", func(s Scenario) Scenario { s.Stimulus.Speed = 0.6; return s }},
		{"horizon", func(s Scenario) Scenario { s.Horizon = 101; return s }},
		{"lossy vs unit", func(s Scenario) Scenario { s.Radio.Loss = LossLossy; return s }},
		{"protocol pin", func(s Scenario) Scenario { s.Protocol.Name = "sas"; return s }},
	}
	hbase, err := Hash(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range distinct {
		h, err := Hash(tc.mut(base))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if h == hbase {
			t.Errorf("%s: behaviorally distinct spec hashed equal to base", tc.name)
		}
	}
}

// TestCanonicalPreservesBuild verifies normalization preserves behavior: the
// decoded canonical form of a spec with every defaultable section builds the
// same RunConfig-relevant pieces (deployment draw, stimulus arrival) as the
// original.
func TestCanonicalPreservesBuild(t *testing.T) {
	sp := minimalSpec()
	sp.Deployment = DeploymentSpec{Kind: DeployClustered} // defaults materialize
	sp.Radio.Loss = LossFalloff                           // reliable materializes
	sp.Stimulus = StimulusSpec{Kind: StimAnisotropic, Origin: geom.V(0, 20),
		Speed: 0.5, Start: 10, Irregularity: 0.4} // harmonics materializes

	c, err := Canonical(sp)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := Decode(c)
	if err != nil {
		t.Fatal(err)
	}

	for _, seed := range []int64{1, 7} {
		a, err := sp.BuildStimulus(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := canon.BuildStimulus(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []geom.Vec2{geom.V(5, 5), geom.V(20, 20), geom.V(35, 10)} {
			if ta, tb := a.Stimulus.ArrivalTime(p), b.Stimulus.ArrivalTime(p); ta != tb {
				t.Fatalf("seed %d: arrival at %v drifted: %g vs %g", seed, p, ta, tb)
			}
		}
	}
}

// TestCanonicalRejectsInvalid verifies Canonical and Hash validate first.
func TestCanonicalRejectsInvalid(t *testing.T) {
	bad := minimalSpec()
	bad.Nodes = 0
	if _, err := Canonical(bad); err == nil {
		t.Error("Canonical accepted an invalid spec")
	}
	if _, err := Hash(bad); err == nil {
		t.Error("Hash accepted an invalid spec")
	}
}
