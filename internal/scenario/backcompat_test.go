package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/predict"
)

// TestLegacyFailuresJSONBackCompat pins that failure specs written before the
// extended fault taxonomy still decode, still compile through the legacy
// (Fraction/By) path, and still produce the same content address. The hash
// literal was computed on the pre-fault tree; if this test fails, cached
// simulations keyed by old clients have silently gone stale.
func TestLegacyFailuresJSONBackCompat(t *testing.T) {
	data := []byte(`{
	  "name": "canon-test",
	  "field": {"Min": {"X": 0, "Y": 0}, "Max": {"X": 40, "Y": 40}},
	  "nodes": 10,
	  "horizon": 100,
	  "radio": {"range": 10},
	  "stimulus": {"kind": "radial", "origin": {"X": 0, "Y": 20}, "speed": 0.5, "start": 10},
	  "failures": {"fraction": 0.1, "by": 50}
	}`)
	sp, err := Decode(data)
	if err != nil {
		t.Fatalf("pre-fault failures JSON no longer decodes: %v", err)
	}
	want := fault.FailureSpec{Fraction: 0.1, By: 50}
	if !reflect.DeepEqual(sp.Failures, want) {
		t.Errorf("failures decoded as %+v, want %+v", sp.Failures, want)
	}
	if sp.Failures.Extended() {
		t.Error("plain fraction/by spec classified as extended — it would leave the legacy code path")
	}
	h, err := Hash(sp)
	if err != nil {
		t.Fatal(err)
	}
	const preFaultHash = "05f2cbeab5c9dfe3a101e07d08eab7510703686fd8436a27436149b1c3429c52"
	if h != preFaultHash {
		t.Errorf("legacy spec hash drifted:\ngot  %s\nwant %s", h, preFaultHash)
	}
}

// TestLegacyPredictorJSONBackCompat pins that protocol specs written before
// the predictor portfolio still hash to the same content address: a spec with
// no predictor section must canonicalize byte-identically to its pre-predictor
// encoding, and an explicit paper-kind section must collapse onto it. The hash
// literal was computed on the pre-predictor tree; if this test fails, cached
// simulations keyed by old clients have silently gone stale.
func TestLegacyPredictorJSONBackCompat(t *testing.T) {
	data := []byte(`{
	  "name": "canon-pred-test",
	  "field": {"Min": {"X": 0, "Y": 0}, "Max": {"X": 40, "Y": 40}},
	  "nodes": 10,
	  "horizon": 100,
	  "radio": {"range": 10},
	  "stimulus": {"kind": "radial", "origin": {"X": 0, "Y": 20}, "speed": 0.5, "start": 10},
	  "protocol": {"name": "pas", "maxSleep": 20, "alertThreshold": 15, "liveness": {"missK": 3, "interval": 5}}
	}`)
	sp, err := Decode(data)
	if err != nil {
		t.Fatalf("pre-predictor protocol JSON no longer decodes: %v", err)
	}
	h, err := Hash(sp)
	if err != nil {
		t.Fatal(err)
	}
	const prePredictorHash = "ab3bef3cac31b09b43d4294f3be14827bff191f02d95b132e7548beecc46671f"
	if h != prePredictorHash {
		t.Errorf("legacy protocol spec hash drifted:\ngot  %s\nwant %s", h, prePredictorHash)
	}
	// An explicit default-predictor section is behaviourally identical and
	// must share the content address.
	sp.Protocol.Predictor = &predict.Spec{Kind: "paper"}
	if hp, err := Hash(sp); err != nil || hp != prePredictorHash {
		t.Errorf("explicit paper predictor changed the hash: %s, %v", hp, err)
	}

	const preMinimalHash = "0f25be06e54e78aa53fcaed34ab7e32d2c06ac9fc6d932daebb8c91355c3a214"
	if h, err := Hash(minimalSpec()); err != nil || h != preMinimalHash {
		t.Errorf("minimal spec hash drifted: %s, %v (want %s)", h, err, preMinimalHash)
	}
}

// TestPredictorHashEquivalence extends the canonicalization contract to the
// predictor portfolio: kind defaults materialize and irrelevant parameters
// drop onto one hash, while behaviourally distinct predictors stay distinct.
func TestPredictorHashEquivalence(t *testing.T) {
	base := minimalSpec()

	equal := []struct {
		name string
		a, b *predict.Spec
	}{
		{"absent vs explicit paper", nil, &predict.Spec{Kind: "paper"}},
		{"paper ignores parameters", &predict.Spec{Kind: "paper", Mu: 1.9}, nil},
		{"lms default mu spelled out", &predict.Spec{Kind: "lms"}, &predict.Spec{Kind: "lms", Mu: 0.5}},
		{"lms ignores alpha", &predict.Spec{Kind: "lms", Alpha: 0.9}, &predict.Spec{Kind: "lms"}},
		{"kalman defaults spelled out", &predict.Spec{Kind: "kalman"},
			&predict.Spec{Kind: "kalman", ProcessVar: 1, MeasureVar: 4}},
	}
	for _, tc := range equal {
		a, b := base, base
		a.Protocol.Predictor = tc.a
		b.Protocol.Predictor = tc.b
		ha, err := Hash(a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		hb, err := Hash(b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ha != hb {
			t.Errorf("%s: hashes differ for semantically equal specs", tc.name)
		}
	}

	distinct := []*predict.Spec{
		{Kind: "lms"},
		{Kind: "lms", Mu: 1.5},
		{Kind: "ewma"},
		{Kind: "ar"},
		{Kind: "ar", Order: 3},
		{Kind: "kalman"},
		{Kind: "switching"},
		{Kind: "switching", Tolerance: 2},
	}
	hbase, err := Hash(base)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{hbase: "base"}
	for _, pr := range distinct {
		s := base
		s.Protocol.Predictor = pr
		h, err := Hash(s)
		if err != nil {
			t.Fatalf("%+v: %v", pr, err)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("%+v: behaviorally distinct predictor hashed equal to %s", pr, prev)
		}
		seen[h] = fmt.Sprintf("%+v", pr)
	}
}

// TestExtendedFailuresHashEquivalence extends the canonicalization contract
// to the fault taxonomy: window defaults materialize, disabled sub-specs
// drop, and liveness defaults collapse onto one hash — while any behavioral
// difference keeps hashes distinct.
func TestExtendedFailuresHashEquivalence(t *testing.T) {
	base := minimalSpec()

	equal := []struct {
		name string
		a, b func(Scenario) Scenario
	}{
		{"churn window end 0 vs horizon", func(s Scenario) Scenario {
			s.Failures = fault.FailureSpec{Churn: &fault.ChurnSpec{Fraction: 0.2, MeanDown: 20}}
			return s
		}, func(s Scenario) Scenario {
			s.Failures = fault.FailureSpec{Churn: &fault.ChurnSpec{Fraction: 0.2, MeanDown: 20, By: s.Horizon}}
			return s
		}},
		{"zero-fraction churn drops", func(s Scenario) Scenario {
			return s
		}, func(s Scenario) Scenario {
			s.Failures = fault.FailureSpec{Churn: &fault.ChurnSpec{MeanDown: 20}}
			return s
		}},
		{"zero-fraction sensor drops", func(s Scenario) Scenario {
			return s
		}, func(s Scenario) Scenario {
			s.Failures = fault.FailureSpec{Sensor: &fault.SensorSpec{Drift: 3}}
			return s
		}},
		{"zero-loss degradation drops", func(s Scenario) Scenario {
			return s
		}, func(s Scenario) Scenario {
			s.Failures = fault.FailureSpec{Radio: &fault.DegradationSpec{Start: 10, End: 50}}
			return s
		}},
		{"degradation end 0 vs horizon", func(s Scenario) Scenario {
			s.Failures = fault.FailureSpec{Radio: &fault.DegradationSpec{Loss: 0.3}}
			return s
		}, func(s Scenario) Scenario {
			s.Failures = fault.FailureSpec{Radio: &fault.DegradationSpec{Loss: 0.3, End: s.Horizon}}
			return s
		}},
		{"liveness backoff defaults materialized", func(s Scenario) Scenario {
			s.Protocol.Liveness = &fault.LivenessConfig{MissK: 3, Interval: 5}
			return s
		}, func(s Scenario) Scenario {
			s.Protocol.Liveness = &fault.LivenessConfig{MissK: 3, Interval: 5, BackoffInit: 5, BackoffMax: 40, MaxProbes: 3}
			return s
		}},
		{"disabled liveness drops", func(s Scenario) Scenario {
			return s
		}, func(s Scenario) Scenario {
			s.Protocol.Liveness = &fault.LivenessConfig{}
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
		{"churn", func(s Scenario) Scenario {
			s.Failures.Churn = &fault.ChurnSpec{Fraction: 0.2, MeanDown: 20}
			return s
		}},
		{"crash window start", func(s Scenario) Scenario {
			s.Failures = fault.FailureSpec{Fraction: 0.1, From: 10}
			return s
		}},
		{"clustered crash", func(s Scenario) Scenario {
			s.Failures = fault.FailureSpec{Fraction: 0.1, ClusterRadius: 8}
			return s
		}},
		{"sensor drift", func(s Scenario) Scenario {
			s.Failures.Sensor = &fault.SensorSpec{Fraction: 0.3, Drift: 3}
			return s
		}},
		{"radio degradation", func(s Scenario) Scenario {
			s.Failures.Radio = &fault.DegradationSpec{Loss: 0.3}
			return s
		}},
		{"liveness enabled", func(s Scenario) Scenario {
			s.Protocol.Liveness = &fault.LivenessConfig{MissK: 3, Interval: 5}
			return s
		}},
		{"liveness missK", func(s Scenario) Scenario {
			s.Protocol.Liveness = &fault.LivenessConfig{MissK: 4, Interval: 5}
			return s
		}},
	}
	hbase, err := Hash(base)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{hbase: "base"}
	for _, tc := range distinct {
		h, err := Hash(tc.mut(base))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("%s: behaviorally distinct spec hashed equal to %s", tc.name, prev)
		}
		seen[h] = tc.name
	}
}

// TestExtendedFailuresDecodeHandwritten decodes a fully loaded hand-written
// fault section — the JSON shape external clients will post to the daemon.
func TestExtendedFailuresDecodeHandwritten(t *testing.T) {
	data := []byte(`{
	  "name": "chaos",
	  "field": {"Min": {"X": 0, "Y": 0}, "Max": {"X": 40, "Y": 40}},
	  "nodes": 30,
	  "horizon": 140,
	  "radio": {"range": 10},
	  "stimulus": {"kind": "radial", "origin": {"X": 0, "Y": 20}, "speed": 0.5, "start": 10},
	  "failures": {
	    "fraction": 0.05, "from": 20, "by": 120, "clusterRadius": 10,
	    "churn": {"fraction": 0.2, "meanDown": 20, "minDown": 5},
	    "sensor": {"fraction": 0.3, "drift": 3, "stuck": 0.2, "burstRate": 2, "burstLen": 2},
	    "radio": {"start": 35, "end": 105, "loss": 0.15}
	  },
	  "protocol": {"name": "pas", "liveness": {"missK": 3, "interval": 5, "backoffInit": 2, "backoffMax": 16}}
	}`)
	sp, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Failures.Extended() {
		t.Error("loaded fault section not classified as extended")
	}
	if sp.Failures.Churn.MeanDown != 20 || sp.Failures.Sensor.BurstLen != 2 || sp.Failures.Radio.Loss != 0.15 {
		t.Errorf("fault sections decoded as %+v", sp.Failures)
	}
	if sp.Protocol.Liveness.BackoffMax != 16 {
		t.Errorf("liveness decoded as %+v", sp.Protocol.Liveness)
	}
	// The canonical pipeline must hold for the loaded shape too.
	if _, err := Hash(sp); err != nil {
		t.Fatalf("loaded spec failed to hash: %v", err)
	}
}
