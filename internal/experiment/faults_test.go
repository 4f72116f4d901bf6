package experiment

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/scenario"
)

// TestFromScenarioCompilesExtendedFaults pins the split between the legacy
// crash path and the compiled fault plan: a plain Fraction/By spec keeps the
// byte-identical FailFraction code path (Faults nil), while any extended
// section compiles to a Plan and routes liveness config into the protocols.
func TestFromScenarioCompilesExtendedFaults(t *testing.T) {
	harsh, ok := scenario.Lookup("harsh")
	if !ok {
		t.Fatal("registry lost the harsh scenario")
	}
	rc, err := FromScenario(harsh, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Faults != nil {
		t.Error("legacy fraction-only spec compiled an extended fault plan")
	}
	if rc.FailFraction != 0.1 {
		t.Errorf("legacy fraction lost: %g", rc.FailFraction)
	}

	churn, ok := scenario.Lookup("churn")
	if !ok {
		t.Fatal("registry lost the churn scenario")
	}
	rc, err = FromScenario(churn, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Faults == nil {
		t.Fatal("churn spec did not compile a fault plan")
	}
	if rc.FailFraction != 0 {
		t.Errorf("extended spec leaked into the legacy fraction path: %g", rc.FailFraction)
	}
	if !rc.PAS.Liveness.Enabled() || !rc.SAS.Liveness.Enabled() {
		t.Error("liveness spec not routed into the protocol configs")
	}
	if rc.PAS.Liveness.BackoffInit != churn.Protocol.Liveness.Interval {
		t.Errorf("liveness defaults not materialized: %+v", rc.PAS.Liveness)
	}
}

// TestBuildRejectsOutOfRangeFailures pins that Build refuses out-of-range
// inputs with an error: a failure fraction outside [0, 1] (which used to
// panic on a slice bound above 1 and run fault-free below 0) and a negative
// failure deadline, in a spec's validation words; a negative node count
// (which used to panic in makeslice); and a negative shard count (which used
// to run one kernel silently).
func TestBuildRejectsOutOfRangeFailures(t *testing.T) {
	for _, tc := range []struct {
		rc   RunConfig
		want string
	}{
		{RunConfig{FailFraction: 1.5}, "failure fraction 1.5 outside [0, 1]"},
		{RunConfig{FailFraction: -0.2}, "failure fraction -0.2 outside [0, 1]"},
		{RunConfig{FailFraction: math.NaN()}, "failure fraction NaN outside [0, 1]"},
		{RunConfig{FailFraction: 0.1, FailBy: -1}, "negative failure deadline -1"},
		{RunConfig{Nodes: -5}, "negative node count -5"},
		{RunConfig{Shards: -1}, "negative shard count -1"},
	} {
		if _, _, err := Build(tc.rc); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Build(%+v) error = %v, want %q", tc.rc, err, tc.want)
		}
	}
}

// TestFailFractionIsUniformCrashPlan pins that the legacy FailFraction kill
// and a compiled uniform crash plan are one code path: the same victims die
// at the same times, so the reports are equal.
func TestFailFractionIsUniformCrashPlan(t *testing.T) {
	horizon := registryScenario("paper").Horizon
	for _, f := range []float64{0.1, 0.5, 1} {
		legacy, err := RunOnce(RunConfig{Seed: 3, FailFraction: f})
		if err != nil {
			t.Fatal(err)
		}
		plan := fault.Compile(scenario.FailureSpec{Fraction: f}, horizon)
		planned, err := RunOnce(RunConfig{Seed: 3, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(legacy, planned) {
			t.Errorf("fraction %g: FailFraction report differs from the compiled crash plan's", f)
		}
	}
}

// TestChurnRunReportsDegradation runs the churn registry scenario end to end
// and checks the graceful-degradation measures are populated and, crucially,
// deterministic: two runs at one seed must agree report-for-report.
func TestChurnRunReportsDegradation(t *testing.T) {
	sp, _ := scenario.Lookup("churn")
	rc, err := FromScenario(sp, 7)
	if err != nil {
		t.Fatal(err)
	}
	rc.Protocol = ProtoPAS
	a, err := RunOnce(rc)
	if err != nil {
		t.Fatal(err)
	}
	if a.LiveFraction <= 0 || a.LiveFraction >= 1 {
		t.Errorf("LiveFraction = %g, want strictly inside (0, 1) under 20%% churn", a.LiveFraction)
	}
	if a.Probes == 0 {
		t.Error("liveness tracker issued no probes over a 140 s horizon")
	}
	b, err := RunOnce(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("churn run is not deterministic at a fixed seed")
	}
}

// TestDriftRunStaysFullyLive pins that sensor miscalibration alone degrades
// detection, not liveness: every node stays up, so LiveFraction is exactly 1
// and nothing is declared dead.
func TestDriftRunStaysFullyLive(t *testing.T) {
	sp, _ := scenario.Lookup("drift")
	rc, err := FromScenario(sp, 7)
	if err != nil {
		t.Fatal(err)
	}
	rc.Protocol = ProtoPAS
	rep, err := RunOnce(rc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LiveFraction != 1 {
		t.Errorf("LiveFraction = %g, want 1 (miscalibration keeps nodes up)", rep.LiveFraction)
	}
	if rep.DeclaredDead != 0 || rep.FalseDead != 0 {
		t.Errorf("drift run declared deaths: %d (%d false)", rep.DeclaredDead, rep.FalseDead)
	}
}

// TestChurnRunsShareFrozenTopology pins that crash-recovery churn reuses the
// cached deployment and compiled CSR topology: rejoin is a radio-state
// change, never a recompile. Three protocols over the churn scenario at one
// seed must compile the topology at most once.
func TestChurnRunsShareFrozenTopology(t *testing.T) {
	sp, _ := scenario.Lookup("churn")
	h0, m0 := depCacheStats()
	th0, tm0 := topoCacheStats()
	for _, proto := range []string{ProtoPAS, ProtoSAS, ProtoNS} {
		rc, err := FromScenario(sp, 4242)
		if err != nil {
			t.Fatal(err)
		}
		rc.Protocol = proto
		if _, err := RunOnce(rc); err != nil {
			t.Fatal(err)
		}
	}
	h1, m1 := depCacheStats()
	th1, tm1 := topoCacheStats()
	if gotMisses := m1 - m0; gotMisses > 1 {
		t.Errorf("3 churn runs at one seed caused %d deployment misses, want ≤ 1", gotMisses)
	}
	if gotHits := h1 - h0; gotHits < 2 {
		t.Errorf("3 churn runs at one seed caused %d deployment hits, want ≥ 2", gotHits)
	}
	if gotMisses := tm1 - tm0; gotMisses > 1 {
		t.Errorf("3 churn runs at one seed compiled the topology %d times, want ≤ 1", gotMisses)
	}
	if gotHits := th1 - th0; gotHits < 2 {
		t.Errorf("3 churn runs at one seed caused %d topology hits, want ≥ 2", gotHits)
	}
}
