package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	pas "repro"
)

func TestParseFlagsParallelPlumbing(t *testing.T) {
	var stderr strings.Builder
	c, err := parseFlags([]string{"-reps", "4", "-parallel", "2", "-seed", "7"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if c.reps != 4 || c.parallel != 2 || c.seed != 7 {
		t.Errorf("plumbing: %+v", c)
	}
}

func TestParseFlagsBadFlag(t *testing.T) {
	var stderr strings.Builder
	if _, err := parseFlags([]string{"-warp", "9"}, &stderr); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestBuildRunConfigUnknownScenario(t *testing.T) {
	c, err := parseFlags([]string{"-scenario", "atlantis"}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildRunConfig(c); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestBuildRunConfigFlagsReachConfig(t *testing.T) {
	c, err := parseFlags([]string{
		"-protocol", "sas", "-nodes", "42", "-range", "12",
		"-maxsleep", "25", "-threshold", "15", "-loss", "0.2",
	}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := buildRunConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Protocol != "sas" || cfg.Nodes != 42 || cfg.Range != 12 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.PAS.SleepMax != 25 || cfg.PAS.SleepIncrement != 5 || cfg.PAS.AlertThreshold != 15 {
		t.Errorf("PAS tunables not plumbed: %+v", cfg.PAS)
	}
	if cfg.SAS.SleepMax != 25 {
		t.Errorf("SAS tunables not plumbed: %+v", cfg.SAS)
	}
	if cfg.Loss == nil {
		t.Error("loss model not plumbed")
	}
}

func TestPredictorFlagReachesConfig(t *testing.T) {
	c, err := parseFlags([]string{"-predictor", "switching"}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := buildRunConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PAS.Predictor.Kind != "switching" {
		t.Errorf("predictor not plumbed: %+v", cfg.PAS.Predictor)
	}
	// Untouched flag defers to the scenario (paper has no predictor section).
	c, err = parseFlags(nil, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err = buildRunConfig(c); err != nil || cfg.PAS.Predictor.Kind != "" {
		t.Errorf("default predictor = %+v, err %v", cfg.PAS.Predictor, err)
	}
	// Unknown kinds are a clean flag error.
	c, err = parseFlags([]string{"-predictor", "psychic"}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildRunConfig(c); err == nil {
		t.Error("unknown predictor accepted")
	}
}

func TestReplicationSeeds(t *testing.T) {
	got := replicationSeeds(5, 3)
	want := []int64{5, 6, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seeds = %v, want %v", got, want)
		}
	}
}

func TestRunUnknownScenarioExitCode(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-scenario", "atlantis"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "atlantis") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

func TestRunHelpExitsZero(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-help"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-help exit code = %d, want 0", code)
	}
}

func TestRunBadFlagExitCode(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-warp", "9"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestEmptyScenarioNameDefaultsToPaper(t *testing.T) {
	c, err := parseFlags([]string{"-scenario", ""}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := buildRunConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scenario.Name != "paper" || cfg.Nodes != 30 {
		t.Errorf("empty -scenario resolved to %q / %d nodes", cfg.Scenario.Name, cfg.Nodes)
	}
}

func TestRangeOverrideClampsFalloffReliable(t *testing.T) {
	// Shrinking the range below the falloff's reliable radius must clamp the
	// inner disc, not produce an invalid model.
	c, err := parseFlags([]string{"-scenario", "harsh", "-range", "6"}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := buildRunConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	falloff, ok := cfg.Loss.(pas.DistanceFalloff)
	if !ok || falloff.Max != 6 || falloff.Reliable != 6 {
		t.Errorf("loss = %#v, want falloff clamped to 6", cfg.Loss)
	}
}

func TestSpecPinnedIncrementSurvivesFlagDefaults(t *testing.T) {
	// A spec that pins only sleepIncrement (no maxSleep) keeps its increment
	// against the maxsleep flag-default fallback.
	sp, _ := pas.LookupScenario("paper")
	sp.Protocol.SleepIncrement = 3
	data, err := sp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := parseFlags([]string{"-scenario-file", path}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := buildRunConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PAS.SleepIncrement != 3 || cfg.SAS.SleepIncrement != 3 {
		t.Errorf("spec increment clobbered: PAS %g SAS %g", cfg.PAS.SleepIncrement, cfg.SAS.SleepIncrement)
	}
	if cfg.PAS.SleepMax != 10 {
		t.Errorf("flag-default cap not applied: %g", cfg.PAS.SleepMax)
	}
	// An explicit -maxsleep still wins over the pinned increment.
	c, err = parseFlags([]string{"-scenario-file", path, "-maxsleep", "25"}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = buildRunConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PAS.SleepMax != 25 || cfg.PAS.SleepIncrement != 5 {
		t.Errorf("explicit -maxsleep lost: %+v", cfg.PAS)
	}
}

func TestExplicitLossZeroRestoresUnitDisk(t *testing.T) {
	c, err := parseFlags([]string{"-scenario", "harsh", "-loss", "0"}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := buildRunConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.Loss.(pas.UnitDisk); !ok {
		t.Errorf("explicit -loss 0 left %T, want UnitDisk", cfg.Loss)
	}
	// Without the flag the scenario's falloff channel stays.
	c, err = parseFlags([]string{"-scenario", "harsh"}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = buildRunConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.Loss.(pas.DistanceFalloff); !ok {
		t.Errorf("scenario channel lost without -loss: %T", cfg.Loss)
	}
}

func TestFailFlagReachesConfig(t *testing.T) {
	c, err := parseFlags([]string{"-fail", "0.25"}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := buildRunConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FailFraction != 0.25 {
		t.Errorf("FailFraction = %g", cfg.FailFraction)
	}
}

// TestOutOfRangeFailFlagIsCleanError pins that out-of-range run inputs are
// clean errors instead of panics or silently different runs. -fail outside
// [0, 1] exits 1 with the spec's wording (it used to panic on a slice bound
// above 1 and run fault-free below 0), as does -shards -1 (it used to run one
// kernel). -nodes, -loss and -reps outside their bounds are usage errors,
// exit 2: -nodes -5 used to panic, -nodes 0 printed "nodes 0" over a 30-node
// run, -loss 1.5 dropped every packet, -loss -0.5 ran the unit disk,
// -reps below 1 ran one seed and -parallel -4 ran one worker per CPU.
func TestOutOfRangeFailFlagIsCleanError(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-fail", "1.5"}, 1, "passim: experiment: failure fraction 1.5 outside [0, 1]\n"},
		{[]string{"-fail", "-0.2"}, 1, "passim: experiment: failure fraction -0.2 outside [0, 1]\n"},
		{[]string{"-shards", "-1"}, 1, "passim: experiment: negative shard count -1\n"},
		{[]string{"-nodes", "-5"}, 2, "passim: -nodes -5 must be positive\n"},
		{[]string{"-nodes", "0"}, 2, "passim: -nodes 0 must be positive\n"},
		{[]string{"-loss", "1.5"}, 2, "passim: -loss 1.5 outside [0, 1)\n"},
		{[]string{"-loss", "-0.5"}, 2, "passim: -loss -0.5 outside [0, 1)\n"},
		{[]string{"-reps", "0"}, 2, "passim: -reps 0 must be at least 1\n"},
		{[]string{"-reps", "-2"}, 2, "passim: -reps -2 must be at least 1\n"},
		{[]string{"-parallel", "-4"}, 2, "passim: -parallel -4 must not be negative\n"},
	} {
		var stdout, stderr strings.Builder
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code || stderr.String() != tc.want || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit %d and %q",
				tc.args, code, stdout.String(), stderr.String(), tc.code, tc.want)
		}
	}
}

func TestRunTableOutput(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-table", "-seed", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "arrival") {
		t.Errorf("per-node table missing: %q", stdout.String())
	}
}

func TestInfeasibleDeploymentIsCleanError(t *testing.T) {
	// 40 nodes at a 6 m range over the 40×40 harsh field can never connect;
	// the library panics by design, and the CLI must turn that into a clean
	// exit-1 error, not a goroutine dump.
	var stdout, stderr strings.Builder
	if code := run([]string{"-scenario", "harsh", "-range", "6", "-seed", "2"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "no connected uniform deployment") {
		t.Errorf("stderr = %q, want the infeasibility message", stderr.String())
	}
	// The replicated path recovers too.
	if code := run([]string{"-scenario", "harsh", "-range", "6", "-reps", "2"}, &stdout, &stderr); code != 1 {
		t.Fatalf("replicated: exit %d, want 1", code)
	}
}

func TestRunRepsWithTableRejected(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-reps", "4", "-table"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-table") {
		t.Errorf("stderr = %q, want mention of -table", stderr.String())
	}
}

func TestRunUnknownProtocolExitCode(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-protocol", "bogus"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
}

func TestScenarioSuppliesDefaultsFlagsOverride(t *testing.T) {
	// Untouched flags defer to the scenario spec (scale-100 carries 100 nodes
	// and a grid deployment)...
	c, err := parseFlags([]string{"-scenario", "scale-100"}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := buildRunConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 100 || cfg.Deploy.Kind != "grid" {
		t.Errorf("scenario defaults not applied: nodes %d deploy %+v", cfg.Nodes, cfg.Deploy)
	}
	// ...while explicitly set flags win.
	c, err = parseFlags([]string{"-scenario", "scale-100", "-nodes", "64", "-range", "14"}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = buildRunConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 64 || cfg.Range != 14 {
		t.Errorf("flag overrides lost: nodes %d range %g", cfg.Nodes, cfg.Range)
	}
	if cfg.Loss == nil || cfg.Loss.MaxRange() != 14 {
		t.Errorf("loss model not re-ranged: %v", cfg.Loss)
	}
}

func TestRangeOverrideKeepsScenarioChannelModel(t *testing.T) {
	// The harsh scenario uses a distance-falloff channel; overriding only
	// the range must re-range that model, not swap in a perfect unit disk.
	c, err := parseFlags([]string{"-scenario", "harsh", "-range", "15"}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := buildRunConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	falloff, ok := cfg.Loss.(pas.DistanceFalloff)
	if !ok {
		t.Fatalf("loss model = %T, want DistanceFalloff", cfg.Loss)
	}
	if falloff.Max != 15 || falloff.Reliable != 8 {
		t.Errorf("falloff not re-ranged: %+v", falloff)
	}
}

func TestScenarioFileRoundTrip(t *testing.T) {
	sp, ok := pas.LookupScenario("poisson")
	if !ok {
		t.Fatal("registry lost the poisson scenario")
	}
	data, err := sp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-scenario-file", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "poisson") {
		t.Errorf("header missing scenario name: %q", stdout.String())
	}
	if code := run([]string{"-scenario-file", filepath.Join(t.TempDir(), "missing.json")}, &stdout, &stderr); code != 2 {
		t.Errorf("missing spec file: exit %d, want 2", code)
	}
}

func TestRunExperimentFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-exp", "table1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "table1") {
		t.Errorf("experiment output missing: %q", stdout.String())
	}
	if code := run([]string{"-exp", "fig99"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown experiment: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "fig99") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

func TestRunExperimentRejectsSingleRunFlags(t *testing.T) {
	for _, conflict := range [][]string{
		{"-exp", "table1", "-scenario", "poisson"},
		{"-exp", "table1", "-scenario-file", "spec.json"},
		{"-exp", "table1", "-table"},
		{"-exp", "table1", "-protocol", "sas"},
		{"-exp", "table1", "-maxsleep", "30"},
		{"-exp", "table1", "-nodes", "50"},
		{"-exp", "table1", "-loss", "0.2"},
		{"-exp", "table1", "-predictor", "kalman"},
	} {
		var stdout, stderr strings.Builder
		if code := run(conflict, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", conflict, code)
		}
		if !strings.Contains(stderr.String(), "mutually exclusive") {
			t.Errorf("%v: stderr %q", conflict, stderr.String())
		}
	}
}

func TestRunExperimentHonorsExplicitReps(t *testing.T) {
	// An explicit -reps 1 must shrink the replication to one seed; fig4 over
	// one seed has zero CI half-widths, the default 8-seed run does not.
	var one, deflt strings.Builder
	var stderr strings.Builder
	if code := run([]string{"-exp", "fig4", "-reps", "1", "-parallel", "1"}, &one, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if code := run([]string{"-exp", "fig4", "-parallel", "1"}, &deflt, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if one.String() == deflt.String() {
		t.Error("-reps 1 had no effect on -exp replication")
	}
}

func TestRunExperimentHonorsExplicitSeed(t *testing.T) {
	// -seed without -reps must still reach the experiment: fig4 over one
	// seed differs from fig4 over another.
	out := func(args ...string) string {
		var stdout, stderr strings.Builder
		if code := run(append(args, "-parallel", "1"), &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d, stderr %q", code, stderr.String())
		}
		return stdout.String()
	}
	// Quick-ish single-seed runs of a cheap experiment.
	a := out("-exp", "fig4", "-seed", "3")
	b := out("-exp", "fig4", "-seed", "4")
	if a == b {
		t.Error("-seed had no effect on -exp output")
	}
	if again := out("-exp", "fig4", "-seed", "3"); again != a {
		t.Error("same seed not reproducible")
	}
}

func TestRunSingleAndReplicated(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-seed", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("single run: exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "seed 1") {
		t.Errorf("single-run header missing: %q", stdout.String())
	}

	// The replicated path must aggregate over seeds and be identical for
	// serial and parallel execution.
	var serial, parallel strings.Builder
	if code := run([]string{"-reps", "3", "-parallel", "1"}, &serial, &stderr); code != 0 {
		t.Fatalf("serial reps: exit %d, stderr %q", code, stderr.String())
	}
	if code := run([]string{"-reps", "3", "-parallel", "3"}, &parallel, &stderr); code != 0 {
		t.Fatalf("parallel reps: exit %d, stderr %q", code, stderr.String())
	}
	if serial.String() != parallel.String() {
		t.Errorf("replicated output diverged:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
	if !strings.Contains(serial.String(), "seeds 1..3") {
		t.Errorf("aggregate header missing: %q", serial.String())
	}
	if !strings.Contains(serial.String(), "runs 3") {
		t.Errorf("aggregate body missing run count: %q", serial.String())
	}
}
