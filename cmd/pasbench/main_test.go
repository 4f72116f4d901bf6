package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestParseFlagsDefaults(t *testing.T) {
	var stderr strings.Builder
	c, err := parseFlags(nil, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if c.expID != "all" || c.quick || c.list || c.csvDir != "" {
		t.Errorf("defaults = %+v", c)
	}
	if c.opts.Parallelism != 0 {
		t.Errorf("default Parallelism = %d, want 0 (one per CPU)", c.opts.Parallelism)
	}
	if c.opts.Seeds != nil {
		t.Errorf("default Seeds = %v, want nil", c.opts.Seeds)
	}
}

func TestParseFlagsParallelPlumbing(t *testing.T) {
	var stderr strings.Builder
	c, err := parseFlags([]string{"-exp", "fig4", "-parallel", "4", "-seeds", "12", "-quick"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if c.opts.Parallelism != 4 {
		t.Errorf("Parallelism = %d, want 4", c.opts.Parallelism)
	}
	if len(c.opts.Seeds) != 12 {
		t.Errorf("Seeds = %d, want 12", len(c.opts.Seeds))
	}
	if !c.opts.Quick {
		t.Error("Quick not plumbed")
	}
}

func TestParseFlagsBadFlag(t *testing.T) {
	var stderr strings.Builder
	if _, err := parseFlags([]string{"-nonsense"}, &stderr); err == nil {
		t.Fatal("bad flag accepted")
	}
	if !strings.Contains(stderr.String(), "nonsense") {
		t.Errorf("stderr = %q, want mention of the bad flag", stderr.String())
	}
}

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all", "", "")
	if err != nil || len(all) < 15 {
		t.Fatalf("all: %d experiments, err %v", len(all), err)
	}
	one, err := selectExperiments("fig4", "", "")
	if err != nil || len(one) != 1 || one[0].ID != "fig4" {
		t.Fatalf("fig4: %+v, err %v", one, err)
	}
	if _, err := selectExperiments("fig99", "", ""); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// -scenario selects the generic sweep and wins over -exp.
	sw, err := selectExperiments("all", "poisson", "")
	if err != nil || len(sw) != 1 || sw[0].ID != "scenario-poisson" {
		t.Fatalf("scenario sweep: %+v, err %v", sw, err)
	}
	if _, err := selectExperiments("all", "atlantis", ""); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	// An explicit experiment next to -scenario is a conflict, not a silent
	// override.
	if _, err := selectExperiments("fig4", "poisson", ""); err == nil {
		t.Fatal("conflicting -exp and -scenario accepted")
	}
	// -predictor pins the sweep's PAS predictor and shows up in the id.
	pr, err := selectExperiments("all", "poisson", "kalman")
	if err != nil || len(pr) != 1 || pr[0].ID != "scenario-poisson-kalman" {
		t.Fatalf("predictor sweep: %+v, err %v", pr, err)
	}
	if _, err := selectExperiments("all", "poisson", "psychic"); err == nil {
		t.Fatal("unknown predictor accepted")
	}
	// -predictor without -scenario has nothing to apply to.
	if _, err := selectExperiments("all", "", "kalman"); err == nil {
		t.Fatal("-predictor without -scenario accepted")
	}
}

// TestRunListIncludesPredictors pins the -list predictors section.
func TestRunListIncludesPredictors(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	if !strings.Contains(stdout.String(), "predictors (-predictor):") {
		t.Fatalf("-list missing predictors section: %q", stdout.String())
	}
	for _, k := range []string{"paper", "lms", "ewma", "ar", "kalman", "switching"} {
		if !strings.Contains(stdout.String(), k) {
			t.Errorf("-list output missing predictor %s", k)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-exp", "fig99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "fig99") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

func TestRunBadFlagExitCode(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestRunNegativeCountsAreUsageErrors pins that a negative -seeds or
// -parallel exits 2 with a message instead of running as the default.
func TestRunNegativeCountsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig4", "-quick", "-seeds", "-3"}, "pasbench: -seeds -3 must not be negative\n"},
		{[]string{"-exp", "fig4", "-quick", "-parallel", "-4"}, "pasbench: -parallel -4 must not be negative\n"},
	} {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != 2 || stderr.String() != tc.want || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and %q",
				tc.args, code, stdout.String(), stderr.String(), tc.want)
		}
	}
}

func TestRunHelpExitsZero(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exit code = %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-parallel") {
		t.Errorf("usage missing -parallel: %q", stderr.String())
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr.String())
	}
	for _, id := range []string{"fig4", "ext-plume", "ext-lifetime"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list output missing %s", id)
		}
	}
}

// TestRunListSorted pins that both halves of the listing come out sorted:
// experiments by id, scenarios by name.
func TestRunListSorted(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr.String())
	}
	parts := strings.SplitN(stdout.String(), "scenarios (-scenario):", 2)
	if len(parts) != 2 {
		t.Fatalf("missing scenarios section: %q", stdout.String())
	}
	// The predictors section keeps registry order (paper first) on purpose;
	// only the experiment and scenario listings are sorted.
	parts[1] = strings.SplitN(parts[1], "predictors (-predictor):", 2)[0]
	for half, text := range map[string]string{"experiments": parts[0], "scenarios": parts[1]} {
		var keys []string
		for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
			if fields := strings.Fields(line); len(fields) > 0 {
				keys = append(keys, fields[0])
			}
		}
		if len(keys) < 2 {
			t.Fatalf("%s listing too short: %q", half, text)
		}
		if !sort.StringsAreSorted(keys) {
			t.Errorf("%s listing not sorted: %v", half, keys)
		}
	}
}

func TestRunScenarioSweep(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-scenario", "grid", "-quick", "-seeds", "2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "scenario-grid") {
		t.Errorf("stdout missing sweep id: %q", stdout.String())
	}
	if code := run([]string{"-scenario", "atlantis"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown scenario: exit %d, want 2", code)
	}
}

func TestRunListIncludesScenarios(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	for _, name := range []string{"scale-10k", "poisson", "ext-scale"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s", name)
		}
	}
}

func TestRunTable1WithCSV(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr strings.Builder
	code := run([]string{"-exp", "table1", "-csv", dir, "-parallel", "2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "table1") {
		t.Errorf("stdout missing table1: %q", stdout.String())
	}
	if !strings.Contains(stdout.String(), filepath.Join(dir, "table1.csv")) {
		t.Errorf("stdout missing CSV path: %q", stdout.String())
	}
}

func TestParseFlagsProfilePlumbing(t *testing.T) {
	var stderr strings.Builder
	c, err := parseFlags([]string{"-cpuprofile", "cpu.out", "-memprofile", "mem.out"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if c.cpuProfile != "cpu.out" || c.memProfile != "mem.out" {
		t.Errorf("profile flags = %q, %q", c.cpuProfile, c.memProfile)
	}
}

func TestParseFlagsProfileDefaultsOff(t *testing.T) {
	var stderr strings.Builder
	c, err := parseFlags(nil, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if c.cpuProfile != "" || c.memProfile != "" {
		t.Errorf("profiles default on: %q, %q", c.cpuProfile, c.memProfile)
	}
}

func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var stdout, stderr strings.Builder
	code := run([]string{"-exp", "table1", "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr.String())
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

func TestRunBadMemProfilePathFails(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-exp", "table1", "-memprofile", filepath.Join(t.TempDir(), "no-such-dir", "mem.out")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if stderr.String() == "" {
		t.Error("no error reported for unwritable heap-profile path")
	}
}

func TestRunBadCSVDirFails(t *testing.T) {
	// A csv "directory" that is actually a file makes MkdirAll fail.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	code := run([]string{"-exp", "table1", "-csv", filepath.Join(blocker, "out")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
}

func TestRunBadProfilePathFails(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-exp", "table1", "-cpuprofile", filepath.Join(t.TempDir(), "no-such-dir", "cpu.out")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if stderr.String() == "" {
		t.Error("no error reported for unwritable profile path")
	}
}
