package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.625, 3.5}, {1, 5},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %g, want 7", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of no values = %g, want NaN", got)
	}
	var many []float64
	for i := 1; i <= 1000; i++ {
		many = append(many, float64(i))
	}
	if got := p99(many); math.Abs(got-990.01) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %g, want 990.01", got)
	}
}

func TestReferencePassRepeats(t *testing.T) {
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ref.sample(); err != nil {
			t.Fatal(err)
		}
	}
	if len(ref.ms) != 3 {
		t.Fatalf("%d samples recorded, want 3", len(ref.ms))
	}
	if got, want := ref.scale(), refUnitMs/median(ref.ms); got != want {
		t.Errorf("scale = %g, want %g", got, want)
	}
	ref.state[0] = 1 // a pass starts from a cleared table
	if err := ref.sample(); err != nil {
		t.Error(err)
	}
	ref.sum++
	if ref.sample() == nil {
		t.Error("a pass with a different checksum was accepted")
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "sweep", Parent: -1, Start: 0, End: 100},
		{Name: "job", Parent: 0, Start: 10, End: 50},
		{Name: "job", Parent: 0, Start: 30, End: 70},  // overlaps the first job
		{Name: "job", Parent: 0, Start: 90, End: 120}, // runs past the parent
		{Name: "run", Parent: 1, Start: 20, End: 40},
	}
	// The jobs cover [10,70] and [90,100] of the sweep: 70 of its 100.
	want := []int64{30, 20, 40, 30, 20}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	// Descendants' self times: 20+40+30+20 = 110 over a 100-long root,
	// which parallel jobs may exceed.
	if c := coverage(spans, 0); math.Abs(c-1.1) > 1e-12 {
		t.Errorf("coverage = %g, want 1.1", c)
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("run", 7, -1)
	child := rec.timed("node.run", 7, root, func() {})
	rec.end(root)
	spans := rec.snapshot()
	if len(spans) != 2 || spans[child].Parent != root || spans[child].Trace != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if s := spans[root]; s.End < s.Start || spans[child].Start < s.Start || spans[child].End > s.End {
		t.Errorf("child %+v not inside root %+v", spans[child], s)
	}
	if childDur(spans, root, "node.run") != spans[child].dur() || childDur(spans, child, "node.run") != 0 {
		t.Error("childDur misreports the parent relation")
	}
	if got := durations(spans, "node.run"); len(got) != 1 || got[0] < 0 {
		t.Errorf("durations = %v", got)
	}
}

func TestScheduleReproducible(t *testing.T) {
	hot := seedBlock(100, hotKeys)
	a := schedule(42, 20000, hot, 1000)
	b := schedule(42, 20000, hot, 1000)
	if len(a) != len(b) {
		t.Fatalf("lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between two schedules of one seed: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := schedule(43, 20000, hot, 1000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 42 and 43 give the same schedule")
	}
	count := map[int]int{}
	isHot := map[int64]bool{}
	for _, s := range hot {
		isHot[s] = true
	}
	seen := map[int64]bool{}
	for _, q := range a {
		count[q.kind]++
		if q.kind == kindHit {
			if !isHot[q.seed] {
				t.Fatalf("hit on seed %d outside the hot set", q.seed)
			}
			continue
		}
		if isHot[q.seed] || seen[q.seed] {
			t.Fatalf("cold request reuses seed %d", q.seed)
		}
		seen[q.seed] = true
	}
	for kind, pct := range map[int]float64{kindHit: hitPct, kindMiss: missPct, kindJob: 100 - hitPct - missPct} {
		if got := 100 * float64(count[kind]) / float64(len(a)); math.Abs(got-pct) > 1.5 {
			t.Errorf("%s share %.1f%%, want about %g%%", kindNames[kind], got, pct)
		}
	}
}

func TestSeedBase(t *testing.T) {
	if seedBase(1) != seedBase(1) {
		t.Fatal("seedBase is not a function of the seed")
	}
	seen := map[int64]bool{}
	for s := int64(-5); s < 100; s++ {
		b := seedBase(s)
		if b < 0 || b >= 1<<40 || seen[b] {
			t.Fatalf("seedBase(%d) = %d: out of range or repeated", s, b)
		}
		seen[b] = true
	}
}

// benchmarkJSON is the part of BENCHMARK.json the catalog must match.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	check := func(kind string, defs []metricDef, got []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || used[d.name] {
				t.Errorf("%s: invalid or repeated metric %q (%q)", kind, d.name, d.unit)
			}
			used[d.name] = true
			if i < len(got) && got[i] != d {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the catalog %+v", kind, i, got[i], d)
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: BENCHMARK.json has %q (why %d chars), the program %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
}

func TestBadFlagsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "scale10k", "-trace", "2"},
		{"-workload", "scale10k", "-seconds", "0"},
		{"-bogus"},
	} {
		var out, errb bytes.Buffer
		if code := benchMain(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
