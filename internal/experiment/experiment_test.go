package experiment

import (
	"strings"
	"testing"

	"repro/internal/radio"
	"repro/internal/stats"
)

func TestRunOnceDefaults(t *testing.T) {
	rep, err := RunOnce(RunConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Nodes) != 30 {
		t.Fatalf("nodes = %d", len(rep.Nodes))
	}
	if rep.Detected == 0 {
		t.Fatal("nothing detected")
	}
	if rep.AvgEnergyJ <= 0 {
		t.Error("no energy accounted")
	}
}

func TestRunOnceUnknownProtocol(t *testing.T) {
	if _, err := RunOnce(RunConfig{Protocol: "bogus", Seed: 1}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunOnceDeterministic(t *testing.T) {
	a, err := RunOnce(RunConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnce(RunConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgDelay != b.AvgDelay || a.AvgEnergyJ != b.AvgEnergyJ || a.Messages != b.Messages {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
	c, err := RunOnce(RunConfig{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgDelay == c.AvgDelay && a.Messages == c.Messages {
		t.Error("different seeds produced identical runs")
	}
}

func TestRunOnceProtocols(t *testing.T) {
	for _, proto := range []string{ProtoPAS, ProtoSAS, ProtoNS, ProtoDuty} {
		rep, err := RunOnce(RunConfig{Protocol: proto, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if rep.Detected == 0 {
			t.Errorf("%s: nothing detected", proto)
		}
	}
}

func TestFailureInjection(t *testing.T) {
	rep, err := RunOnce(RunConfig{Seed: 3, FailFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, n := range rep.Nodes {
		if n.Failed {
			failed++
		}
	}
	if failed != 15 {
		t.Errorf("failed = %d, want 15", failed)
	}
}

func TestReplicate(t *testing.T) {
	agg, err := Replicate(RunConfig{}, DefaultSeeds(3))
	if err != nil {
		t.Fatal(err)
	}
	if agg.N() != 3 {
		t.Errorf("N = %d", agg.N())
	}
	if agg.Energy.Mean() <= 0 {
		t.Error("no energy")
	}
}

func TestDefaultSeeds(t *testing.T) {
	s := DefaultSeeds(4)
	if len(s) != 4 || s[0] != 1 || s[3] != 4 {
		t.Errorf("seeds = %v", s)
	}
}

func TestLookupAndAll(t *testing.T) {
	all := All()
	if len(all) != 19 {
		t.Fatalf("registry has %d experiments", len(all))
	}
	ids := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("malformed experiment %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "fig4", "fig5", "fig6", "fig7"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("missing experiment %s", want)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus lookup succeeded")
	}
}

func TestTable1(t *testing.T) {
	res, err := Table1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"active power", "15", "38", "35", "250", "41"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

// quickOpts runs experiments at reduced scale for shape tests.
func quickOpts() Options { return Options{Quick: true, Seeds: DefaultSeeds(4)} }

func TestFig4Shape(t *testing.T) {
	res, err := Fig4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	ns, _ := res.Curve("NS")
	pas, _ := res.Curve("PAS")
	sasC, _ := res.Curve("SAS")
	if len(pas.Points) == 0 || len(sasC.Points) == 0 {
		t.Fatal("missing curves")
	}
	// NS delay is identically zero.
	for _, p := range ns.Points {
		if p.Y != 0 {
			t.Errorf("NS delay at %v = %v", p.X, p.Y)
		}
	}
	// PAS and SAS delays grow with the sleep cap.
	if pas.Points[len(pas.Points)-1].Y <= pas.Points[0].Y {
		t.Errorf("PAS delay not growing: %v", pas.Ys())
	}
	if sasC.Points[len(sasC.Points)-1].Y <= sasC.Points[0].Y {
		t.Errorf("SAS delay not growing: %v", sasC.Ys())
	}
	// PAS at the large-cap end stays below SAS (the paper's comparison).
	if pas.Points[len(pas.Points)-1].Y >= sasC.Points[len(sasC.Points)-1].Y {
		t.Errorf("PAS delay %v not below SAS %v at max sleep",
			pas.Points[len(pas.Points)-1].Y, sasC.Points[len(sasC.Points)-1].Y)
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	ns, _ := res.Curve("NS")
	pas, _ := res.Curve("PAS")
	sasC, _ := res.Curve("SAS")
	// NS consumes the most at every point.
	for i := range ns.Points {
		if ns.Points[i].Y <= pas.Points[i].Y || ns.Points[i].Y <= sasC.Points[i].Y {
			t.Errorf("NS energy not maximal at x=%v", ns.Points[i].X)
		}
	}
	// Energy falls (or at worst stagnates) as the sleep cap grows.
	if pas.Points[len(pas.Points)-1].Y > pas.Points[0].Y {
		t.Errorf("PAS energy grew with sleep cap: %v", pas.Ys())
	}
	// PAS pays at most a small premium over SAS ("the difference is
	// trivial" — allow 25%).
	for i := range pas.Points {
		if pas.Points[i].Y > sasC.Points[i].Y*1.25 {
			t.Errorf("PAS energy %v far above SAS %v at x=%v",
				pas.Points[i].Y, sasC.Points[i].Y, pas.Points[i].X)
		}
	}
}

func TestFig5And7Shape(t *testing.T) {
	// Shared sweep: delay should trend down with the threshold, energy up.
	o := Options{Seeds: DefaultSeeds(6), Quick: true}
	res5, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	res7, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := res5.Curve("PAS")
	e, _ := res7.Curve("PAS")
	if len(d.Points) < 2 || len(e.Points) < 2 {
		t.Fatal("missing sweep points")
	}
	if d.Points[len(d.Points)-1].Y > d.Points[0].Y {
		t.Errorf("delay grew with alert time: %v", d.Ys())
	}
	if e.Points[len(e.Points)-1].Y < e.Points[0].Y {
		t.Errorf("energy fell with alert time: %v", e.Ys())
	}
}

func TestExtDegenerateShape(t *testing.T) {
	res, err := ExtDegenerate(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	tiny, _ := res.Curve("PAS (T→0)")
	sasC, _ := res.Curve("SAS")
	def, _ := res.Curve("PAS (default)")
	// At the largest sleep cap, default PAS beats the degenerate variant,
	// and the degenerate variant is close to SAS (within 30% or 1s).
	last := len(tiny.Points) - 1
	if def.Points[last].Y >= tiny.Points[last].Y {
		t.Errorf("default PAS (%v) not better than degenerate (%v)",
			def.Points[last].Y, tiny.Points[last].Y)
	}
	gap := tiny.Points[last].Y - sasC.Points[last].Y
	if gap < 0 {
		gap = -gap
	}
	if gap > 1+0.3*sasC.Points[last].Y {
		t.Errorf("degenerate PAS %v not close to SAS %v",
			tiny.Points[last].Y, sasC.Points[last].Y)
	}
}

func TestExtFailuresRuns(t *testing.T) {
	res, err := ExtFailures(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	pas, ok := res.Curve("pas")
	if !ok || len(pas.Points) < 2 {
		t.Fatal("missing pas curve")
	}
	// Delay at 30% failures should not be *lower* than the healthy network
	// by a wide margin (failures remove information sources).
	if pas.Points[len(pas.Points)-1].Y < pas.Points[0].Y*0.5 {
		t.Errorf("failures implausibly improved delay: %v", pas.Ys())
	}
}

func TestExtLossyRuns(t *testing.T) {
	res, err := ExtLossy(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	pas, ok := res.Curve("pas")
	if !ok {
		t.Fatal("missing pas curve")
	}
	for _, p := range pas.Points {
		if p.Y < 0 {
			t.Errorf("negative delay at loss %v", p.X)
		}
	}
}

func TestExtEstimatorRuns(t *testing.T) {
	res, err := ExtEstimator(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 3 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
}

func TestExtPlumeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("PDE build is slow")
	}
	res, err := ExtPlume(Options{Quick: true, Seeds: DefaultSeeds(2)})
	if err != nil {
		t.Fatal(err)
	}
	ns, ok := res.Curve("ns")
	if !ok {
		t.Fatal("missing ns curve")
	}
	for _, p := range ns.Points {
		if p.Y != 0 {
			t.Errorf("NS delay on plume = %v at x=%v", p.Y, p.X)
		}
	}
	pasC, _ := res.Curve("pas")
	for _, p := range pasC.Points {
		if p.Y < 0 {
			t.Errorf("negative PAS delay %v", p.Y)
		}
	}
}

func TestExtDensityShape(t *testing.T) {
	res, err := ExtDensity(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	d, ok := res.Curve("PAS delay")
	if !ok || len(d.Points) < 2 {
		t.Fatal("missing density curve")
	}
	// Density should help (or at least not catastrophically hurt) delay:
	// use rank correlation to assert a non-increasing trend tendency.
	rho := stats.SpearmanRank(d.Xs(), d.Ys())
	if rho > 0.9 {
		t.Errorf("delay strongly increases with density (rho=%v): %v", rho, d.Ys())
	}
}

func TestExtLifetimeShape(t *testing.T) {
	res, err := ExtLifetime(Options{Quick: true, Seeds: DefaultSeeds(3)})
	if err != nil {
		t.Fatal(err)
	}
	ns, _ := res.Curve(ProtoNS)
	pasC, _ := res.Curve(ProtoPAS)
	sasC, _ := res.Curve(ProtoSAS)
	if len(ns.Points) == 0 || len(pasC.Points) == 0 {
		t.Fatal("missing curves")
	}
	// NS first death is deterministic: battery / 41 mW.
	wantNS := 0.8 / 0.041
	for _, p := range ns.Points {
		if p.Y < wantNS-1e-6 || p.Y > wantNS+1e-6 {
			t.Errorf("NS first death = %v, want %v", p.Y, wantNS)
		}
	}
	// Adaptive sleeping extends lifetime several-fold at every sweep point.
	for i := range pasC.Points {
		if pasC.Points[i].Y < 3*wantNS {
			t.Errorf("PAS first death %v not ≫ NS %v", pasC.Points[i].Y, wantNS)
		}
		if sasC.Points[i].Y < 3*wantNS {
			t.Errorf("SAS first death %v not ≫ NS %v", sasC.Points[i].Y, wantNS)
		}
	}
	// Longer naps extend lifetime.
	if pasC.Points[len(pasC.Points)-1].Y <= pasC.Points[0].Y {
		t.Errorf("PAS lifetime not growing with sleep cap: %v", pasC.Ys())
	}
}

func TestExtCollisionsRuns(t *testing.T) {
	res, err := ExtCollisions(Options{Quick: true, Seeds: DefaultSeeds(3)})
	if err != nil {
		t.Fatal(err)
	}
	ideal, ok1 := res.Curve("pas (no collisions)")
	coll, ok2 := res.Curve("pas (collisions)")
	if !ok1 || !ok2 {
		t.Fatal("missing curves")
	}
	for i := range ideal.Points {
		if coll.Points[i].Y < 0 || ideal.Points[i].Y < 0 {
			t.Error("negative delay")
		}
	}
}

func TestBatteryRunConfig(t *testing.T) {
	rc := RunConfig{Seed: 1, BatteryJ: 0.5}
	rc.Scenario = registryScenario("quiet")
	rep, err := RunOnce(rc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatteryDeaths == 0 {
		t.Error("no battery deaths with a tiny budget")
	}
	if rep.FirstDeath <= 0 || rep.FirstDeath > rc.Scenario.Horizon {
		t.Errorf("FirstDeath = %v", rep.FirstDeath)
	}
}

func TestExtContourShape(t *testing.T) {
	res, err := ExtContour(Options{Quick: true, Seeds: DefaultSeeds(3)})
	if err != nil {
		t.Fatal(err)
	}
	ns, _ := res.Curve(ProtoNS)
	pasC, _ := res.Curve(ProtoPAS)
	if len(ns.Points) == 0 || len(pasC.Points) == 0 {
		t.Fatal("missing curves")
	}
	for i := range ns.Points {
		// NS is the deployment-limited optimum: adaptive protocols cannot
		// beat it by more than Monte-Carlo noise.
		if pasC.Points[i].Y < ns.Points[i].Y-0.1 {
			t.Errorf("PAS area error %v below NS optimum %v at t=%v",
				pasC.Points[i].Y, ns.Points[i].Y, ns.Points[i].X)
		}
		// And sleeping must not destroy monitoring: within 3x of optimal
		// while the front crosses.
		if ns.Points[i].Y > 0 && pasC.Points[i].Y > 3*ns.Points[i].Y+0.3 {
			t.Errorf("PAS area error %v far above NS %v at t=%v",
				pasC.Points[i].Y, ns.Points[i].Y, ns.Points[i].X)
		}
	}
}

func TestExtTerrainRuns(t *testing.T) {
	res, err := ExtTerrain(Options{Quick: true, Seeds: DefaultSeeds(2)})
	if err != nil {
		t.Fatal(err)
	}
	ns, ok := res.Curve(ProtoNS)
	if !ok {
		t.Fatal("missing ns curve")
	}
	for _, p := range ns.Points {
		if p.Y != 0 {
			t.Errorf("NS delay on terrain = %v", p.Y)
		}
	}
	pasC, _ := res.Curve(ProtoPAS)
	for _, p := range pasC.Points {
		if p.Y < 0 {
			t.Errorf("negative delay %v", p.Y)
		}
	}
}

func TestRenderAndCSV(t *testing.T) {
	res := Result{
		ID: "test", Title: "t", XLabel: "x", YLabel: "y",
		Curves: []Curve{
			{Name: "a", Points: []Point{{X: 1, Y: 2, CI: 0.1}, {X: 2, Y: 3, CI: 0.2}}},
			{Name: "b", Points: []Point{{X: 1, Y: 5, CI: 0.3}}},
		},
		Notes: []string{"hello"},
	}
	out := res.Render()
	if !strings.Contains(out, "test") || !strings.Contains(out, "note: hello") {
		t.Errorf("render = %q", out)
	}
	csv := res.CSV()
	if !strings.Contains(csv, "test,a,1,2,0.1") {
		t.Errorf("csv = %q", csv)
	}
	if got := strings.Count(csv, "\n"); got != 4 { // header + 3 points
		t.Errorf("csv lines = %d", got)
	}
	// Curves accessor.
	if _, ok := res.Curve("b"); !ok {
		t.Error("curve b missing")
	}
	if _, ok := res.Curve("zz"); ok {
		t.Error("phantom curve found")
	}
	_ = radio.UnitDisk{}
}

func TestRenderHelper(t *testing.T) {
	out, err := Render("table1", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Telos") {
		t.Errorf("render = %q", out)
	}
	if _, err := Render("bogus", Options{}); err == nil {
		t.Error("bogus id accepted")
	}
}
