package contour

import (
	"math"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/deploy"
	"repro/internal/diffusion"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/scenario"
)

func TestEstimatorBasics(t *testing.T) {
	var e Estimator
	if e.Count() != 0 {
		t.Error("fresh estimator has detections")
	}
	e.Add(geom.V(0, 0), 1)
	e.Add(geom.V(10, 0), 2)
	e.Add(geom.V(10, 10), 3)
	e.Add(geom.V(0, 10), 4)
	if e.Count() != 4 {
		t.Errorf("Count = %d", e.Count())
	}
	// At t=2 only two detections are known: degenerate hull.
	if hull := e.EstimateHull(2); len(hull) >= 3 {
		t.Errorf("early hull = %v", hull)
	}
	if got := len(e.Detections(2)); got != 2 {
		t.Errorf("Detections(2) = %d", got)
	}
	// At t=4 the full square is known.
	hull := e.EstimateHull(4)
	if len(hull) != 4 {
		t.Fatalf("hull = %v", hull)
	}
	if a := hull.Area(); math.Abs(a-100) > 1e-9 {
		t.Errorf("hull area = %v", a)
	}
	if fe := e.FrontEstimate(4); len(fe) != 4 {
		t.Errorf("front estimate = %v", fe)
	}
}

func TestAreaErrorPerfectEstimate(t *testing.T) {
	// Stimulus covering x<=20 of a 40x40 field; the "estimate" is exactly
	// that half: error ≈ 0.
	stim := diffusion.NewRadialFront(geom.V(-1e6, 20), 1, 0)
	// Radial from far west: covered ≈ half-plane. Build that moment:
	// arrival at x=0 is 1e6; at x=20 it is 1e6+20. Use t so the front is at
	// x=20.
	tt := stim.ArrivalTime(geom.V(20, 20))
	field := geom.R(0, 0, 40, 40)
	est := geom.Polygon{geom.V(0, 0), geom.V(20, 0), geom.V(20, 40), geom.V(0, 40)}
	st := rng.NewSource(1).Stream("mc")
	rep := AreaError(est, stim, field, tt, 20000, st)
	if rep.ErrFrac > 0.03 {
		t.Errorf("perfect estimate err = %v", rep.ErrFrac)
	}
	if math.Abs(rep.TrueArea-800) > 40 {
		t.Errorf("TrueArea = %v, want ~800", rep.TrueArea)
	}
	if !strings.Contains(rep.String(), "err") {
		t.Error("String malformed")
	}
}

func TestAreaErrorEmptyCases(t *testing.T) {
	field := geom.R(0, 0, 10, 10)
	never := diffusion.NewRadialFront(geom.V(-1e9, 5), 0.001, 0)
	st := rng.NewSource(2).Stream("mc")
	// Nothing covered, nothing claimed: zero error.
	rep := AreaError(nil, never, field, 10, 2000, st)
	if rep.ErrFrac != 0 || rep.TrueArea != 0 {
		t.Errorf("empty case = %+v", rep)
	}
	// Nothing covered but estimate claims area: infinite relative error.
	claim := geom.Polygon{geom.V(0, 0), geom.V(5, 0), geom.V(5, 5), geom.V(0, 5)}
	rep = AreaError(claim, never, field, 10, 2000, st)
	if !math.IsInf(rep.ErrFrac, 1) {
		t.Errorf("false-claim ErrFrac = %v", rep.ErrFrac)
	}
}

func TestAreaErrorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero samples did not panic")
		}
	}()
	AreaError(nil, diffusion.NewRadialFront(geom.Zero, 1, 0), geom.R(0, 0, 1, 1), 1, 0, rng.NewSource(1).Stream("x"))
}

func TestEstimatorOnNSNetwork(t *testing.T) {
	// Always-on sensors detect instantly; the hull of detections at time t
	// tracks the true disc closely (bounded by deployment discretization).
	sc := paperScenario(t)
	dep := deploy.Grid(nil, sc.Field, 6, 6, 0)
	nw := node.BuildNetwork(node.NetworkConfig{
		Deployment: dep,
		Stimulus:   sc.Stimulus,
		Profile:    energy.Telos(),
		Loss:       radio.UnitDisk{Range: 10},
		Agents:     func(radio.NodeID) node.Agent { return baseline.NewNS() },
	})
	var est Estimator
	est.Attach(nw.Nodes)
	nw.Run(sc.Horizon)
	if est.Count() == 0 {
		t.Fatal("no detections recorded")
	}
	st := rng.NewSource(3).Stream("mc")
	// The front reaches the farthest corner at t≈99; sample while partial.
	reports := Timeline(&est, sc.Stimulus, sc.Field, []float64{80, 40, 60}, 8000, st)
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	// Timeline sorts times ascending; true area grows along it.
	if !(reports[0].TrueArea < reports[1].TrueArea && reports[1].TrueArea < reports[2].TrueArea) {
		t.Errorf("true areas not growing: %v %v %v",
			reports[0].TrueArea, reports[1].TrueArea, reports[2].TrueArea)
	}
	// With a 6x6 grid (6.7 m pitch) the NS estimate should capture the bulk
	// of the covered area once the front is deep into the field.
	last := reports[len(reports)-1]
	if last.ErrFrac > 0.5 {
		t.Errorf("NS hull error %v at t=80, want < 0.5", last.ErrFrac)
	}
	// Estimated area must not exceed true area grossly (hull of inside
	// points is inscribed for a convex front).
	if last.EstArea > last.TrueArea*1.1 {
		t.Errorf("estimate %v overshoots truth %v", last.EstArea, last.TrueArea)
	}
}

func TestHullErrorShrinksWithDensity(t *testing.T) {
	sc := paperScenario(t)
	errAt := func(nx int) float64 {
		dep := deploy.Grid(nil, sc.Field, nx, nx, 0)
		nw := node.BuildNetwork(node.NetworkConfig{
			Deployment: dep,
			Stimulus:   sc.Stimulus,
			Profile:    energy.Telos(),
			Loss:       radio.UnitDisk{Range: 12},
			Agents:     func(radio.NodeID) node.Agent { return baseline.NewNS() },
		})
		var est Estimator
		est.Attach(nw.Nodes)
		nw.Run(sc.Horizon)
		st := rng.NewSource(4).Stream("mc")
		return AreaError(est.EstimateHull(120), sc.Stimulus, sc.Field, 120, 8000, st).ErrFrac
	}
	sparse := errAt(4)
	dense := errAt(9)
	if dense >= sparse {
		t.Errorf("hull error did not shrink with density: %v (4x4) vs %v (9x9)", sparse, dense)
	}
}

// paperScenario builds the registry's paper workload (Figs. 4-7).
func paperScenario(t *testing.T) diffusion.Scenario {
	t.Helper()
	sp, _ := scenario.Lookup("paper")
	sc, err := sp.BuildStimulus(1)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}
