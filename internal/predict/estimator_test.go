package predict

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/radio"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func coveredReport(id radio.NodeID, pos geom.Vec2, detectedAt float64, vel geom.Vec2, hasVel bool) Report {
	return Report{
		ID: id, Pos: pos, State: node.StateCovered,
		Velocity: vel, HasVelocity: hasVel, HasDirection: hasVel,
		PredictedArrival: detectedAt, DetectedAt: detectedAt, Detected: true,
	}
}

func TestActualVelocityLinearFront(t *testing.T) {
	// Front moving +x at 2 m/s: I at origin detected t=0, X at (6,0)
	// detected t=3. v = (X-I)/3 = (2,0).
	reports := []Report{coveredReport(1, geom.Zero, 0, geom.Zero, false)}
	v, ok := ActualVelocity(geom.V(6, 0), 3, reports, 1)
	if !ok {
		t.Fatal("no velocity computed")
	}
	if !v.ApproxEqual(geom.V(2, 0), 1e-12) {
		t.Errorf("v = %v, want (2,0)", v)
	}
}

func TestActualVelocityAveragesNeighbors(t *testing.T) {
	// Two covered neighbours, both consistent with a +x front at 1 m/s.
	reports := []Report{
		coveredReport(1, geom.V(0, 0), 0, geom.Zero, false), // I→X = (4,0), dt=4 → (1,0)
		coveredReport(2, geom.V(2, 0), 2, geom.Zero, false), // I→X = (2,0), dt=2 → (1,0)
	}
	v, ok := ActualVelocity(geom.V(4, 0), 4, reports, 1)
	if !ok || !v.ApproxEqual(geom.V(1, 0), 1e-12) {
		t.Errorf("v = %v,%v", v, ok)
	}
}

func TestActualVelocitySkipsInvalid(t *testing.T) {
	reports := []Report{
		// Not detected.
		{ID: 1, Pos: geom.V(1, 0), State: node.StateAlert, Detected: false},
		// Detected simultaneously (dt = 0).
		coveredReport(2, geom.V(2, 0), 5, geom.Zero, false),
		// Detected later (dt < 0).
		coveredReport(3, geom.V(3, 0), 9, geom.Zero, false),
	}
	if _, ok := ActualVelocity(geom.V(10, 0), 5, reports, 1); ok {
		t.Error("velocity computed from invalid reports")
	}
}

func TestExpectedVelocity(t *testing.T) {
	reports := []Report{
		{ID: 1, State: node.StateCovered, Velocity: geom.V(2, 0), HasVelocity: true, HasDirection: true},
		{ID: 2, State: node.StateAlert, Velocity: geom.V(0, 2), HasVelocity: true, HasDirection: true},
		{ID: 3, State: node.StateSafe, Velocity: geom.V(9, 9), HasVelocity: true, HasDirection: true}, // safe: skipped
		{ID: 4, State: node.StateCovered, Velocity: geom.V(9, 9), HasVelocity: false},                 // no velocity
		{ID: 5, State: node.StateCovered, Velocity: geom.V(9, 9), HasVelocity: true},                  // speed-only: no heading to average
	}
	v, ok := ExpectedVelocity(reports)
	if !ok || !v.ApproxEqual(geom.V(1, 1), 1e-12) {
		t.Errorf("v = %v,%v want (1,1)", v, ok)
	}
	if _, ok := ExpectedVelocity(nil); ok {
		t.Error("velocity from no reports")
	}
}

func TestArrivalETACoveredNeighbor(t *testing.T) {
	// Covered neighbour at origin with velocity (1,0), detected at t=10.
	// X at (5,0): raw travel 5 s from the neighbour's position.
	r := coveredReport(1, geom.Zero, 10, geom.V(1, 0), true)
	// At now=10: eta = 5. At now=12: eta = 3. At now=20: clamped to 0.
	if eta := ArrivalETA(geom.V(5, 0), 10, r); !almost(eta, 5, 1e-12) {
		t.Errorf("eta@10 = %v", eta)
	}
	if eta := ArrivalETA(geom.V(5, 0), 12, r); !almost(eta, 3, 1e-12) {
		t.Errorf("eta@12 = %v", eta)
	}
	if eta := ArrivalETA(geom.V(5, 0), 20, r); eta != 0 {
		t.Errorf("eta@20 = %v", eta)
	}
}

func TestArrivalETACosineProjection(t *testing.T) {
	// Velocity (1,0); X at 45° has cos θ = √2/2, so travel = |IX|·cos/1.
	r := coveredReport(1, geom.Zero, 0, geom.V(1, 0), true)
	x := geom.V(3, 3)
	want := x.Norm() * math.Sqrt2 / 2
	if eta := ArrivalETA(x, 0, r); !almost(eta, want, 1e-9) {
		t.Errorf("eta = %v, want %v", eta, want)
	}
	// Perpendicular: cos = 0 → never.
	if eta := ArrivalETA(geom.V(0, 5), 0, r); !math.IsInf(eta, 1) {
		t.Errorf("perpendicular eta = %v", eta)
	}
	// Behind the front: cos < 0 → never.
	if eta := ArrivalETA(geom.V(-5, 0), 0, r); !math.IsInf(eta, 1) {
		t.Errorf("behind eta = %v", eta)
	}
}

func TestArrivalETAAlertNeighbor(t *testing.T) {
	// Alert neighbour predicts its own arrival at t=30; X is 4 m farther
	// along the velocity direction at 2 m/s → +2 s.
	r := Report{
		ID: 1, Pos: geom.Zero, State: node.StateAlert,
		Velocity: geom.V(2, 0), HasVelocity: true, HasDirection: true,
		PredictedArrival: 30,
	}
	if eta := ArrivalETA(geom.V(4, 0), 20, r); !almost(eta, 12, 1e-12) {
		t.Errorf("eta = %v, want 12 (30-20+2)", eta)
	}
	// Alert neighbour without a prediction is unusable.
	r.PredictedArrival = math.Inf(1)
	if eta := ArrivalETA(geom.V(4, 0), 20, r); !math.IsInf(eta, 1) {
		t.Errorf("eta = %v, want +Inf", eta)
	}
}

func TestArrivalETANoVelocity(t *testing.T) {
	r := coveredReport(1, geom.Zero, 0, geom.Zero, false)
	if eta := ArrivalETA(geom.V(1, 0), 0, r); !math.IsInf(eta, 1) {
		t.Errorf("eta without velocity = %v", eta)
	}
	// Zero-magnitude velocity likewise.
	r.HasVelocity = true
	if eta := ArrivalETA(geom.V(1, 0), 0, r); !math.IsInf(eta, 1) {
		t.Errorf("eta with zero velocity = %v", eta)
	}
}

func TestArrivalETAColocated(t *testing.T) {
	// Co-located with a covered neighbour: due at the neighbour's own time.
	r := coveredReport(1, geom.V(2, 2), 10, geom.V(1, 0), true)
	if eta := ArrivalETA(geom.V(2, 2), 10, r); eta != 0 {
		t.Errorf("colocated eta = %v", eta)
	}
}

func TestMinETA(t *testing.T) {
	reports := []Report{
		coveredReport(1, geom.Zero, 0, geom.V(1, 0), true),    // X at (4,0): eta 4
		coveredReport(2, geom.V(1, 0), 0, geom.V(1, 0), true), // eta 3
		{ID: 3, Pos: geom.V(2, 0), State: node.StateAlert},    // no velocity: skipped
	}
	got := MinETA(geom.V(4, 0), 0, reports, 0)
	if !almost(got, 3, 1e-12) {
		t.Errorf("MinETA = %v, want 3", got)
	}
	if got := MinETA(geom.V(4, 0), 0, nil, 0); !math.IsInf(got, 1) {
		t.Errorf("empty MinETA = %v", got)
	}
}

func TestMinETAAging(t *testing.T) {
	old := coveredReport(1, geom.Zero, 0, geom.V(1, 0), true)
	old.ReceivedAt = 0
	fresh := coveredReport(2, geom.V(1, 0), 50, geom.V(1, 0), true)
	fresh.ReceivedAt = 50
	reports := []Report{old, fresh}
	// At now=60 with maxAge 20, only the fresh report counts:
	// eta = dist((4,0),(1,0))/1 - (60-50) = 3 - 10 → clamped 0.
	got := MinETA(geom.V(4, 0), 60, reports, 20)
	if got != 0 {
		t.Errorf("aged MinETA = %v", got)
	}
	// With aging disabled the old report is admissible too (also 0 here,
	// but it must not be skipped when fresh reports are absent).
	got = MinETA(geom.V(100, 0), 60, []Report{old}, 0)
	if math.IsInf(got, 1) {
		t.Error("aging-disabled report was skipped")
	}
}

func TestMeanETA(t *testing.T) {
	reports := []Report{
		coveredReport(1, geom.Zero, 0, geom.V(1, 0), true),    // eta 4
		coveredReport(2, geom.V(2, 0), 0, geom.V(1, 0), true), // eta 2
	}
	got := MeanETA(geom.V(4, 0), 0, reports, 0)
	if !almost(got, 3, 1e-12) {
		t.Errorf("MeanETA = %v, want 3", got)
	}
	if got := MeanETA(geom.V(4, 0), 0, nil, 0); !math.IsInf(got, 1) {
		t.Errorf("empty MeanETA = %v", got)
	}
}

func TestScalarVelocity(t *testing.T) {
	if v := SpeedOnly(3); v.Norm() != 3 {
		t.Errorf("ScalarVelocity norm = %v", v.Norm())
	}
}

func TestArrivalETASpeedOnly(t *testing.T) {
	// A speed-only report (HasDirection unset, as SAS sends) has no heading
	// to project on: the estimate is straight-line distance over speed,
	// wherever the target sits relative to the placeholder +x direction.
	r := coveredReport(1, geom.Zero, 10, SpeedOnly(2), true)
	r.HasDirection = false
	if eta := ArrivalETA(geom.V(0, 6), 10, r); !almost(eta, 3, 1e-12) {
		t.Errorf("perpendicular speed-only eta = %v, want 3", eta)
	}
	if eta := ArrivalETA(geom.V(-6, 0), 10, r); !almost(eta, 3, 1e-12) {
		t.Errorf("behind speed-only eta = %v, want 3", eta)
	}
	// The same geometry with a directed report refuses both targets.
	r.HasDirection = true
	if eta := ArrivalETA(geom.V(0, 6), 10, r); !math.IsInf(eta, 1) {
		t.Errorf("perpendicular directed eta = %v, want +Inf", eta)
	}
}

func TestQuickETANonNegative(t *testing.T) {
	f := func(px, py, vx, vy, det, now float64) bool {
		clean := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 1
			}
			return math.Mod(x, 1e3)
		}
		r := coveredReport(1, geom.V(clean(px), clean(py)), clean(det),
			geom.V(clean(vx), clean(vy)), true)
		eta := ArrivalETA(geom.V(clean(px)+1, clean(py)-2), clean(now), r)
		return eta >= 0 || math.IsInf(eta, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickActualVelocityRecoversPlanarFront(t *testing.T) {
	// For a planar front moving at +x with speed v, any covered neighbour
	// placed directly behind X on the x-axis yields exactly (v, 0).
	f := func(rawV, rawD float64) bool {
		v := math.Abs(math.Mod(rawV, 10)) + 0.1
		d := math.Abs(math.Mod(rawD, 50)) + 0.1
		reports := []Report{coveredReport(1, geom.Zero, 0, geom.Zero, false)}
		got, ok := ActualVelocity(geom.V(d, 0), d/v, reports, 0)
		return ok && got.ApproxEqual(geom.V(v, 0), 1e-6*(1+v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickActualVelocityTranslationInvariant(t *testing.T) {
	// Translating all positions by the same offset leaves the velocity
	// estimate unchanged.
	f := func(ox, oy, px, py, d float64) bool {
		clean := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 1
			}
			return math.Mod(x, 100)
		}
		off := geom.V(clean(ox), clean(oy))
		p := geom.V(clean(px), clean(py))
		x := p.Add(geom.V(math.Abs(clean(d))+1, 0))
		mk := func(shift geom.Vec2) (geom.Vec2, bool) {
			reports := []Report{coveredReport(1, p.Add(shift), 0, geom.Zero, false)}
			return ActualVelocity(x.Add(shift), 5, reports, 1)
		}
		v0, ok0 := mk(geom.Zero)
		v1, ok1 := mk(off)
		return ok0 == ok1 && v0.ApproxEqual(v1, 1e-9*(1+v0.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMinETALowerBoundsMean(t *testing.T) {
	// The minimum aggregation can never exceed the mean over the same
	// (finite) per-neighbour estimates.
	f := func(raw [6]float64) bool {
		clean := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 1
			}
			return math.Mod(x, 50)
		}
		reports := []Report{
			coveredReport(1, geom.V(clean(raw[0]), clean(raw[1])), 0, geom.V(1, 0), true),
			coveredReport(2, geom.V(clean(raw[2]), clean(raw[3])), 2, geom.V(0.5, 0.5), true),
		}
		x := geom.V(clean(raw[4])+60, clean(raw[5]))
		minV := MinETA(x, 5, reports, 0)
		meanV := MeanETA(x, 5, reports, 0)
		if math.IsInf(meanV, 1) {
			return true // no finite estimates: nothing to compare
		}
		return minV <= meanV+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// arrivalETAReference is ArrivalETA as it read when it took cos θ from
// geom.Vec2.CosBetween: four math.Hypot calls per report, two of them
// repeats of |v_I| and |I→X| inside the cosine.
func arrivalETAReference(x geom.Vec2, now float64, r Report) float64 {
	if !r.HasVelocity {
		return math.Inf(1)
	}
	speed := r.Velocity.Norm()
	if speed <= 0 {
		return math.Inf(1)
	}
	ix := x.Sub(r.Pos)
	dist := ix.Norm()
	var travel float64
	if r.HasDirection {
		cos := cosBetweenReference(r.Velocity, ix)
		if dist > 0 && cos <= 0 {
			return math.Inf(1)
		}
		travel = dist * cos / speed
	} else {
		travel = dist / speed
	}
	var ref float64
	switch {
	case r.Detected:
		ref = r.DetectedAt
	case !math.IsInf(r.PredictedArrival, 1) && !math.IsNaN(r.PredictedArrival):
		ref = r.PredictedArrival
	default:
		return math.Inf(1)
	}
	eta := ref - now + travel
	if eta < 0 {
		return 0
	}
	return eta
}

// cosBetweenReference is the deleted geom.Vec2.CosBetween: cos of the
// included angle, clamped to [-1, 1], and 0 when either vector is zero.
func cosBetweenReference(v, w geom.Vec2) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	c := v.Dot(w) / (nv * nw)
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// FuzzArrivalETAMatchesReference holds ArrivalETA, which takes each norm
// once, to the four-Hypot formula bit for bit.
func FuzzArrivalETAMatchesReference(f *testing.F) {
	// x, pos, velocity, now, detectedAt, predictedArrival, flags (bit 0
	// HasVelocity, bit 1 HasDirection, bit 2 Detected).
	f.Add(10.0, 0.0, 0.0, 0.0, 1.0, 0.0, 5.0, 2.0, 0.0, uint8(7))                // covered, straight ahead
	f.Add(3.0, 4.0, 3.0, 4.0, 0.5, 0.5, 1.0, 0.0, 0.0, uint8(7))                 // zero distance
	f.Add(18.0, 28.200000000000003, 0.0, 0.0, 6.0, 9.4, 0.0, 0.0, 0.0, uint8(7)) // cosine rounds above 1
	f.Add(-33.6, -55.2, 0.0, 0.0, 4.2, 6.9, 0.0, 0.0, 0.0, uint8(7))             // cosine rounds below -1
	f.Add(0.0, 10.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, uint8(7))                // perpendicular
	f.Add(20.0, 5.0, 1.0, 2.0, 0.3, 0.0, 4.0, 0.0, 9.0, uint8(1))                // speed only, alert
	f.Add(20.0, 5.0, 1.0, 2.0, 0.3, 0.0, 4.0, 0.0, math.Inf(1), uint8(3))        // no reference time
	f.Add(20.0, 5.0, 1.0, 2.0, 0.0, 0.0, 4.0, 0.0, 9.0, uint8(3))                // zero speed
	f.Add(20.0, 5.0, 1.0, 2.0, 1.0, 1.0, 4.0, 0.0, 9.0, uint8(0))                // no velocity
	f.Add(1e308, 1e308, -1e308, -1e308, 1e308, 1e308, 0.0, 0.0, 0.0, uint8(7))   // overflow
	f.Fuzz(func(t *testing.T, xx, xy, px, py, vx, vy, now, detectedAt, predicted float64, flags uint8) {
		x := geom.V(xx, xy)
		r := Report{
			ID:               1,
			Pos:              geom.V(px, py),
			Velocity:         geom.V(vx, vy),
			HasVelocity:      flags&1 != 0,
			HasDirection:     flags&2 != 0,
			Detected:         flags&4 != 0,
			DetectedAt:       detectedAt,
			PredictedArrival: predicted,
		}
		got, want := ArrivalETA(x, now, r), arrivalETAReference(x, now, r)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ArrivalETA(%v, %v, %+v) = %v (%#x), reference %v (%#x)",
				x, now, r, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
