package diffusion

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// smallCoord maps arbitrary floats into a bounded coordinate range for quick
// properties.
func smallCoord(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(x, 100)
}

func TestRadialFrontArrival(t *testing.T) {
	f := NewRadialFront(geom.V(0, 0), 2, 10)
	if a := f.ArrivalTime(geom.V(20, 0)); !almost(a, 20, 1e-12) {
		t.Errorf("arrival = %v, want 20", a)
	}
	if a := f.ArrivalTime(geom.V(0, 0)); a != 10 {
		t.Errorf("origin arrival = %v, want 10 (start)", a)
	}
	if !f.Covered(geom.V(20, 0), 20) {
		t.Error("point not covered at its arrival time")
	}
	if f.Covered(geom.V(20, 0), 19.99) {
		t.Error("point covered before arrival")
	}
}

func TestRadialFrontVelocity(t *testing.T) {
	f := NewRadialFront(geom.V(0, 0), 2, 0)
	v := f.FrontVelocity(geom.V(5, 0), 3)
	if !v.ApproxEqual(geom.V(2, 0), 1e-12) {
		t.Errorf("velocity = %v, want (2,0)", v)
	}
	if v := f.FrontVelocity(geom.V(0, 0), 3); v != geom.Zero {
		t.Errorf("velocity at origin = %v, want zero", v)
	}
}

func TestRadialFrontBoundary(t *testing.T) {
	f := NewRadialFront(geom.V(1, 1), 2, 10)
	if b := f.Boundary(10, 16); b != nil {
		t.Error("boundary before start not nil")
	}
	b := f.Boundary(15, 16)
	if len(b) != 16 {
		t.Fatalf("boundary has %d points", len(b))
	}
	for _, p := range b {
		if !almost(p.Dist(geom.V(1, 1)), 10, 1e-9) {
			t.Fatalf("boundary point %v not at radius 10", p)
		}
	}
	if b := f.Boundary(15, 0); b != nil {
		t.Error("n=0 boundary not nil")
	}
}

func TestRadialFrontPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero speed did not panic")
		}
	}()
	NewRadialFront(geom.Zero, 0, 0)
}

func TestAnisotropicSpeedProfile(t *testing.T) {
	f := NewAnisotropicFront(geom.Zero, 1, 0, []Harmonic{{K: 1, Amp: 0.5, Phase: 0}})
	// v(0) = 1.5, v(pi) = 0.5.
	if v := f.SpeedAt(0); !almost(v, 1.5, 1e-12) {
		t.Errorf("v(0) = %v", v)
	}
	if v := f.SpeedAt(math.Pi); !almost(v, 0.5, 1e-12) {
		t.Errorf("v(pi) = %v", v)
	}
	// Heavy amplitude clamps at the floor rather than going negative.
	g := NewAnisotropicFront(geom.Zero, 1, 0, []Harmonic{{K: 1, Amp: 5, Phase: 0}})
	if v := g.SpeedAt(math.Pi); !almost(v, 0.1, 1e-12) {
		t.Errorf("clamped v = %v, want 0.1 floor", v)
	}
}

func TestAnisotropicArrivalAndCoverage(t *testing.T) {
	f := NewAnisotropicFront(geom.Zero, 1, 5, []Harmonic{{K: 2, Amp: 0.3, Phase: 0}})
	p := geom.V(10, 0)
	a := f.ArrivalTime(p)
	want := 5 + 10/f.SpeedAt(0)
	if !almost(a, want, 1e-12) {
		t.Errorf("arrival = %v, want %v", a, want)
	}
	if f.Covered(p, a-0.01) || !f.Covered(p, a) {
		t.Error("coverage inconsistent with arrival")
	}
	if a := f.ArrivalTime(geom.Zero); a != 5 {
		t.Errorf("origin arrival = %v", a)
	}
	if v := f.FrontVelocity(geom.Zero, 0); v != geom.Zero {
		t.Errorf("origin velocity = %v", v)
	}
}

func TestAnisotropicBoundaryMatchesArrival(t *testing.T) {
	st := rng.NewSource(7).Stream("aniso")
	f := RandomAnisotropicFront(st, geom.V(3, 4), 0.8, 2, 0.4, 4)
	for _, p := range f.Boundary(30, 32) {
		if a := f.ArrivalTime(p); !almost(a, 30, 1e-6) {
			t.Fatalf("boundary point %v has arrival %v, want 30", p, a)
		}
	}
	if b := f.Boundary(1, 8); b != nil {
		t.Error("pre-start boundary not nil")
	}
}

func TestRandomAnisotropicZeroIrregularityIsCircle(t *testing.T) {
	st := rng.NewSource(1).Stream("zero")
	f := RandomAnisotropicFront(st, geom.Zero, 1, 0, 0, 4)
	for theta := 0.0; theta < 2*math.Pi; theta += 0.1 {
		if !almost(f.SpeedAt(theta), 1, 1e-12) {
			t.Fatalf("speed at %v = %v, want 1", theta, f.SpeedAt(theta))
		}
	}
	// maxK < 1 clamps to 1 without panicking.
	_ = RandomAnisotropicFront(st, geom.Zero, 1, 0, 0.2, 0)
}

func TestAnisotropicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive base speed did not panic")
		}
	}()
	NewAnisotropicFront(geom.Zero, -1, 0, nil)
}

func TestAdvectedFrontDownwind(t *testing.T) {
	// Growth 1 m/s, drift 0.5 m/s east. Downwind point (x>0) is reached
	// when 0.5s + s >= x, i.e. s = x/1.5.
	f := NewAdvectedFront(geom.Zero, 1, geom.V(0.5, 0), 0)
	if a := f.ArrivalTime(geom.V(15, 0)); !almost(a, 10, 1e-9) {
		t.Errorf("downwind arrival = %v, want 10", a)
	}
	// Upwind point: reached when s - 0.5s >= x, s = x/0.5.
	if a := f.ArrivalTime(geom.V(-5, 0)); !almost(a, 10, 1e-9) {
		t.Errorf("upwind arrival = %v, want 10", a)
	}
	if a := f.ArrivalTime(geom.Zero); a != 0 {
		t.Errorf("origin arrival = %v", a)
	}
}

func TestAdvectedFrontFasterWind(t *testing.T) {
	// Drift 2 > growth 1: upwind points never covered.
	f := NewAdvectedFront(geom.Zero, 1, geom.V(2, 0), 0)
	if a := f.ArrivalTime(geom.V(-10, 0)); !math.IsInf(a, 1) {
		t.Errorf("upwind arrival = %v, want +Inf", a)
	}
	// Downwind is covered: center at 2s, radius s, so covers x when 2s-s <= x <= 2s+s.
	a := f.ArrivalTime(geom.V(9, 0))
	if !almost(a, 3, 1e-9) {
		t.Errorf("downwind arrival = %v, want 3", a)
	}
	// And the disc eventually uncovers it again (receding behaviour).
	if !f.Covered(geom.V(9, 0), 4) {
		t.Error("point not covered shortly after arrival")
	}
	if f.Covered(geom.V(9, 0), 100) {
		t.Error("point still covered long after the plume passed")
	}
}

func TestAdvectedEqualSpeedEdgeCase(t *testing.T) {
	// |w| == v: points directly downwind are caught, upwind never.
	f := NewAdvectedFront(geom.Zero, 1, geom.V(1, 0), 0)
	a := f.ArrivalTime(geom.V(10, 0))
	if math.IsInf(a, 1) {
		t.Error("downwind point never reached with equal speeds")
	}
	if !math.IsInf(f.ArrivalTime(geom.V(-1, 0)), 1) {
		t.Error("upwind point reached despite equal speeds")
	}
}

func TestAdvectedCoverageMatchesArrival(t *testing.T) {
	f := NewAdvectedFront(geom.V(2, 3), 1, geom.V(0.3, -0.2), 5)
	pts := []geom.Vec2{geom.V(10, 0), geom.V(0, 10), geom.V(-5, 3), geom.V(7, 7)}
	for _, p := range pts {
		a := f.ArrivalTime(p)
		if math.IsInf(a, 1) {
			continue
		}
		if f.Covered(p, a-1e-6) {
			t.Errorf("%v covered before arrival", p)
		}
		if !f.Covered(p, a+1e-9) {
			t.Errorf("%v not covered at arrival", p)
		}
	}
	if f.Covered(geom.V(2, 3), 4.9) {
		t.Error("covered before start")
	}
}

func TestAdvectedFrontVelocityAndBoundary(t *testing.T) {
	f := NewAdvectedFront(geom.Zero, 1, geom.V(0.5, 0), 0)
	v := f.FrontVelocity(geom.V(10, 0), 2)
	// Drift (0.5,0) + radial growth (1,0) = (1.5, 0).
	if !v.ApproxEqual(geom.V(1.5, 0), 1e-9) {
		t.Errorf("velocity = %v, want (1.5,0)", v)
	}
	b := f.Boundary(4, 12)
	if len(b) != 12 {
		t.Fatalf("boundary = %d points", len(b))
	}
	center := geom.V(2, 0)
	for _, p := range b {
		if !almost(p.Dist(center), 4, 1e-9) {
			t.Fatalf("boundary point %v not on drifted circle", p)
		}
	}
	if f.Boundary(0, 12) != nil {
		t.Error("boundary at start not nil")
	}
}

func TestAdvectedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive growth did not panic")
		}
	}()
	NewAdvectedFront(geom.Zero, 0, geom.Zero, 0)
}

// --- cross-model quick properties ---

func TestQuickArrivalMonotoneAlongRay(t *testing.T) {
	// For growing stimuli, arrival time increases with distance along a ray.
	st := rng.NewSource(3).Stream("prop")
	models := []FrontModel{
		NewRadialFront(geom.V(1, 2), 0.7, 4),
		RandomAnisotropicFront(st, geom.V(1, 2), 0.7, 4, 0.3, 3),
	}
	f := func(theta, r1, r2 float64) bool {
		th := smallCoord(theta)
		a1 := math.Abs(smallCoord(r1))
		a2 := math.Abs(smallCoord(r2))
		if a1 > a2 {
			a1, a2 = a2, a1
		}
		for _, m := range models {
			o := geom.V(1, 2)
			p1 := o.Add(geom.Polar(a1, th))
			p2 := o.Add(geom.Polar(a2, th))
			if m.ArrivalTime(p1) > m.ArrivalTime(p2)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCoveredIffArrived(t *testing.T) {
	st := rng.NewSource(5).Stream("prop2")
	models := []FrontModel{
		NewRadialFront(geom.V(-3, 2), 0.9, 7),
		RandomAnisotropicFront(st, geom.V(-3, 2), 0.9, 7, 0.25, 4),
		NewAdvectedFront(geom.V(-3, 2), 0.9, geom.V(0.2, 0.1), 7),
	}
	f := func(px, py, tt float64) bool {
		p := geom.V(smallCoord(px), smallCoord(py))
		tm := math.Abs(smallCoord(tt))
		for _, m := range models {
			a := m.ArrivalTime(p)
			cov := m.Covered(p, tm)
			if a <= tm && !cov {
				return false
			}
			if cov && a > tm+1e-9 {
				// Growing stimuli must not cover before arrival. (The
				// advected model with slow drift is still growing.)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAdvectedArrivalConsistent(t *testing.T) {
	// Whenever arrival is finite, Covered flips from false to true at it.
	f := func(px, py, wx, wy float64) bool {
		p := geom.V(smallCoord(px), smallCoord(py))
		w := geom.V(smallCoord(wx)/50, smallCoord(wy)/50)
		m := NewAdvectedFront(geom.Zero, 1, w, 0)
		a := m.ArrivalTime(p)
		if math.IsInf(a, 1) {
			// Never covered at sampled times.
			for _, tt := range []float64{1, 10, 100} {
				if m.Covered(p, tt) && p.Norm() > 1e-9 {
					return false
				}
			}
			return true
		}
		return !m.Covered(p, a-1e-6) || a < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
