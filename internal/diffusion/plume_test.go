package diffusion

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func testPlumeConfig() PlumeConfig {
	return PlumeConfig{
		Bounds:      geom.R(0, 0, 40, 40),
		NX:          40,
		NY:          40,
		Diffusivity: 1.5,
		Wind:        geom.V(0, 0),
		Source:      geom.V(20, 20),
		Rate:        40,
		Threshold:   0.05,
		Horizon:     60,
		Start:       0,
	}
}

func TestPlumeConfigValidate(t *testing.T) {
	good := testPlumeConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*PlumeConfig)
	}{
		{"coarse grid", func(c *PlumeConfig) { c.NX = 2 }},
		{"empty bounds", func(c *PlumeConfig) { c.Bounds = geom.Rect{} }},
		{"zero diffusivity", func(c *PlumeConfig) { c.Diffusivity = 0 }},
		{"zero rate", func(c *PlumeConfig) { c.Rate = 0 }},
		{"zero threshold", func(c *PlumeConfig) { c.Threshold = 0 }},
		{"zero horizon", func(c *PlumeConfig) { c.Horizon = 0 }},
		{"negative decay", func(c *PlumeConfig) { c.DecayRate = -1 }},
		{"source outside", func(c *PlumeConfig) { c.Source = geom.V(-5, 0) }},
	}
	for _, c := range cases {
		cfg := testPlumeConfig()
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
		if _, err := NewGridPlume(cfg); err == nil {
			t.Errorf("NewGridPlume accepted %s", c.name)
		}
	}
}

func TestPlumeSourceArrivesFirst(t *testing.T) {
	p, err := NewGridPlume(testPlumeConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := p.ArrivalTime(geom.V(20, 20))
	if math.IsInf(src, 1) {
		t.Fatal("source cell never covered")
	}
	for _, q := range []geom.Vec2{geom.V(25, 20), geom.V(20, 26), geom.V(12, 12)} {
		a := p.ArrivalTime(q)
		if !math.IsInf(a, 1) && a < src {
			t.Errorf("point %v arrived at %v before source %v", q, a, src)
		}
	}
}

func TestPlumeArrivalGrowsWithDistance(t *testing.T) {
	p, err := NewGridPlume(testPlumeConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Sample along +x from the source; arrival should be non-decreasing
	// (allowing small interpolation wiggle).
	prev := 0.0
	for r := 1.0; r <= 12; r += 1 {
		a := p.ArrivalTime(geom.V(20+r, 20))
		if math.IsInf(a, 1) {
			break
		}
		if a+0.5 < prev {
			t.Errorf("arrival at r=%v is %v, before closer point %v", r, a, prev)
		}
		prev = a
	}
	if prev == 0 {
		t.Fatal("plume never spread beyond the source")
	}
}

func TestPlumeCoverageMatchesArrival(t *testing.T) {
	p, err := NewGridPlume(testPlumeConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts := []geom.Vec2{geom.V(20, 20), geom.V(23, 20), geom.V(20, 24), geom.V(15, 18), geom.V(38, 38)}
	for _, q := range pts {
		a := p.ArrivalTime(q)
		if math.IsInf(a, 1) {
			if p.Covered(q, 59) {
				t.Errorf("%v covered but arrival is Inf", q)
			}
			continue
		}
		if p.Covered(q, a-0.01) {
			t.Errorf("%v covered before arrival %v", q, a)
		}
		if !p.Covered(q, a) {
			t.Errorf("%v not covered at arrival %v", q, a)
		}
	}
	// Outside bounds: never covered.
	if !math.IsInf(p.ArrivalTime(geom.V(-10, -10)), 1) {
		t.Error("outside point has finite arrival")
	}
}

func TestPlumeWindSkew(t *testing.T) {
	cfg := testPlumeConfig()
	cfg.Wind = geom.V(0.4, 0)
	p, err := NewGridPlume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	down := p.ArrivalTime(geom.V(28, 20)) // downwind
	up := p.ArrivalTime(geom.V(12, 20))   // upwind, same distance
	if math.IsInf(down, 1) {
		t.Fatal("downwind point never covered")
	}
	if !math.IsInf(up, 1) && down >= up {
		t.Errorf("downwind arrival %v not earlier than upwind %v", down, up)
	}
}

func TestPlumeMassConservation(t *testing.T) {
	// No decay, no wind, Neumann walls: injected mass stays on the grid.
	cfg := testPlumeConfig()
	cfg.Duration = 10 // finite release: total mass = Rate * Duration
	p, err := NewGridPlume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Rate * cfg.Duration
	got := p.TotalMass()
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("mass = %v, want %v (±2%%)", got, want)
	}
}

func TestPlumeDecayReducesMass(t *testing.T) {
	base := testPlumeConfig()
	base.Duration = 10
	noDecay, err := NewGridPlume(base)
	if err != nil {
		t.Fatal(err)
	}
	withDecay := base
	withDecay.DecayRate = 0.05
	decayed, err := NewGridPlume(withDecay)
	if err != nil {
		t.Fatal(err)
	}
	if decayed.TotalMass() >= noDecay.TotalMass() {
		t.Errorf("decay did not reduce mass: %v >= %v", decayed.TotalMass(), noDecay.TotalMass())
	}
}

func TestPlumeFrontVelocityPointsOutward(t *testing.T) {
	p, err := NewGridPlume(testPlumeConfig())
	if err != nil {
		t.Fatal(err)
	}
	// At a covered point east of the source, spreading is roughly +x.
	q := geom.V(25, 20)
	if math.IsInf(p.ArrivalTime(q), 1) {
		t.Skip("point not reached within horizon")
	}
	v := p.FrontVelocity(q, 0)
	if v == geom.Zero {
		t.Fatal("zero front velocity at covered point")
	}
	outward := q.Sub(geom.V(20, 20)).Normalize()
	if v.CosBetween(outward) < 0.5 {
		t.Errorf("front velocity %v not outward-ish (cos=%v)", v, v.CosBetween(outward))
	}
}

func TestPlumeBoundaryRing(t *testing.T) {
	p, err := NewGridPlume(testPlumeConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := p.ArrivalTime(geom.V(20, 20))
	tt := src + 15
	b := p.Boundary(tt, 0)
	if len(b) < 8 {
		t.Fatalf("boundary has only %d points", len(b))
	}
	// Boundary points should have arrival close to tt.
	for _, q := range b {
		a := p.ArrivalTime(q)
		if math.IsInf(a, 1) {
			continue // contour next to never-covered cells
		}
		if math.Abs(a-tt) > 5 {
			t.Errorf("boundary point %v arrival %v, level %v", q, a, tt)
		}
	}
	// Thinning.
	thin := p.Boundary(tt, 10)
	if len(thin) > 10 {
		t.Errorf("thinned boundary has %d points", len(thin))
	}
	if b := p.Boundary(-1, 0); b != nil {
		t.Error("pre-start boundary not nil")
	}
}

func TestPlumeConcentration(t *testing.T) {
	p, err := NewGridPlume(testPlumeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c := p.Concentration(geom.V(20, 20)); c <= 0 {
		t.Errorf("source concentration = %v", c)
	}
	if c := p.Concentration(geom.V(-5, -5)); c != 0 {
		t.Errorf("outside concentration = %v", c)
	}
	if p.Steps() <= 0 || p.Dt() <= 0 {
		t.Error("steps/dt not positive")
	}
}

func TestPlumeStability(t *testing.T) {
	// Strong wind must still produce bounded concentrations (CFL respected).
	cfg := testPlumeConfig()
	cfg.Wind = geom.V(2, -1.5)
	cfg.Horizon = 30
	p, err := NewGridPlume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < cfg.NY; j += 4 {
		for i := 0; i < cfg.NX; i += 4 {
			c := p.Concentration(geom.V(float64(i), float64(j)))
			if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
				t.Fatalf("unstable concentration %v at (%d,%d)", c, i, j)
			}
		}
	}
}

func TestMultiSource(t *testing.T) {
	a := NewRadialFront(geom.V(0, 0), 1, 0)
	b := NewRadialFront(geom.V(100, 0), 1, 0)
	m := NewMultiSource(a, b)
	// Point near source a.
	if got := m.ArrivalTime(geom.V(10, 0)); !almost(got, 10, 1e-9) {
		t.Errorf("arrival = %v, want 10", got)
	}
	// Point near source b.
	if got := m.ArrivalTime(geom.V(95, 0)); !almost(got, 5, 1e-9) {
		t.Errorf("arrival = %v, want 5", got)
	}
	if !m.Covered(geom.V(10, 0), 10) || m.Covered(geom.V(10, 0), 9) {
		t.Error("multi coverage wrong")
	}
	// Velocity comes from the nearer source.
	v := m.FrontVelocity(geom.V(95, 0), 5)
	if !v.ApproxEqual(geom.V(-1, 0), 1e-9) {
		t.Errorf("velocity = %v, want (-1,0) from source b", v)
	}
	if b := m.Boundary(5, 32); len(b) == 0 {
		t.Error("multi boundary empty")
	}
	empty := NewMultiSource()
	if !math.IsInf(empty.ArrivalTime(geom.Zero), 1) || empty.FrontVelocity(geom.Zero, 0) != geom.Zero {
		t.Error("empty multi-source misbehaves")
	}
	if empty.Boundary(5, 8) != nil {
		t.Error("empty multi boundary not nil")
	}
}

func TestReceding(t *testing.T) {
	inner := NewRadialFront(geom.Zero, 1, 0)
	r := NewReceding(inner, 5)
	p := geom.V(10, 0)
	if a := r.ArrivalTime(p); !almost(a, 10, 1e-9) {
		t.Errorf("arrival = %v", a)
	}
	if d := r.DepartureTime(p); !almost(d, 15, 1e-9) {
		t.Errorf("departure = %v", d)
	}
	if r.Covered(p, 9.9) {
		t.Error("covered before arrival")
	}
	if !r.Covered(p, 12) {
		t.Error("not covered during dwell")
	}
	if r.Covered(p, 15.1) {
		t.Error("covered after departure")
	}
	if v := r.FrontVelocity(p, 10); !v.ApproxEqual(geom.V(1, 0), 1e-9) {
		t.Errorf("velocity = %v", v)
	}
	if len(r.Boundary(10, 8)) != 8 {
		t.Error("boundary not forwarded")
	}
	// Never-covered point has Inf departure.
	adv := NewAdvectedFront(geom.Zero, 1, geom.V(2, 0), 0)
	r2 := NewReceding(adv, 5)
	if !math.IsInf(r2.DepartureTime(geom.V(-50, 0)), 1) {
		t.Error("unreachable departure not Inf")
	}
}

func TestRecedingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero dwell did not panic")
		}
	}()
	NewReceding(NewRadialFront(geom.Zero, 1, 0), 0)
}
