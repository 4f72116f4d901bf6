package diffusion

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func uniformTerrain(speed float64) TerrainConfig {
	return TerrainConfig{
		Bounds:  geom.R(0, 0, 40, 40),
		NX:      80,
		NY:      80,
		Speed:   func(geom.Vec2) float64 { return speed },
		Source:  geom.V(20, 20),
		Start:   0,
		Horizon: 200,
	}
}

func TestTerrainValidate(t *testing.T) {
	good := uniformTerrain(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*TerrainConfig)
	}{
		{"coarse", func(c *TerrainConfig) { c.NX = 2 }},
		{"empty bounds", func(c *TerrainConfig) { c.Bounds = geom.Rect{} }},
		{"nil speed", func(c *TerrainConfig) { c.Speed = nil }},
		{"zero horizon", func(c *TerrainConfig) { c.Horizon = 0 }},
		{"source outside", func(c *TerrainConfig) { c.Source = geom.V(-5, 0) }},
	}
	for _, c := range cases {
		cfg := uniformTerrain(1)
		c.mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s accepted", c.name)
		}
		if _, err := NewTerrainFront(cfg); err == nil {
			t.Errorf("NewTerrainFront accepted %s", c.name)
		}
	}
}

func TestUniformTerrainMatchesRadial(t *testing.T) {
	// On a homogeneous medium the eikonal solution is distance/speed; FMM's
	// axis-aligned discretization carries a known overestimate (up to ~8%
	// along diagonals at this resolution).
	f, err := NewTerrainFront(uniformTerrain(0.5))
	if err != nil {
		t.Fatal(err)
	}
	src := geom.V(20, 20)
	for _, q := range []geom.Vec2{geom.V(30, 20), geom.V(20, 28), geom.V(28, 28), geom.V(8, 14)} {
		want := q.Dist(src) / 0.5
		got := f.ArrivalTime(q)
		if math.IsInf(got, 1) {
			t.Fatalf("point %v never reached", q)
		}
		if got < want-0.8 || got > want*1.12+0.8 {
			t.Errorf("arrival at %v = %v, analytic %v", q, got, want)
		}
	}
	// Source-cell arrival is near the start (bilinear smoothing against
	// neighbouring cells adds up to ~one cell-crossing time).
	if a := f.ArrivalTime(src); a > 1.5 {
		t.Errorf("source arrival = %v", a)
	}
}

func TestTerrainArrivalMonotoneFromSource(t *testing.T) {
	f, err := NewTerrainFront(uniformTerrain(1))
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for r := 1.0; r <= 18; r++ {
		a := f.ArrivalTime(geom.V(20+r, 20))
		if a+1e-9 < prev {
			t.Fatalf("arrival not monotone at r=%v: %v < %v", r, a, prev)
		}
		prev = a
	}
}

func TestTerrainSlowBandDelaysFront(t *testing.T) {
	// The terrain registry workload's front: fast medium at 0.6 m/s with a
	// slow horizontal band (0.15 m/s) across y∈[18,24] that leaves a gap at
	// the right edge.
	f, err := NewTerrainFront(TerrainConfig{
		Bounds: geom.R(0, 0, 40, 40),
		NX:     80,
		NY:     80,
		Speed: func(p geom.Vec2) float64 {
			if p.Y >= 18 && p.Y <= 24 && p.X < 32 {
				return 0.15
			}
			return 0.6
		},
		Source:  geom.V(6, 6),
		Start:   10,
		Horizon: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Point straight across the slow band from the source vs an equidistant
	// point reached through fast medium only.
	beyond := geom.V(6, 34)  // north of the band, straight line crosses it
	lateral := geom.V(34, 6) // same distance, fast medium all the way
	aBeyond := f.ArrivalTime(beyond)
	aLateral := f.ArrivalTime(lateral)
	if math.IsInf(aBeyond, 1) || math.IsInf(aLateral, 1) {
		t.Fatal("points never reached")
	}
	if aBeyond <= aLateral*1.2 {
		t.Errorf("slow band did not delay: beyond %v vs lateral %v", aBeyond, aLateral)
	}
	// The band itself is slow but passable.
	if math.IsInf(f.ArrivalTime(geom.V(10, 21)), 1) {
		t.Error("slow band unreachable")
	}
}

func TestTerrainBarrierBlocks(t *testing.T) {
	// A full vertical barrier splits the field: the far side is never
	// reached.
	cfg := uniformTerrain(1)
	cfg.Source = geom.V(5, 20)
	cfg.Speed = func(p geom.Vec2) float64 {
		if p.X >= 19 && p.X <= 21 {
			return 0 // impassable wall
		}
		return 1
	}
	f, err := NewTerrainFront(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(f.ArrivalTime(geom.V(35, 20)), 1) {
		t.Error("front crossed an impassable barrier")
	}
	if math.IsInf(f.ArrivalTime(geom.V(10, 20)), 1) {
		t.Error("near side unreachable")
	}
	if f.Covered(geom.V(35, 20), 1e9) {
		t.Error("far side covered")
	}
}

func TestTerrainFrontBendsAroundBarrier(t *testing.T) {
	// A barrier with a gap: the shadowed point is reached late, via the gap.
	cfg := uniformTerrain(1)
	cfg.Source = geom.V(5, 20)
	cfg.Speed = func(p geom.Vec2) float64 {
		// Wall at x∈[19,21] except a gap at y∈[32,40].
		if p.X >= 19 && p.X <= 21 && p.Y < 32 {
			return 0
		}
		return 1
	}
	f, err := NewTerrainFront(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shadow := geom.V(30, 20)
	direct := shadow.Dist(geom.V(5, 20)) / 1 // 25 s if the wall were absent
	got := f.ArrivalTime(shadow)
	if math.IsInf(got, 1) {
		t.Fatal("shadowed point never reached through the gap")
	}
	if got < direct*1.3 {
		t.Errorf("detour time %v too close to direct %v", got, direct)
	}
}

func TestTerrainSourceInsideBarrier(t *testing.T) {
	cfg := uniformTerrain(1)
	cfg.Speed = func(geom.Vec2) float64 { return 0 }
	f, err := NewTerrainFront(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(f.ArrivalTime(geom.V(25, 25)), 1) {
		t.Error("barrier-bound source spread anyway")
	}
}

func TestTerrainFrontModelSurface(t *testing.T) {
	f, err := NewTerrainFront(uniformTerrain(0.5))
	if err != nil {
		t.Fatal(err)
	}
	// FrontVelocity points outward with ~the medium speed.
	q := geom.V(28, 20)
	v := f.FrontVelocity(q, 0)
	if v == geom.Zero {
		t.Fatal("no front velocity")
	}
	out := q.Sub(geom.V(20, 20)).Normalize()
	if v.CosBetween(out) < 0.7 {
		t.Errorf("velocity %v not outward", v)
	}
	if v.Norm() < 0.3 || v.Norm() > 0.8 {
		t.Errorf("front speed %v, medium 0.5", v.Norm())
	}
	// Boundary ring at a mid time.
	b := f.Boundary(20, 0)
	if len(b) < 8 {
		t.Fatalf("boundary has %d points", len(b))
	}
	for _, p := range b {
		a := f.ArrivalTime(p)
		if !math.IsInf(a, 1) && math.Abs(a-20) > 3 {
			t.Errorf("boundary point %v arrival %v, want ≈20", p, a)
		}
	}
	// Covered/arrival consistency.
	for _, p := range []geom.Vec2{geom.V(25, 25), geom.V(5, 5), geom.V(38, 20)} {
		a := f.ArrivalTime(p)
		if math.IsInf(a, 1) {
			continue
		}
		if f.Covered(p, a-0.2) && !f.Covered(p, a+0.2) {
			t.Errorf("coverage inconsistent at %v", p)
		}
	}
}

func TestSolveEikonalUnits(t *testing.T) {
	// One-sided updates.
	if got := solveEikonal(10, math.Inf(1), 2, 3, 0.5); got != 14 {
		t.Errorf("x-only = %v, want 14", got)
	}
	if got := solveEikonal(math.Inf(1), 10, 2, 3, 0.5); got != 16 {
		t.Errorf("y-only = %v, want 16", got)
	}
	// No information: infinite.
	if got := solveEikonal(math.Inf(1), math.Inf(1), 1, 1, 1); !math.IsInf(got, 1) {
		t.Errorf("no-info = %v", got)
	}
	// Barrier: infinite.
	if got := solveEikonal(1, 2, 1, 1, 0); !math.IsInf(got, 1) {
		t.Errorf("barrier = %v", got)
	}
	// Symmetric two-sided: tx=ty=0, dx=dy=1, v=1 → T = 1/√2 ≈ 0.707.
	got := solveEikonal(0, 0, 1, 1, 1)
	if math.Abs(got-math.Sqrt2/2) > 1e-12 {
		t.Errorf("two-sided = %v, want %v", got, math.Sqrt2/2)
	}
}
