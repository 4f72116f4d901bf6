package geom

import (
	"testing"
	"testing/quick"
)

func TestRect(t *testing.T) {
	r := R(10, 20, 0, 5) // deliberately swapped corners
	if r.Min != V(0, 5) || r.Max != V(10, 20) {
		t.Fatalf("R did not normalize: %v", r)
	}
	if r.Width() != 10 || r.Height() != 15 {
		t.Errorf("dims = %v x %v", r.Width(), r.Height())
	}
	if r.Area() != 150 {
		t.Errorf("Area = %v", r.Area())
	}
	if r.Center() != V(5, 12.5) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.Contains(V(5, 10)) || r.Contains(V(-1, 10)) {
		t.Error("Contains misbehaves")
	}
	if p := r.ClampPoint(V(-5, 100)); p != V(0, 20) {
		t.Errorf("ClampPoint = %v", p)
	}
	if e := r.Expand(1); e.Min != V(-1, 4) || e.Max != V(11, 21) {
		t.Errorf("Expand = %v", e)
	}
}

func TestGridIndexing(t *testing.T) {
	g := NewGrid(R(0, 0, 10, 10), 10, 5)
	dx, dy := g.CellSize()
	if dx != 1 || dy != 2 {
		t.Fatalf("CellSize = %v,%v", dx, dy)
	}
	if g.Cells() != 50 {
		t.Errorf("Cells = %d", g.Cells())
	}
	i, j := g.Cell(V(5.5, 3.5))
	if i != 5 || j != 1 {
		t.Errorf("Cell = %d,%d", i, j)
	}
	// Clamping outside points.
	i, j = g.Cell(V(-5, 100))
	if i != 0 || j != 4 {
		t.Errorf("clamped Cell = %d,%d", i, j)
	}
	c := g.Center(5, 1)
	if c != V(5.5, 3) {
		t.Errorf("Center = %v", c)
	}
}

func TestGridPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero dims", func() { NewGrid(R(0, 0, 1, 1), 0, 5) })
	mustPanic("empty bounds", func() { NewGrid(R(0, 0, 0, 5), 3, 3) })
}

func TestGridBilinear(t *testing.T) {
	g := NewGrid(R(0, 0, 4, 4), 4, 4)
	// Field = x coordinate of the cell center.
	field := make([]float64, g.Cells())
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			field[g.Index(i, j)] = g.Center(i, j).X
		}
	}
	// At any interior point the interpolant of a linear field is exact.
	if v := g.Bilinear(field, V(2, 2)); !almost(v, 2, 1e-9) {
		t.Errorf("Bilinear(2,2) = %v, want 2", v)
	}
	if v := g.Bilinear(field, V(1.25, 3.1)); !almost(v, 1.25, 1e-9) {
		t.Errorf("Bilinear(1.25,·) = %v, want 1.25", v)
	}
	// Outside clamps to border value.
	if v := g.Bilinear(field, V(-10, 2)); !almost(v, 0.5, 1e-9) {
		t.Errorf("Bilinear clamp = %v, want 0.5", v)
	}
}

func TestSpatialHash(t *testing.T) {
	pts := []Vec2{V(1, 1), V(2, 2), V(9, 9), V(5, 5), V(1.5, 1)}
	h := NewSpatialHash(R(0, 0, 10, 10), 2, pts)
	near := h.Near(V(1, 1), 1.2)
	want := []int{0, 4}
	if len(near) != len(want) {
		t.Fatalf("Near = %v, want %v", near, want)
	}
	for i := range want {
		if near[i] != want[i] {
			t.Fatalf("Near = %v, want %v", near, want)
		}
	}
	// Radius covering everything.
	if all := h.Near(V(5, 5), 20); len(all) != len(pts) {
		t.Errorf("Near(all) = %v", all)
	}
	// Radius covering nothing.
	if none := h.Near(V(7, 2), 0.5); len(none) != 0 {
		t.Errorf("Near(none) = %v", none)
	}
}

func TestSpatialHashZeroCell(t *testing.T) {
	// cell <= 0 falls back to a sane default rather than panicking.
	h := NewSpatialHash(R(0, 0, 5, 5), 0, []Vec2{V(1, 1)})
	if got := h.Near(V(1, 1), 1); len(got) != 1 {
		t.Errorf("Near = %v", got)
	}
}

func TestSpatialHashInsertAndAnyWithin(t *testing.T) {
	h := NewSpatialHash(R(0, 0, 100, 100), 10, nil)
	if h.AnyWithin(V(50, 50), 10) {
		t.Error("empty hash reported a near point")
	}
	if idx := h.Insert(V(50, 50)); idx != 0 {
		t.Errorf("first insert index = %d", idx)
	}
	if idx := h.Insert(V(80, 20)); idx != 1 {
		t.Errorf("second insert index = %d", idx)
	}
	if !h.AnyWithin(V(53, 54), 10) {
		t.Error("inserted point not found within radius")
	}
	// AnyWithin is strict: a point exactly at distance r does not count
	// (Poisson-disk accepts darts exactly at minDist).
	if h.AnyWithin(V(60, 50), 10) {
		t.Error("point exactly at distance r counted as within")
	}
	if !h.AnyWithin(V(60, 50), 10.000001) {
		t.Error("point just inside r missed")
	}
	// Inserted points participate in Near queries too.
	near := h.Near(V(79, 21), 5)
	if len(near) != 1 || near[0] != 1 {
		t.Errorf("Near after Insert = %v, want [1]", near)
	}
	// Queries near the border must not panic (window clamps to the grid).
	h.Insert(V(0, 0))
	if !h.AnyWithin(V(-3, -3), 5) {
		t.Error("corner point not found from outside the field")
	}
}

func TestQuickSpatialHashMatchesBruteForce(t *testing.T) {
	f := func(raw [12]float64, qx, qy, r float64) bool {
		pts := make([]Vec2, 0, 6)
		for i := 0; i < 12; i += 2 {
			pts = append(pts, V(mod10(raw[i]), mod10(raw[i+1])))
		}
		q := V(mod10(qx), mod10(qy))
		rad := mod10(r)/2 + 0.1
		h := NewSpatialHash(R(0, 0, 10, 10), 1.5, pts)
		got := h.Near(q, rad)
		var want []int
		for i, p := range pts {
			if p.Dist(q) <= rad {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mod10(x float64) float64 {
	m := small(x)
	if m < 0 {
		m = -m
	}
	for m > 10 {
		m /= 10
	}
	return m
}
