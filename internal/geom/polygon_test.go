package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPolygonArea(t *testing.T) {
	sq := Polygon{V(0, 0), V(2, 0), V(2, 2), V(0, 2)} // CCW unit-ish square
	if a := sq.Area(); a != 4 {
		t.Errorf("Area = %v, want 4", a)
	}
	cw := Polygon{V(0, 0), V(0, 2), V(2, 2), V(2, 0)}
	if a := cw.Area(); a != -4 {
		t.Errorf("CW Area = %v, want -4", a)
	}
}

func TestPolygonContains(t *testing.T) {
	sq := Polygon{V(0, 0), V(10, 0), V(10, 10), V(0, 10)}
	if !sq.Contains(V(5, 5)) {
		t.Error("center not contained")
	}
	if sq.Contains(V(15, 5)) {
		t.Error("outside point contained")
	}
	if sq.Contains(V(-1, -1)) {
		t.Error("outside corner contained")
	}
	tri := Polygon{V(0, 0), V(10, 0), V(5, 10)}
	if !tri.Contains(V(5, 3)) {
		t.Error("triangle interior not contained")
	}
	if tri.Contains(V(1, 9)) {
		t.Error("triangle exterior contained")
	}
}

func TestConvexHull(t *testing.T) {
	pts := []Vec2{
		V(0, 0), V(10, 0), V(10, 10), V(0, 10),
		V(5, 5), V(2, 3), V(7, 8), // interior points
	}
	hull := ConvexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull has %d vertices, want 4: %v", len(hull), hull)
	}
	if a := hull.Area(); !almost(a, 100, eps) {
		t.Errorf("hull area = %v, want 100", a)
	}
	// All original points inside or on hull.
	for _, p := range pts {
		onHull := false
		for _, h := range hull {
			if h == p {
				onHull = true
			}
		}
		if !onHull && !hull.Contains(p) {
			t.Errorf("point %v escaped hull", p)
		}
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := ConvexHull(nil); h != nil {
		t.Errorf("empty hull = %v", h)
	}
	h := ConvexHull([]Vec2{V(1, 1), V(1, 1)})
	if len(h) != 1 || h[0] != V(1, 1) {
		t.Errorf("duplicate-point hull = %v", h)
	}
	h = ConvexHull([]Vec2{V(0, 0), V(5, 5)})
	if len(h) != 2 {
		t.Errorf("two-point hull = %v", h)
	}
	// Collinear points: hull keeps the two extremes.
	h = ConvexHull([]Vec2{V(0, 0), V(1, 1), V(2, 2), V(3, 3)})
	if len(h) != 2 {
		t.Errorf("collinear hull = %v", h)
	}
}

func TestQuickHullContainsAll(t *testing.T) {
	f := func(raw [8]float64) bool {
		pts := make([]Vec2, 0, 4)
		for i := 0; i < 8; i += 2 {
			pts = append(pts, V(small(raw[i]), small(raw[i+1])))
		}
		hull := ConvexHull(pts)
		if len(hull) < 3 {
			return true // degenerate input, nothing to check
		}
		// Every input point must be inside the slightly-expanded hull.
		var c Vec2 // the vertex mean lies inside a convex polygon
		for _, h := range hull {
			c = c.Add(h)
		}
		c = c.Scale(1 / float64(len(hull)))
		grown := make(Polygon, len(hull))
		for i, h := range hull {
			grown[i] = c.Add(h.Sub(c).Scale(1 + 1e-9))
		}
		for _, p := range pts {
			if !grown.Contains(p) {
				// Points exactly on the boundary may fail Contains; accept if
				// very close to the hull perimeter.
				if hullDist(hull, p) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickHullAreaNonNegative(t *testing.T) {
	f := func(raw [10]float64) bool {
		pts := make([]Vec2, 0, 5)
		for i := 0; i < 10; i += 2 {
			pts = append(pts, V(small(raw[i]), small(raw[i+1])))
		}
		hull := ConvexHull(pts)
		if len(hull) < 3 {
			return true
		}
		return hull.Area() >= 0 // CCW orientation
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// hullDist is the distance from p to the nearest edge of the closed polygon.
func hullDist(pg Polygon, p Vec2) float64 {
	best := math.Inf(1)
	for i := range pg {
		a, b := pg[i], pg[(i+1)%len(pg)]
		d := b.Sub(a)
		t := 0.0
		if l2 := d.Norm2(); l2 > 0 {
			t = Clamp(p.Sub(a).Dot(d)/l2, 0, 1)
		}
		best = min(best, a.Lerp(b, t).Dist(p))
	}
	return best
}
