package geom

import (
	"testing"
	"testing/quick"
)

func TestSegmentBasics(t *testing.T) {
	s := Segment{V(0, 0), V(3, 4)}
	if s.Length() != 5 {
		t.Errorf("Length = %v, want 5", s.Length())
	}
	if s.Dir() != V(3, 4) {
		t.Errorf("Dir = %v, want (3,4)", s.Dir())
	}
	if got := s.Point(0.5); got != V(1.5, 2) {
		t.Errorf("Point(0.5) = %v", got)
	}
}

func TestClosestPoint(t *testing.T) {
	s := Segment{V(0, 0), V(10, 0)}
	cases := []struct {
		p     Vec2
		wantP Vec2
		wantT float64
	}{
		{V(5, 3), V(5, 0), 0.5},
		{V(-2, 1), V(0, 0), 0},
		{V(12, -1), V(10, 0), 1},
	}
	for _, c := range cases {
		got, tt := s.ClosestPoint(c.p)
		if !got.ApproxEqual(c.wantP, eps) || !almost(tt, c.wantT, eps) {
			t.Errorf("ClosestPoint(%v) = %v,%v want %v,%v", c.p, got, tt, c.wantP, c.wantT)
		}
	}
	// Degenerate segment.
	d := Segment{V(1, 1), V(1, 1)}
	got, tt := d.ClosestPoint(V(5, 5))
	if got != V(1, 1) || tt != 0 {
		t.Errorf("degenerate ClosestPoint = %v,%v", got, tt)
	}
}

func TestSegmentDist(t *testing.T) {
	s := Segment{V(0, 0), V(10, 0)}
	if d := s.Dist(V(5, 3)); !almost(d, 3, eps) {
		t.Errorf("Dist = %v, want 3", d)
	}
}

func TestSegmentNormal(t *testing.T) {
	s := Segment{V(0, 0), V(2, 0)}
	if n := s.Normal(); !n.ApproxEqual(V(0, 1), eps) {
		t.Errorf("Normal = %v, want (0,1)", n)
	}
	d := Segment{V(1, 1), V(1, 1)}
	if n := d.Normal(); n != Zero {
		t.Errorf("degenerate Normal = %v, want zero", n)
	}
}

func TestQuickClosestPointIsClosest(t *testing.T) {
	// The returned closest point must beat both endpoints and the midpoint.
	f := func(ax, ay, bx, by, px, py float64) bool {
		s := Segment{V(small(ax), small(ay)), V(small(bx), small(by))}
		p := V(small(px), small(py))
		q, _ := s.ClosestPoint(p)
		d := q.Dist(p)
		return d <= s.A.Dist(p)+1e-9 && d <= s.B.Dist(p)+1e-9 && d <= s.Point(0.5).Dist(p)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickClosestPointOnSegment(t *testing.T) {
	// The closest point must lie (nearly) on the segment: dist from A plus
	// dist to B equals segment length.
	f := func(ax, ay, bx, by, px, py float64) bool {
		s := Segment{V(small(ax), small(ay)), V(small(bx), small(by))}
		p := V(small(px), small(py))
		q, _ := s.ClosestPoint(p)
		return almost(q.Dist(s.A)+q.Dist(s.B), s.Length(), 1e-6*(1+s.Length()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
