package geom

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Vec2
}

// Length returns the length of s.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Dir returns the (non-normalized) direction vector B - A.
func (s Segment) Dir() Vec2 { return s.B.Sub(s.A) }

// Point returns the point at parameter t along the segment; t=0 is A, t=1 is B.
func (s Segment) Point(t float64) Vec2 { return s.A.Lerp(s.B, t) }

// ClosestPoint returns the point on s closest to p and the segment parameter
// t ∈ [0,1] at which it occurs.
func (s Segment) ClosestPoint(p Vec2) (Vec2, float64) {
	d := s.Dir()
	l2 := d.Norm2()
	if l2 == 0 {
		return s.A, 0
	}
	t := Clamp(p.Sub(s.A).Dot(d)/l2, 0, 1)
	return s.Point(t), t
}

// Dist returns the distance from p to the segment.
func (s Segment) Dist(p Vec2) float64 {
	q, _ := s.ClosestPoint(p)
	return q.Dist(p)
}

// Normal returns the unit normal of the segment (90° counter-clockwise from
// the direction A→B). A degenerate segment yields the zero vector.
func (s Segment) Normal() Vec2 { return s.Dir().Perp().Normalize() }
