package geom

import "fmt"

// Rect is an axis-aligned rectangle, used for deployment fields and plume
// grids. Min is the lower-left corner, Max the upper-right.
type Rect struct {
	Min, Max Vec2
}

// R constructs a Rect from corner coordinates, normalizing the order so that
// Min ≤ Max component-wise.
func R(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Min: Vec2{x0, y0}, Max: Vec2{x1, y1}}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the midpoint of r.
func (r Rect) Center() Vec2 {
	return Vec2{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Vec2) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ClampPoint returns the point of r closest to p.
func (r Rect) ClampPoint(p Vec2) Vec2 {
	return Vec2{Clamp(p.X, r.Min.X, r.Max.X), Clamp(p.Y, r.Min.Y, r.Max.Y)}
}

// Expand returns r grown by d on every side (negative d shrinks; the result
// is normalized so Min ≤ Max).
func (r Rect) Expand(d float64) Rect {
	return R(r.Min.X-d, r.Min.Y-d, r.Max.X+d, r.Max.Y+d)
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Min, r.Max)
}
