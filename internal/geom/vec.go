// Package geom provides the small 2-D computational-geometry substrate used
// throughout the PAS reproduction: vectors, segments, polylines, polygons and
// uniform grids. Everything works in float64 world coordinates (metres).
package geom

import (
	"fmt"
	"math"
)

// Vec2 is a 2-D point or vector in world coordinates.
type Vec2 struct {
	X, Y float64
}

// V is shorthand for constructing a Vec2.
func V(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Zero is the origin / zero vector.
var Zero = Vec2{}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the dot product v · w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the scalar (z-component) cross product v × w.
func (v Vec2) Cross(w Vec2) float64 { return v.X*w.Y - v.Y*w.X }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Norm2 returns the squared Euclidean length of v.
func (v Vec2) Norm2() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Norm() }

// Dist2 returns the squared distance between v and w.
func (v Vec2) Dist2(w Vec2) float64 { return v.Sub(w).Norm2() }

// Normalize returns the unit vector in the direction of v. The zero vector
// normalizes to itself (there is no meaningful direction to return and the
// callers in this codebase treat a zero direction as "no movement").
func (v Vec2) Normalize() Vec2 {
	n := v.Norm()
	if n == 0 {
		return Vec2{}
	}
	return Vec2{v.X / n, v.Y / n}
}

// Angle returns the polar angle of v in radians, in (-π, π].
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// CosBetween returns cos of the included angle between v and w, in [-1, 1].
// If either vector is zero the result is 0 (perpendicular by convention; the
// arrival-time predictor treats cos ≤ 0 as "not approaching").
func (v Vec2) CosBetween(w Vec2) float64 {
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

// Perp returns v rotated counter-clockwise by 90 degrees.
func (v Vec2) Perp() Vec2 { return Vec2{-v.Y, v.X} }

// Lerp linearly interpolates between v and w: t=0 gives v, t=1 gives w.
func (v Vec2) Lerp(w Vec2, t float64) Vec2 {
	return Vec2{v.X + (w.X-v.X)*t, v.Y + (w.Y-v.Y)*t}
}

// Polar returns the vector with the given length and polar angle.
func Polar(r, theta float64) Vec2 {
	s, c := math.Sincos(theta)
	return Vec2{r * c, r * s}
}

// ApproxEqual reports whether v and w agree within absolute tolerance eps in
// each component.
func (v Vec2) ApproxEqual(w Vec2, eps float64) bool {
	return math.Abs(v.X-w.X) <= eps && math.Abs(v.Y-w.Y) <= eps
}

// String implements fmt.Stringer.
func (v Vec2) String() string { return fmt.Sprintf("(%.3f, %.3f)", v.X, v.Y) }

// Clamp limits x to the interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Lerp linearly interpolates between a and b.
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }
