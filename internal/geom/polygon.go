package geom

import "sort"

// Polygon is a closed simple polygon; the edge from the last vertex back to
// the first is implicit.
type Polygon []Vec2

// Area returns the signed area of the polygon (positive for counter-clockwise
// winding).
func (pg Polygon) Area() float64 {
	var a float64
	n := len(pg)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		a += pg[i].Cross(pg[j])
	}
	return a / 2
}

// Contains reports whether p lies inside the polygon using the even-odd
// crossing rule. Points exactly on an edge may report either side.
func (pg Polygon) Contains(p Vec2) bool {
	inside := false
	n := len(pg)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		vi, vj := pg[i], pg[j]
		if (vi.Y > p.Y) != (vj.Y > p.Y) {
			xCross := (vj.X-vi.X)*(p.Y-vi.Y)/(vj.Y-vi.Y) + vi.X
			if p.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

// ConvexHull returns the convex hull of the given points in counter-clockwise
// order (Andrew's monotone chain). Fewer than three distinct points return
// the distinct points themselves.
func ConvexHull(pts []Vec2) Polygon {
	if len(pts) == 0 {
		return nil
	}
	sorted := make([]Vec2, len(pts))
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Y < sorted[j].Y
	})
	// Deduplicate.
	uniq := sorted[:1]
	for _, p := range sorted[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) < 3 {
		return Polygon(uniq)
	}
	var hull []Vec2
	// Lower hull.
	for _, p := range uniq {
		for len(hull) >= 2 && hull[len(hull)-1].Sub(hull[len(hull)-2]).Cross(p.Sub(hull[len(hull)-2])) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := len(uniq) - 2; i >= 0; i-- {
		p := uniq[i]
		for len(hull) >= lower && hull[len(hull)-1].Sub(hull[len(hull)-2]).Cross(p.Sub(hull[len(hull)-2])) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return Polygon(hull[:len(hull)-1])
}
