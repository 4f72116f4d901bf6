package geom

import "fmt"

// Grid maps a rectangle onto a regular lattice of NX×NY cells. It is the
// shared indexing scheme for the plume PDE solver and for spatial hashing of
// node positions.
type Grid struct {
	Bounds Rect
	NX, NY int
	dx, dy float64
}

// NewGrid constructs a grid over bounds with nx×ny cells. It panics on
// non-positive dimensions or an empty rectangle because a malformed grid is a
// programming error, not a runtime condition.
func NewGrid(bounds Rect, nx, ny int) *Grid {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("geom: grid dimensions must be positive, got %dx%d", nx, ny))
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		panic(fmt.Sprintf("geom: grid bounds must have positive area, got %v", bounds))
	}
	return &Grid{
		Bounds: bounds,
		NX:     nx,
		NY:     ny,
		dx:     bounds.Width() / float64(nx),
		dy:     bounds.Height() / float64(ny),
	}
}

// CellSize returns the cell extents (dx, dy).
func (g *Grid) CellSize() (float64, float64) { return g.dx, g.dy }

// Cells returns the total number of cells.
func (g *Grid) Cells() int { return g.NX * g.NY }

// Index returns the flat index of cell (i, j); callers must pass in-range
// indices.
func (g *Grid) Index(i, j int) int { return j*g.NX + i }

// Cell returns the (i, j) cell containing p, clamped to the grid.
func (g *Grid) Cell(p Vec2) (int, int) {
	i := int((p.X - g.Bounds.Min.X) / g.dx)
	j := int((p.Y - g.Bounds.Min.Y) / g.dy)
	if i < 0 {
		i = 0
	} else if i >= g.NX {
		i = g.NX - 1
	}
	if j < 0 {
		j = 0
	} else if j >= g.NY {
		j = g.NY - 1
	}
	return i, j
}

// Center returns the world-coordinate center of cell (i, j).
func (g *Grid) Center(i, j int) Vec2 {
	return Vec2{
		g.Bounds.Min.X + (float64(i)+0.5)*g.dx,
		g.Bounds.Min.Y + (float64(j)+0.5)*g.dy,
	}
}

// Bilinear interpolates a cell-centered scalar field at point p. The field
// must have length NX*NY. Points outside the lattice of cell centers clamp to
// the border value.
func (g *Grid) Bilinear(field []float64, p Vec2) float64 {
	// Shift into "cell-center" coordinates: cell (i,j) center sits at i+0.5.
	fx := (p.X-g.Bounds.Min.X)/g.dx - 0.5
	fy := (p.Y-g.Bounds.Min.Y)/g.dy - 0.5
	i0 := int(Clamp(fx, 0, float64(g.NX-1)))
	j0 := int(Clamp(fy, 0, float64(g.NY-1)))
	i1 := i0 + 1
	j1 := j0 + 1
	if i1 > g.NX-1 {
		i1 = g.NX - 1
	}
	if j1 > g.NY-1 {
		j1 = g.NY - 1
	}
	tx := Clamp(fx-float64(i0), 0, 1)
	ty := Clamp(fy-float64(j0), 0, 1)
	v00 := field[g.Index(i0, j0)]
	v10 := field[g.Index(i1, j0)]
	v01 := field[g.Index(i0, j1)]
	v11 := field[g.Index(i1, j1)]
	return Lerp(Lerp(v00, v10, tx), Lerp(v01, v11, tx), ty)
}

// SpatialHash buckets points into grid cells for neighbor queries. It is
// built once over a static deployment and queried many times.
type SpatialHash struct {
	grid    *Grid
	points  []Vec2
	buckets [][]int
}

// NewSpatialHash indexes the given points over bounds with a cell size close
// to cell (the query radius is a good choice). The bucket lattice is capped
// at 1024×1024 so degenerate cell/field ratios cannot exhaust memory;
// queries stay correct because Near derives its scan window from the grid's
// actual cell size.
func NewSpatialHash(bounds Rect, cell float64, points []Vec2) *SpatialHash {
	if cell <= 0 {
		cell = 1
	}
	const maxCells = 1024
	nx := int(bounds.Width()/cell) + 1
	ny := int(bounds.Height()/cell) + 1
	if nx > maxCells {
		nx = maxCells
	}
	if ny > maxCells {
		ny = maxCells
	}
	g := NewGrid(bounds, nx, ny)
	h := &SpatialHash{grid: g, points: points, buckets: make([][]int, g.Cells())}
	for idx, p := range points {
		i, j := g.Cell(p)
		k := g.Index(i, j)
		h.buckets[k] = append(h.buckets[k], idx)
	}
	return h
}

// Insert appends p to the indexed point set and returns its index. It makes
// the hash usable incrementally (build empty, then insert accepted points one
// by one — the dart-throwing pattern of deploy.PoissonDisk). Hashes built
// over a caller-owned slice may reallocate it on Insert; callers that keep
// querying through the hash are unaffected.
func (h *SpatialHash) Insert(p Vec2) int {
	idx := len(h.points)
	h.points = append(h.points, p)
	i, j := h.grid.Cell(p)
	k := h.grid.Index(i, j)
	h.buckets[k] = append(h.buckets[k], idx)
	return idx
}

// AnyWithin reports whether any indexed point lies strictly within distance r
// of q. Unlike NearAppend it exits on the first hit and uses a strict
// inequality, matching the Poisson-disk acceptance rule (a dart exactly at
// minDist is accepted).
func (h *SpatialHash) AnyWithin(q Vec2, r float64) bool {
	i0, j0 := h.grid.Cell(q.Sub(Vec2{r, r}))
	i1, j1 := h.grid.Cell(q.Add(Vec2{r, r}))
	r2 := r * r
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			for _, idx := range h.buckets[h.grid.Index(i, j)] {
				if h.points[idx].Dist2(q) < r2 {
					return true
				}
			}
		}
	}
	return false
}

// Near returns the indices of all points within radius r of q, in ascending
// index order. It allocates a fresh result slice; hot paths that query every
// event should use NearAppend with a reused buffer instead.
func (h *SpatialHash) Near(q Vec2, r float64) []int {
	return h.NearAppend(nil, q, r)
}

// NearAppend appends the indices of all points within radius r of q to dst
// and returns the extended slice, with the appended region in ascending index
// order. Passing dst[:0] of a scratch buffer makes repeated queries
// allocation-free once the buffer has grown to the largest neighbourhood.
func (h *SpatialHash) NearAppend(dst []int, q Vec2, r float64) []int {
	i0, j0 := h.grid.Cell(q.Sub(Vec2{r, r}))
	i1, j1 := h.grid.Cell(q.Add(Vec2{r, r}))
	start := len(dst)
	r2 := r * r
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			for _, idx := range h.buckets[h.grid.Index(i, j)] {
				if h.points[idx].Dist2(q) <= r2 {
					dst = append(dst, idx)
				}
			}
		}
	}
	// Buckets are scanned in row-major order so indices inside one bucket are
	// ascending, but across buckets they are not; sort for deterministic use.
	insertionSortInts(dst[start:])
	return dst
}

func insertionSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
