package diffusion

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/geom"
)

// TerrainConfig parameterizes the heterogeneous-terrain front: a stimulus
// whose local spreading speed varies over the field (vegetation, slopes,
// barriers). The ground-truth arrival times solve the eikonal equation
// |∇T(x)|·v(x) = 1 by the fast marching method.
type TerrainConfig struct {
	// Bounds is the field covered by the speed map.
	Bounds geom.Rect
	// NX, NY are the grid resolution.
	NX, NY int
	// Speed returns the local spreading speed (m/s) at a point; it is
	// sampled once per cell at construction. Speeds of 0 or below mark
	// impassable barriers.
	Speed func(p geom.Vec2) float64
	// Source is the ignition/release point.
	Source geom.Vec2
	// Start is the virtual time of the release.
	Start float64
	// Horizon bounds the times of interest (used only for boundary
	// contouring levels).
	Horizon float64
}

// Validate reports an error for unusable configs.
func (c TerrainConfig) Validate() error {
	switch {
	case c.NX < 4 || c.NY < 4:
		return fmt.Errorf("diffusion: terrain grid too coarse (%dx%d)", c.NX, c.NY)
	case c.Bounds.Width() <= 0 || c.Bounds.Height() <= 0:
		return fmt.Errorf("diffusion: terrain bounds empty: %v", c.Bounds)
	case c.Speed == nil:
		return fmt.Errorf("diffusion: terrain speed function is nil")
	case c.Horizon <= 0:
		return fmt.Errorf("diffusion: horizon must be positive, got %g", c.Horizon)
	case !c.Bounds.Contains(c.Source):
		return fmt.Errorf("diffusion: source %v outside bounds %v", c.Source, c.Bounds)
	}
	return nil
}

// TerrainFront is a stimulus spreading through a heterogeneous medium. It
// satisfies Stimulus and FrontModel through the shared arrival-field query
// machinery; arrival times are the exact (to grid resolution) first-arrival
// solution of the eikonal equation, so fronts bend around slow regions and
// stop at barriers — behaviour none of the analytic models can produce.
type TerrainFront struct {
	*arrivalField
	cfg   TerrainConfig
	speed []float64 // per-cell speeds
}

// fmmItem is a heap entry of the fast-marching narrow band.
type fmmItem struct {
	idx  int
	t    float64
	heap int // position in the heap, -1 when popped
}

type fmmHeap []*fmmItem

func (h fmmHeap) Len() int           { return len(h) }
func (h fmmHeap) Less(i, j int) bool { return h[i].t < h[j].t }
func (h fmmHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heap = i; h[j].heap = j }
func (h *fmmHeap) Push(x any)        { it := x.(*fmmItem); it.heap = len(*h); *h = append(*h, it) }
func (h *fmmHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	it.heap = -1
	*h = old[:n-1]
	return it
}

// NewTerrainFront samples the speed map, runs fast marching from the source
// and returns the queryable stimulus.
func NewTerrainFront(cfg TerrainConfig) (*TerrainFront, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &TerrainFront{
		arrivalField: newArrivalField(cfg.Bounds, cfg.NX, cfg.NY, cfg.Start, cfg.Horizon),
		cfg:          cfg,
	}
	g := f.grid
	f.speed = make([]float64, g.Cells())
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			f.speed[g.Index(i, j)] = cfg.Speed(g.Center(i, j))
		}
	}
	f.march()
	return f, nil
}

// march runs the fast marching method: a Dijkstra-like sweep where each
// cell's tentative time solves the upwind quadratic discretization of
// |∇T| v = 1.
func (f *TerrainFront) march() {
	g := f.grid
	dx, dy := g.CellSize()
	n := g.Cells()
	state := make([]byte, n) // 0 far, 1 narrow, 2 accepted
	items := make([]*fmmItem, n)
	var band fmmHeap

	si, sj := g.Cell(f.cfg.Source)
	srcIdx := g.Index(si, sj)
	if f.speed[srcIdx] <= 0 {
		return // source inside a barrier: nothing spreads
	}
	f.arrival[srcIdx] = f.cfg.Start
	items[srcIdx] = &fmmItem{idx: srcIdx, t: f.cfg.Start}
	state[srcIdx] = 1
	heap.Push(&band, items[srcIdx])

	update := func(i, j int) {
		idx := g.Index(i, j)
		if state[idx] == 2 || f.speed[idx] <= 0 {
			return
		}
		// Upwind neighbours: smallest accepted time along each axis.
		tx := math.Inf(1)
		if i > 0 && state[g.Index(i-1, j)] == 2 {
			tx = f.arrival[g.Index(i-1, j)]
		}
		if i < g.NX-1 && state[g.Index(i+1, j)] == 2 {
			tx = math.Min(tx, f.arrival[g.Index(i+1, j)])
		}
		ty := math.Inf(1)
		if j > 0 && state[g.Index(i, j-1)] == 2 {
			ty = f.arrival[g.Index(i, j-1)]
		}
		if j < g.NY-1 && state[g.Index(i, j+1)] == 2 {
			ty = math.Min(ty, f.arrival[g.Index(i, j+1)])
		}
		tNew := solveEikonal(tx, ty, dx, dy, f.speed[idx])
		if math.IsInf(tNew, 1) || tNew >= f.arrival[idx] {
			return
		}
		f.arrival[idx] = tNew
		if state[idx] == 0 {
			state[idx] = 1
			items[idx] = &fmmItem{idx: idx, t: tNew}
			heap.Push(&band, items[idx])
		} else {
			items[idx].t = tNew
			heap.Fix(&band, items[idx].heap)
		}
	}

	for band.Len() > 0 {
		it := heap.Pop(&band).(*fmmItem)
		state[it.idx] = 2
		i := it.idx % g.NX
		j := it.idx / g.NX
		if i > 0 {
			update(i-1, j)
		}
		if i < g.NX-1 {
			update(i+1, j)
		}
		if j > 0 {
			update(i, j-1)
		}
		if j < g.NY-1 {
			update(i, j+1)
		}
	}
}

// solveEikonal returns the upwind solution of ((T−tx)/dx)² + ((T−ty)/dy)² =
// 1/v² using whichever axis values are finite.
func solveEikonal(tx, ty, dx, dy, v float64) float64 {
	if v <= 0 {
		return math.Inf(1)
	}
	inv := 1 / v
	xFinite := !math.IsInf(tx, 1)
	yFinite := !math.IsInf(ty, 1)
	switch {
	case xFinite && yFinite:
		// Quadratic in T: (1/dx²+1/dy²)T² − 2(tx/dx²+ty/dy²)T + (tx²/dx²+ty²/dy²−inv²) = 0.
		a := 1/(dx*dx) + 1/(dy*dy)
		b := -2 * (tx/(dx*dx) + ty/(dy*dy))
		c := tx*tx/(dx*dx) + ty*ty/(dy*dy) - inv*inv
		disc := b*b - 4*a*c
		if disc >= 0 {
			t := (-b + math.Sqrt(disc)) / (2 * a)
			// The two-sided solution is only valid if it is upwind of both
			// contributors; otherwise fall back to the one-sided update.
			if t >= tx && t >= ty {
				return t
			}
		}
		return math.Min(tx+dx*inv, ty+dy*inv)
	case xFinite:
		return tx + dx*inv
	case yFinite:
		return ty + dy*inv
	default:
		return math.Inf(1)
	}
}
