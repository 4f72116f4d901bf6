// Package deploy generates sensor deployments over a field and validates
// their connectivity. The paper's experiments use 30 nodes with a 10 m
// transmission range; the generators here are seeded so every experiment is
// reproducible, and the connectivity check rejects deployments whose
// REQUEST/RESPONSE gossip could never propagate.
package deploy

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Deployment is a set of fixed node positions over a field.
type Deployment struct {
	Field     geom.Rect
	Positions []geom.Vec2
}

// N returns the number of nodes.
func (d *Deployment) N() int { return len(d.Positions) }

// UniformRandom places n nodes independently and uniformly over the field.
func UniformRandom(st *rng.Stream, field geom.Rect, n int) *Deployment {
	if n <= 0 {
		panic(fmt.Sprintf("deploy: node count must be positive, got %d", n))
	}
	pts := make([]geom.Vec2, n)
	for i := range pts {
		pts[i] = geom.V(
			st.Uniform(field.Min.X, field.Max.X),
			st.Uniform(field.Min.Y, field.Max.Y),
		)
	}
	return &Deployment{Field: field, Positions: pts}
}

// Grid places nodes on a regular nx×ny lattice with optional positional
// jitter (fraction of the cell size, 0 = perfect lattice).
func Grid(st *rng.Stream, field geom.Rect, nx, ny int, jitter float64) *Deployment {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("deploy: grid dims must be positive, got %dx%d", nx, ny))
	}
	dx := field.Width() / float64(nx)
	dy := field.Height() / float64(ny)
	jitter = geom.Clamp(jitter, 0, 0.49)
	pts := make([]geom.Vec2, 0, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			p := geom.V(
				field.Min.X+(float64(i)+0.5)*dx,
				field.Min.Y+(float64(j)+0.5)*dy,
			)
			if jitter > 0 && st != nil {
				p = p.Add(geom.V(st.Uniform(-jitter*dx, jitter*dx), st.Uniform(-jitter*dy, jitter*dy)))
			}
			pts = append(pts, field.ClampPoint(p))
		}
	}
	return &Deployment{Field: field, Positions: pts}
}

// PoissonDisk places up to n nodes with pairwise spacing of at least minDist
// using dart throwing; it gives the even-but-unstructured layouts typical of
// aerial deployment. It stops early if the field cannot absorb more darts.
func PoissonDisk(st *rng.Stream, field geom.Rect, n int, minDist float64) *Deployment {
	if n <= 0 || minDist <= 0 {
		panic(fmt.Sprintf("deploy: invalid poisson parameters n=%d minDist=%g", n, minDist))
	}
	pts := make([]geom.Vec2, 0, n)
	// Accepted darts are indexed in a spatial hash with minDist-sized cells,
	// so each candidate checks only the 3×3 cell neighbourhood instead of
	// every accepted point: dart throwing is O(tries), not O(tries·n). The
	// acceptance rule (reject strictly inside minDist) and the draw order are
	// unchanged, so layouts are identical to the linear recheck for any seed.
	hash := geom.NewSpatialHash(field, minDist, nil)
	maxTries := 200 * n
	for tries := 0; tries < maxTries && len(pts) < n; tries++ {
		p := geom.V(
			st.Uniform(field.Min.X, field.Max.X),
			st.Uniform(field.Min.Y, field.Max.Y),
		)
		if !hash.AnyWithin(p, minDist) {
			pts = append(pts, p)
			hash.Insert(p)
		}
	}
	return &Deployment{Field: field, Positions: pts}
}

// Clustered places nodes in nClusters Gaussian clusters of the given spread,
// modelling deployments concentrated around points of interest.
func Clustered(st *rng.Stream, field geom.Rect, nClusters, perCluster int, spread float64) *Deployment {
	if nClusters <= 0 || perCluster <= 0 {
		panic(fmt.Sprintf("deploy: invalid cluster parameters %dx%d", nClusters, perCluster))
	}
	pts := make([]geom.Vec2, 0, nClusters*perCluster)
	for c := 0; c < nClusters; c++ {
		center := geom.V(
			st.Uniform(field.Min.X, field.Max.X),
			st.Uniform(field.Min.Y, field.Max.Y),
		)
		for i := 0; i < perCluster; i++ {
			p := center.Add(geom.V(st.Normal(0, spread), st.Normal(0, spread)))
			pts = append(pts, field.ClampPoint(p))
		}
	}
	return &Deployment{Field: field, Positions: pts}
}

// NeighborLists returns, for each node, the indices of all nodes within
// radius (excluding itself), ascending.
func (d *Deployment) NeighborLists(radius float64) [][]int {
	hash := geom.NewSpatialHash(d.Field.Expand(radius), radius, d.Positions)
	out := make([][]int, len(d.Positions))
	for i, p := range d.Positions {
		for _, j := range hash.Near(p, radius) {
			if j != i {
				out[i] = append(out[i], j)
			}
		}
	}
	return out
}

// Connected reports whether the unit-disk graph with the given radius is a
// single connected component (union-find).
func (d *Deployment) Connected(radius float64) bool {
	n := len(d.Positions)
	if n <= 1 {
		return true
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i, nbrs := range d.NeighborLists(radius) {
		for _, j := range nbrs {
			union(i, j)
		}
	}
	root := find(0)
	for i := 1; i < n; i++ {
		if find(i) != root {
			return false
		}
	}
	return true
}

// ConnectedUniform draws uniform deployments until one is connected at the
// given radius, up to maxAttempts (it panics when exhausted, because the
// caller's field/range/count combination is infeasible and every experiment
// depends on connectivity). The paper's 30-node/10 m setup needs a field
// dense enough for gossip, so this is the generator the experiments use.
func ConnectedUniform(st *rng.Stream, field geom.Rect, n int, radius float64, maxAttempts int) *Deployment {
	if maxAttempts <= 0 {
		maxAttempts = 100
	}
	for i := 0; i < maxAttempts; i++ {
		d := UniformRandom(st, field, n)
		if d.Connected(radius) {
			return d
		}
	}
	panic(fmt.Sprintf("deploy: no connected uniform deployment of %d nodes radius %g over %v in %d attempts",
		n, radius, field, maxAttempts))
}
