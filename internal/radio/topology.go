package radio

import (
	"fmt"

	"repro/internal/geom"
)

// Topology is a frozen CSR connectivity graph for a static deployment: for
// every node (row i for node ID i) the indices of all nodes within maxRange,
// ascending, self excluded, plus the precomputed link distance of every
// edge. PAS deployments never move, so the receiver candidate set of every
// broadcast is fixed for the lifetime of a run; compiling it once turns the
// per-broadcast spatial-hash window scan into a flat row walk. A Topology is
// immutable after compilation and safe to share across concurrently running
// Mediums — the experiment harness memoizes one per (deployment, maxRange)
// and hands it to every cell.
type Topology struct {
	n        int
	maxRange float64
	csr      geom.CSR
	dist     []float64 // per-edge distances aligned with csr.Items
}

// CompileTopology freezes the connectivity of the given positions at
// maxRange over the field. Membership follows the spatial hash's inclusive
// dist² ≤ maxRange² rule and rows are ascending by index, so walking a row
// visits exactly the candidates — in exactly the order — that a
// SpatialHash.NearAppend query over the same positions would yield, and the
// loss-model randomness consumed per broadcast is unchanged. Distances are
// computed with the same Vec2.Dist the transmit path used, so loss draws see
// bit-identical inputs.
func CompileTopology(field geom.Rect, positions []geom.Vec2, maxRange float64) *Topology {
	cell := maxRange
	if cell <= 0 {
		cell = 1
	}
	hash := geom.NewSpatialHash(field.Expand(cell), cell, positions)
	csr := hash.CompileCSR(maxRange)
	t := &Topology{
		n:        len(positions),
		maxRange: maxRange,
		csr:      csr,
		dist:     make([]float64, len(csr.Items)),
	}
	for i := range positions {
		row := csr.Row(i)
		off := csr.Offsets[i]
		for k, j := range row {
			t.dist[int(off)+k] = positions[i].Dist(positions[j])
		}
	}
	return t
}

// NodeCount returns the number of nodes the topology was compiled over.
func (t *Topology) NodeCount() int { return t.n }

// MaxRange returns the radius the topology was compiled at.
func (t *Topology) MaxRange() float64 { return t.maxRange }

// Edges returns the total directed edge count.
func (t *Topology) Edges() int { return len(t.csr.Items) }

// Row returns node i's neighbour indices (ascending, self excluded) and the
// matching link distances. Both slices alias the arenas; callers must not
// mutate them.
func (t *Topology) Row(i int) ([]int32, []float64) {
	lo, hi := t.csr.Offsets[i], t.csr.Offsets[i+1]
	return t.csr.Items[lo:hi], t.dist[lo:hi]
}

// String summarizes the topology for diagnostics.
func (t *Topology) String() string {
	return fmt.Sprintf("radio.Topology{nodes: %d, edges: %d, maxRange: %g}", t.n, len(t.csr.Items), t.maxRange)
}
