package radio

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sim"
)

// TestTopologyMatchesBruteForce pins the frozen-topology property at the
// radio layer: on random layouts, every row of a compiled Topology must hold
// exactly the in-range neighbours an O(n²) recompute finds, ascending, with
// the distances the transmit path would have derived live.
func TestTopologyMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rnd.Intn(80)
		r := 3 + 12*rnd.Float64()
		field := geom.R(0, 0, 60, 45)
		positions := make([]geom.Vec2, n)
		for i := range positions {
			positions[i] = geom.V(60*rnd.Float64(), 45*rnd.Float64())
		}
		topo := CompileTopology(field, positions, r)
		if topo.NodeCount() != n || topo.MaxRange() != r {
			t.Fatalf("trial %d: topo %v, want n=%d maxRange=%g", trial, topo, n, r)
		}
		edges := 0
		for i := 0; i < n; i++ {
			row, dists := topo.Row(i)
			edges += len(row)
			var want []int32
			r2 := r * r
			for j := range positions {
				if j != i && positions[i].Dist2(positions[j]) <= r2 {
					want = append(want, int32(j))
				}
			}
			if len(row) != len(want) {
				t.Fatalf("trial %d row %d: got %v, want %v", trial, i, row, want)
			}
			for k := range row {
				if row[k] != want[k] {
					t.Fatalf("trial %d row %d: got %v, want %v", trial, i, row, want)
				}
				if d := positions[i].Dist(positions[row[k]]); dists[k] != d {
					t.Fatalf("trial %d row %d edge %d: dist %v, want %v", trial, i, k, dists[k], d)
				}
			}
		}
		if topo.Edges() != edges {
			t.Fatalf("trial %d: Edges()=%d, rows sum to %d", trial, topo.Edges(), edges)
		}
	}
}

func TestTopologyString(t *testing.T) {
	topo := CompileTopology(geom.R(0, 0, 10, 10), []geom.Vec2{geom.V(1, 1), geom.V(2, 1)}, 5)
	if s := topo.String(); !strings.Contains(s, "nodes: 2") || !strings.Contains(s, "edges: 2") {
		t.Errorf("unexpected String: %q", s)
	}
}

// topoRig registers n nodes on a fresh medium and returns it with its sinks.
func topoRig(n int, lossRange float64) (*sim.Kernel, *Medium, []*countSink) {
	k := sim.NewKernel()
	st := rng.NewSource(3).Stream("channel")
	m := NewMedium(k, geom.R(0, 0, 100, 100), energy.Telos(), UnitDisk{Range: lossRange}, st)
	sinks := make([]*countSink, n)
	for i := range sinks {
		sinks[i] = &countSink{}
		m.AddNode(NodeID(i), geom.V(float64(10+i*4), 50), sinks[i], nil)
	}
	return k, m, sinks
}

// TestMediumAdoptsPresetTopology pins the SetTopology fast path: a preset
// compiled over the registered positions is adopted verbatim at freeze, and
// delivery through it matches a medium that compiled its own.
func TestMediumAdoptsPresetTopology(t *testing.T) {
	positions := []geom.Vec2{geom.V(10, 50), geom.V(14, 50), geom.V(18, 50), geom.V(60, 50)}
	preset := CompileTopology(geom.R(0, 0, 100, 100), positions, 15)

	k, m, sinks := topoRig(0, 15)
	for i, pos := range positions {
		sinks = append(sinks, &countSink{})
		m.AddNode(NodeID(i), pos, sinks[i], nil)
	}
	m.SetTopology(preset)
	m.Broadcast(0, Envelope{Kind: KindRequest, Wire: 12})
	k.Run()
	if m.Topology() != preset {
		t.Fatal("medium compiled its own topology despite a matching preset")
	}
	if sinks[1].delivered != 1 || sinks[2].delivered != 1 {
		t.Errorf("in-range sinks got %d/%d deliveries, want 1/1", sinks[1].delivered, sinks[2].delivered)
	}
	if sinks[3].delivered != 0 {
		t.Errorf("out-of-range sink got %d deliveries, want 0", sinks[3].delivered)
	}
}

// TestMediumRejectsStalePreset pins the adoption guard: a preset whose node
// count no longer matches the registry is ignored and the medium compiles
// its own topology.
func TestMediumRejectsStalePreset(t *testing.T) {
	stale := CompileTopology(geom.R(0, 0, 100, 100), []geom.Vec2{geom.V(10, 50)}, 15)
	k, m, sinks := topoRig(3, 15)
	m.SetTopology(stale)
	m.Broadcast(0, Envelope{Kind: KindRequest, Wire: 12})
	k.Run()
	if m.Topology() == stale {
		t.Fatal("medium adopted a preset compiled over a different node count")
	}
	if sinks[1].delivered != 1 {
		t.Errorf("neighbour got %d deliveries, want 1", sinks[1].delivered)
	}
}

// TestAddNodeInvalidatesFrozenTopology pins the documented invalidation
// rule: AddNode after the freeze drops the compiled topology, and the next
// broadcast recompiles over the enlarged registry and reaches the late node.
func TestAddNodeInvalidatesFrozenTopology(t *testing.T) {
	k, m, sinks := topoRig(2, 15)
	m.Broadcast(0, Envelope{Kind: KindRequest, Wire: 12})
	k.Run()
	frozen := m.Topology()
	if frozen.NodeCount() != 2 {
		t.Fatalf("frozen over %d nodes, want 2", frozen.NodeCount())
	}

	late := &countSink{}
	m.AddNode(2, geom.V(12, 50), late, nil)
	if got := m.NeighborIDs(0); len(got) != 2 {
		t.Fatalf("post-AddNode NeighborIDs(0) = %v, want 2 neighbours", got)
	}
	m.Broadcast(0, Envelope{Kind: KindRequest, Wire: 12})
	k.Run()
	if recompiled := m.Topology(); recompiled == frozen || recompiled.NodeCount() != 3 {
		t.Fatalf("topology not recompiled after late AddNode: %v", recompiled)
	}
	if late.delivered != 1 {
		t.Errorf("late node got %d deliveries, want 1", late.delivered)
	}
	if sinks[1].delivered != 2 {
		t.Errorf("original neighbour got %d deliveries, want 2", sinks[1].delivered)
	}
}

// TestReserveMidRegistration pins that reserving after some nodes already
// registered stays correct (the slab only covers the remainder).
func TestReserveMidRegistration(t *testing.T) {
	k, m, _ := topoRig(2, 15)
	m.Reserve(4)
	extra := []*countSink{{}, {}}
	m.AddNode(2, geom.V(22, 50), extra[0], nil)
	m.AddNode(3, geom.V(26, 50), extra[1], nil)
	m.Broadcast(2, Envelope{Kind: KindRequest, Wire: 12})
	k.Run()
	if extra[1].delivered != 1 {
		t.Errorf("slab-registered neighbour got %d deliveries, want 1", extra[1].delivered)
	}
	if got := m.Topology().NodeCount(); got != 4 {
		t.Errorf("NodeCount = %d, want 4", got)
	}
}
