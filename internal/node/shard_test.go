package node

import (
	"testing"

	"repro/internal/deploy"
	"repro/internal/diffusion"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/sim"
)

// rxEvent is one observed delivery: who sent it and when it arrived.
type rxEvent struct {
	from radio.NodeID
	at   float64
}

// floodAgent broadcasts a ping at scheduled instants and relays every
// received message up to a cap, producing a deterministic flood whose
// fan-outs collide at identical timestamps across nodes — the workload that
// exposes any cross-shard ordering or boundary-delivery defect.
type floodAgent struct {
	sendAt []float64 // windowed-mode broadcasts
	atInit bool      // also broadcast during Init (direct mode)
	relays int
	rx     []rxEvent
}

func (a *floodAgent) Init(n *Node) {
	if a.atInit {
		n.Broadcast(ping)
	}
	for _, at := range a.sendAt {
		n.Kernel().ScheduleArgAt(at, floodSend, n)
	}
}

func floodSend(_ *sim.Kernel, arg any) {
	n := arg.(*Node)
	n.Broadcast(ping)
}

func (a *floodAgent) OnWake(*Node)         {}
func (a *floodAgent) OnDetect(*Node)       {}
func (a *floodAgent) OnStimulusGone(*Node) {}
func (a *floodAgent) OnMessage(n *Node, from radio.NodeID, env radio.Envelope) {
	a.rx = append(a.rx, rxEvent{from: from, at: n.Now()})
	if a.relays < 2 {
		a.relays++
		n.Broadcast(ping)
	}
}

// lineConfig is a six-node line with radio range covering two hops, so the
// middle nodes' CSR rows span both halves of any 2-shard split.
func lineConfig(agents []*floodAgent) NetworkConfig {
	positions := []geom.Vec2{
		geom.V(1, 5), geom.V(3, 5), geom.V(5, 5), geom.V(7, 5), geom.V(9, 5), geom.V(11, 5),
	}
	return NetworkConfig{
		Deployment: &deploy.Deployment{Field: geom.R(0, 0, 20, 10), Positions: positions},
		// A stimulus that never arrives inside the horizon: the flood alone
		// drives the run.
		Stimulus: diffusion.NewRadialFront(geom.V(500, 500), 1e-6, 0),
		Profile:  energy.Telos(),
		Loss:     radio.UnitDisk{Range: 5},
		Agents:   func(id radio.NodeID) Agent { return agents[id] },
	}
}

func newFloodAgents() []*floodAgent {
	agents := make([]*floodAgent, 6)
	for i := range agents {
		agents[i] = &floodAgent{}
	}
	// Node 3 broadcasts during Init: its row {1,2,3,4,5} spans the shard cut,
	// exercising the direct-mode boundary flush. Nodes 2 and 3 broadcast at
	// the same windowed instant, forcing equal-time cross-shard fan-outs.
	agents[3].atInit = true
	agents[2].sendAt = []float64{1.0}
	agents[3].sendAt = []float64{1.0}
	agents[0].sendAt = []float64{1.0, 1.5}
	return agents
}

// TestShardBoundaryDelivery pins the sharded radio against the serial one on
// a broadcast flood whose CSR rows span the shard cut: every node must see
// the identical delivery sequence — same senders, same times, same order —
// at any shard count.
func TestShardBoundaryDelivery(t *testing.T) {
	const horizon = 2.0
	const minWire = 12

	serial := newFloodAgents()
	nw := BuildNetwork(lineConfig(serial))
	nw.Run(horizon)

	for _, shards := range []int{1, 2, 3, 6} {
		agents := newFloodAgents()
		snw := BuildShardedNetwork(lineConfig(agents), shards, minWire)
		snw.Run(horizon)

		for id := range agents {
			got, want := agents[id].rx, serial[id].rx
			if len(got) != len(want) {
				t.Fatalf("shards=%d node %d: %d deliveries, serial saw %d\ngot:  %v\nwant: %v",
					shards, id, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("shards=%d node %d delivery %d: got %+v, serial %+v",
						shards, id, i, got[i], want[i])
				}
			}
			if g, w := snw.Nodes[id].RxCount(), nw.Nodes[id].RxCount(); g != w {
				t.Errorf("shards=%d node %d rxCount=%d, serial %d", shards, id, g, w)
			}
			if g, w := snw.Nodes[id].TxCount(), nw.Nodes[id].TxCount(); g != w {
				t.Errorf("shards=%d node %d txCount=%d, serial %d", shards, id, g, w)
			}
		}
	}
}

// TestShardAssignmentContiguous pins the spatial partition: equal-count
// strips in (x, y, index) order, every node owned by exactly one shard, and
// ownership contiguous along the sorted order.
func TestShardAssignmentContiguous(t *testing.T) {
	positions := []geom.Vec2{
		geom.V(9, 0), geom.V(1, 0), geom.V(5, 0), geom.V(3, 0), geom.V(7, 0), geom.V(5, 0),
	}
	owner := shardAssignment(positions, 3)
	counts := map[int32]int{}
	for _, s := range owner {
		counts[s]++
	}
	for s := int32(0); s < 3; s++ {
		if counts[s] != 2 {
			t.Fatalf("shard %d owns %d nodes, want 2 (owner=%v)", s, counts[s], owner)
		}
	}
	// x-sorted order is nodes 1,3,{2,5},4,0; the co-located pair (2,5) breaks
	// the tie by index, so strips are {1,3}, {2,5}, {4,0}.
	want := []int32{2, 0, 1, 0, 2, 1}
	for i := range owner {
		if owner[i] != want[i] {
			t.Fatalf("owner = %v, want %v", owner, want)
		}
	}
}

// TestBuildShardedNetworkGuards pins the loud construction-time failure
// modes and the shard-count clamp.
func TestBuildShardedNetworkGuards(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	cfg := lineConfig(newFloodAgents())
	expectPanic("empty deployment", func() {
		bad := cfg
		bad.Deployment = nil
		BuildShardedNetwork(bad, 2, 12)
	})
	expectPanic("incomplete config", func() {
		bad := cfg
		bad.Stimulus = nil
		BuildShardedNetwork(bad, 2, 12)
	})
	expectPanic("non-positive shard count", func() { BuildShardedNetwork(cfg, 0, 12) })
	expectPanic("collision modelling", func() {
		bad := cfg
		bad.Collisions = true
		BuildShardedNetwork(bad, 2, 12)
	})
	expectPanic("non-positive horizon", func() {
		BuildShardedNetwork(cfg, 2, 12).Run(0)
	})

	// More shards than nodes clamps instead of building empty kernels.
	nw := BuildShardedNetwork(cfg, 64, 12)
	if got := nw.Group.Shards(); got != len(nw.Nodes) {
		t.Fatalf("shard count %d after clamp, want %d", got, len(nw.Nodes))
	}
}
