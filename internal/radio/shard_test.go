package radio

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/sim"
)

// shardFixture wires four nodes in a line across two shards over one frozen
// topology: 0—1 on shard 0, 2—3 on shard 1, with 1 in range of both 2 and 3
// so one broadcast stages a deduplicated two-target boundary record.
func shardFixture(t *testing.T) (*sim.ShardGroup, []*Medium, []*sink) {
	t.Helper()
	field := geom.R(0, 0, 100, 100)
	positions := []geom.Vec2{
		geom.V(10, 50),   // 0: shard 0, hears 1
		geom.V(14, 50),   // 1: shard 0, hears 0, 2, 3
		geom.V(17, 50),   // 2: shard 1, hears 1, 3
		geom.V(18.5, 50), // 3: shard 1, hears 1, 2
	}
	owner := []int32{0, 0, 1, 1}
	topo := CompileTopology(field, positions, 5)
	group := sim.NewShardGroup(2)
	media := NewShardedMedia(group, field, energy.Telos(), UnitDisk{Range: 5}, topo, owner, 12)
	sinks := make([]*sink, len(positions))
	for i, pos := range positions {
		m := media[owner[i]]
		sinks[i] = &sink{k: m.kernel}
		m.AddNode(NodeID(i), pos, sinks[i], nil)
	}
	return group, media, sinks
}

// TestShardedBroadcastDirect drives the construction-mode path: a broadcast
// spanning the shard cut delivers to the local fragment through the ordinary
// fan-out event and to the remote shard through an immediately flushed
// boundary record — one record for both remote receivers.
func TestShardedBroadcastDirect(t *testing.T) {
	group, media, sinks := shardFixture(t)
	env := Envelope{Kind: KindRequest, Wire: 12}
	media[0].Broadcast(1, env)
	if media[1].kernel.Pending() == 0 {
		t.Fatal("direct-mode broadcast staged nothing into the remote kernel")
	}
	for i := 0; i < group.Shards(); i++ {
		group.Shard(i).Run()
	}
	for _, i := range []int{0, 2, 3} {
		if len(sinks[i].got) != 1 {
			t.Fatalf("node %d got %d deliveries, want 1", i, len(sinks[i].got))
		}
		if sinks[i].got[0].from != 1 {
			t.Fatalf("node %d heard node %d, want 1", i, sinks[i].got[0].from)
		}
	}
	if len(sinks[1].got) != 0 {
		t.Fatalf("sender heard its own broadcast %d times", len(sinks[1].got))
	}
	if st := media[0].Stats(); st.Broadcasts != 1 || st.BytesSent != 12 {
		t.Fatalf("sender-shard stats %+v, want 1 broadcast / 12 bytes", st)
	}
}

// TestShardedBroadcastAllRemote pins the reserved-sequence path: when every
// surviving receiver lives on another shard, the sender still consumes the
// serial fan-out's sequence position (ReserveSeq) so downstream ordering
// matches the one-kernel run.
func TestShardedBroadcastAllRemote(t *testing.T) {
	field := geom.R(0, 0, 100, 100)
	positions := []geom.Vec2{geom.V(10, 50), geom.V(13, 50)}
	topo := CompileTopology(field, positions, 5)
	group := sim.NewShardGroup(2)
	media := NewShardedMedia(group, field, energy.Telos(), UnitDisk{Range: 5}, topo, []int32{0, 1}, 12)
	rx := &sink{k: media[1].kernel}
	media[0].AddNode(0, positions[0], &sink{k: media[0].kernel}, nil)
	media[1].AddNode(1, positions[1], rx, nil)

	media[0].Broadcast(0, Envelope{Kind: KindRequest, Wire: 12})
	group.Shard(1).Run()
	if len(rx.got) != 1 || rx.got[0].from != 0 {
		t.Fatalf("remote-only broadcast delivered %+v, want one delivery from 0", rx.got)
	}
}

// TestShardedBroadcastNoReceivers pins the empty-row default branch: an
// isolated sender schedules nothing, stages nothing and consumes no
// sequence position.
func TestShardedBroadcastNoReceivers(t *testing.T) {
	field := geom.R(0, 0, 100, 100)
	positions := []geom.Vec2{geom.V(10, 50), geom.V(90, 50)}
	topo := CompileTopology(field, positions, 5)
	group := sim.NewShardGroup(2)
	media := NewShardedMedia(group, field, energy.Telos(), UnitDisk{Range: 5}, topo, []int32{0, 1}, 12)
	media[0].AddNode(0, positions[0], &sink{k: media[0].kernel}, nil)
	media[1].AddNode(1, positions[1], &sink{k: media[1].kernel}, nil)
	media[0].Broadcast(0, Envelope{Kind: KindRequest, Wire: 12})
	if p := media[0].kernel.Pending() + media[1].kernel.Pending(); p != 0 {
		t.Fatalf("isolated broadcast left %d pending events, want 0", p)
	}
}

// TestShardedBroadcastWindowed drives the windowed path in-package: a
// broadcast fired from inside an event gets a provisional sequence, the
// barrier merge resolves it, and FlushBoundary injects the remote fragment
// under the resolved serial key.
func TestShardedBroadcastWindowed(t *testing.T) {
	group, media, sinks := shardFixture(t)
	group.BeginWindows()
	w := energy.Telos().TxTime(12)
	media[0].kernel.ScheduleAt(1.0, func(k *sim.Kernel) {
		media[0].Broadcast(1, Envelope{Kind: KindRequest, Wire: 12})
	})
	for i := 0; i < group.Shards(); i++ {
		group.Shard(i).RunWindow(1.0 + w)
	}
	group.EndWindow()
	for _, m := range media {
		m.FlushBoundary()
	}
	for i := 0; i < group.Shards(); i++ {
		group.Shard(i).RunUntil(2.0)
	}
	for _, i := range []int{0, 2, 3} {
		if len(sinks[i].got) != 1 || sinks[i].got[0].from != 1 {
			t.Fatalf("node %d deliveries %+v, want one from 1", i, sinks[i].got)
		}
		if at := sinks[i].got[0].at; at != 1.0+w {
			t.Fatalf("node %d delivered at %g, want %g", i, at, 1.0+w)
		}
	}
}

// TestShardedNeighborIDs pins the global-index neighbour listing on sharded
// media: dense index == node ID by the builder contract.
func TestShardedNeighborIDs(t *testing.T) {
	_, media, _ := shardFixture(t)
	got := media[0].NeighborIDs(1)
	want := []NodeID{0, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("NeighborIDs(1) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NeighborIDs(1) = %v, want %v", got, want)
		}
	}
}

// TestShardedMediaPanics pins every loud failure mode of the sharded
// configuration contract.
func TestShardedMediaPanics(t *testing.T) {
	field := geom.R(0, 0, 100, 100)
	positions := []geom.Vec2{geom.V(10, 50), geom.V(13, 50)}
	topo := CompileTopology(field, positions, 5)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("non-UnitDisk loss", func() {
		NewShardedMedia(sim.NewShardGroup(2), field, energy.Telos(), LossyDisk{Range: 5, LossProb: 0.1}, topo, []int32{0, 1}, 12)
	})
	expectPanic("owner/topology mismatch", func() {
		NewShardedMedia(sim.NewShardGroup(2), field, energy.Telos(), UnitDisk{Range: 5}, topo, []int32{0}, 12)
	})
	expectPanic("invalid minWire", func() {
		NewShardedMedia(sim.NewShardGroup(2), field, energy.Telos(), UnitDisk{Range: 5}, topo, []int32{0, 1}, 0)
	})

	group := sim.NewShardGroup(2)
	media := NewShardedMedia(group, field, energy.Telos(), UnitDisk{Range: 5}, topo, []int32{0, 1}, 12)
	media[0].AddNode(0, positions[0], &sink{k: media[0].kernel}, nil)
	expectPanic("broadcast from a non-local sender", func() {
		media[0].Broadcast(1, Envelope{Kind: KindRequest, Wire: 12})
	})
	expectPanic("broadcast below the window lookahead", func() {
		media[0].Broadcast(0, Envelope{Kind: KindRequest, Wire: 8})
	})
	expectPanic("node outside the sharded topology", func() {
		media[1].AddNode(7, geom.V(20, 50), &sink{k: media[1].kernel}, nil)
	})
	expectPanic("EnableCollisions on a sharded medium", func() { media[0].EnableCollisions() })
	expectPanic("EnableCSMA on a sharded medium", func() { media[0].EnableCSMA(DefaultCSMA()) })
}

// TestHopClasses pins the hop classes of NewShardedMedia against brute-force
// shortest paths on random layouts cut into 2, 3 and 8 strips: a node's class
// is the fewest hops along same-shard links from it to a node with a link
// into another shard, or the cap when there is no such path. Every layout
// carries a linked pair far from the rest, which has none.
func TestHopClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	field := geom.R(0, 0, 200, 100)
	const radius = 10
	for _, shards := range []int{2, 3, 8} {
		for trial := 0; trial < 4; trial++ {
			n := 160 + rng.Intn(80)
			positions := make([]geom.Vec2, n)
			for i := range positions {
				positions[i] = geom.V(rng.Float64()*100, rng.Float64()*100)
			}
			positions[n-2], positions[n-1] = geom.V(190, 50), geom.V(195, 50)
			// Equal-count strips by x, as the network builder cuts them: the
			// isolated pair lands in the last one.
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool { return positions[order[a]].X < positions[order[b]].X })
			owner := make([]int32, n)
			for rank, i := range order {
				owner[i] = int32(rank * shards / n)
			}
			topo := CompileTopology(field, positions, radius)
			media := NewShardedMedia(sim.NewShardGroup(shards), field, energy.Telos(), UnitDisk{Range: radius}, topo, owner, 12)

			// Bellman–Ford over each node's own links: i reaches another
			// shard one hop after any same-shard neighbour j it transmits to.
			want := make([]int, n)
			for i := range want {
				want[i] = math.MaxInt
				row, _ := topo.Row(i)
				for _, j := range row {
					if owner[j] != owner[i] {
						want[i] = 0
					}
				}
			}
			for changed := true; changed; {
				changed = false
				for i := range want {
					row, _ := topo.Row(i)
					for _, j := range row {
						if owner[j] == owner[i] && want[j] != math.MaxInt && want[j]+1 < want[i] {
							want[i], changed = want[j]+1, true
						}
					}
				}
			}
			deep := 0
			for i := range want {
				w := uint16(math.MaxUint16)
				if want[i] != math.MaxInt {
					w = uint16(want[i])
					deep = max(deep, want[i])
				}
				if got := media[owner[i]].HopClass(NodeID(i)); got != w {
					t.Fatalf("shards=%d trial %d: node %d has hop class %d, shortest path says %d", shards, trial, i, got, w)
				}
			}
			if got := media[0].HopClass(NodeID(n - 1)); got != math.MaxUint16 {
				t.Fatalf("shards=%d: isolated node has class %d, want the cap", shards, got)
			}
			if deep < 1 {
				t.Fatalf("shards=%d trial %d: every reachable node is a boundary node; the layout tests no search", shards, trial)
			}
		}
	}
	if got := NewMedium(sim.NewKernel(), field, energy.Telos(), UnitDisk{Range: radius}, nil).HopClass(0); got != 0 {
		t.Fatalf("serial medium reports hop class %d, want 0", got)
	}
}

// stampSink schedules one event a second after each delivery it accepts.
type stampSink struct {
	k *sim.Kernel
}

func (s *stampSink) Deliver(NodeID, Envelope) {
	s.k.Schedule(1, func(*sim.Kernel) {})
}

// TestShardedClassStamps pins the hop class sharded events carry, read back
// through WindowEnd: a local fan-out takes its nearest receiver's class, the
// broadcasting handler keeps its own, and what a receiver schedules on
// delivery takes the receiver's. The line links neighbours only and is cut
// 4|1, so its classes are 3 2 1 0 | 0.
func TestShardedClassStamps(t *testing.T) {
	field := geom.R(0, 0, 100, 100)
	var positions []geom.Vec2
	for i := 0; i < 5; i++ {
		positions = append(positions, geom.V(10+4*float64(i), 50))
	}
	owner := []int32{0, 0, 0, 0, 1}
	topo := CompileTopology(field, positions, 5)
	group := sim.NewShardGroup(2)
	media := NewShardedMedia(group, field, energy.Telos(), UnitDisk{Range: 5}, topo, owner, 12)
	for i, pos := range positions {
		m := media[owner[i]]
		// Node 2 sleeps, so only node 0 (class 3) acts on node 1's broadcast.
		m.AddNode(NodeID(i), pos, &stampSink{k: m.kernel}, nil)
		m.SetListening(NodeID(i), i != 2)
	}
	for i, want := range []uint16{3, 2, 1, 0, 0} {
		if got := media[owner[i]].HopClass(NodeID(i)); got != want {
			t.Fatalf("node %d has hop class %d, want %d", i, got, want)
		}
	}
	w := energy.Telos().TxTime(12)
	// windowEnd is WindowEnd over one event at `at` of class cls.
	windowEnd := func(at float64, cls uint16) float64 {
		ref := sim.NewShardGroup(2)
		ref.Shard(0).SetClass(cls)
		ref.Shard(0).ScheduleAt(at, func(*sim.Kernel) {})
		return ref.WindowEnd(w)
	}

	group.BeginWindows()
	k := media[0].kernel
	k.SetClass(2) // as node 1's own handler runs
	media[0].Broadcast(1, Envelope{Kind: KindRequest, Wire: 12})
	if prev := k.SetClass(0); prev != 2 {
		t.Fatalf("broadcast left the handler's class at %d, want 2", prev)
	}
	if got, want := group.WindowEnd(w), windowEnd(w, 1); got != want {
		t.Fatalf("fan-out to classes 3 and 1: WindowEnd = %v, want %v (class 1)", got, want)
	}
	k.Step() // the fan-out: node 0 schedules, node 2 sleeps
	if got, want := group.WindowEnd(w), windowEnd(w+1, 3); got != want {
		t.Fatalf("after delivery to node 0: WindowEnd = %v, want %v (class 3)", got, want)
	}
}
