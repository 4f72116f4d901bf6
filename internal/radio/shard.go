// Sharded media: one Medium per spatial shard over ONE shared frozen
// Topology, with cross-shard broadcasts staged as boundary events and
// injected into the destination shard at window barriers.
//
// The serial medium turns a broadcast into ONE fan-out event covering the
// sender's whole CSR row. Sharding splits that row by receiver ownership:
// the local receivers keep the ordinary scheduled fan-out, and each remote
// shard's receivers become one boundary record carrying the sender's
// sequence reference. At the barrier the records are injected with the SAME
// resolved (time, seq) key as the local fragment (sim.InjectArgAt), and the
// delivery loop re-aligns intra-fan-out order through the receiver's global
// row position (sim.SetFanKey) — so the union of the fragments executes
// receiver-for-receiver like the serial fan-out event.
//
// Every node also gets a hop class (hopClasses): its radio distance to the
// edge of its strip. The kernel stamps it on the node's events and ends each
// window where the nearest of them could first reach another shard
// (sim.ShardGroup.WindowEnd).
//
// Sharded media support exactly the configuration whose transmit path is
// deterministic without a shared randomness stream or cross-shard state:
// UnitDisk loss (consumes no randomness), no collision modelling, no CSMA
// (both read/write receiver state at transmit time, which would race across
// shards and reorder draws). NewShardedMedia and the Enable* methods enforce
// this loudly; the experiment layer gates configurations before building.
package radio

import (
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/sim"
)

// shardLink is the per-medium sharding state: the group-wide wiring plus
// this shard's staging buffers.
type shardLink struct {
	group   *sim.ShardGroup
	media   []*Medium // all shards' media, indexed by shard
	owner   []int32   // global dense node index -> owning shard
	class   []uint16  // global dense node index -> hop class
	self    int32
	minWire int // smallest legal on-air size; the window-lookahead contract

	// out stages this shard's outbound boundary deliveries, one bucket per
	// destination shard, flushed at window barriers. bcastGen/outGen/outIdx
	// dedupe the per-broadcast entry: all remote receivers of one broadcast
	// on one destination shard share one record.
	out      [][]boundary
	bcastGen uint32
	outGen   []uint32
	outIdx   []int32
}

// boundary is one broadcast's remote fan-out fragment for one destination
// shard: everything the destination needs to reconstruct its part of the
// serial fan-out event.
type boundary struct {
	seq     uint64 // sender's sequence reference; resolved at flush time
	at      float64
	txTime  float64
	from    NodeID
	env     Envelope
	targets []int32 // global dense indices of the receivers, ascending
	rowPos  []int32 // matching positions in the sender's CSR row
}

// NewShardedMedia builds one Medium per shard of g over a single shared
// frozen topology. owner assigns each global dense node index to a shard;
// minWire is the smallest on-air message size any protocol in the run emits
// (its transmission time is the per-hop window lookahead, so a smaller
// broadcast would violate it and panics). All media share the
// loss model, which must be UnitDisk — the only model whose transmit path
// consumes no randomness.
func NewShardedMedia(g *sim.ShardGroup, bounds geom.Rect, profile energy.Profile, loss LossModel, topo *Topology, owner []int32, minWire int) []*Medium {
	if _, ok := loss.(UnitDisk); !ok {
		panic(fmt.Sprintf("radio: sharded media require UnitDisk loss, got %T", loss))
	}
	if topo == nil || len(owner) != topo.NodeCount() {
		panic("radio: shard owner map does not cover the topology")
	}
	if minWire < 1 {
		panic(fmt.Sprintf("radio: invalid minimum wire size %d", minWire))
	}
	s := g.Shards()
	media := make([]*Medium, s)
	class := hopClasses(topo, owner)
	for i := 0; i < s; i++ {
		m := NewMedium(g.Shard(i), bounds, profile, loss, nil)
		m.topo = topo
		// The endpoint table spans every global ID; only this shard's nodes
		// fill it.
		m.byID = make([]*endpoint, topo.NodeCount())
		m.shard = &shardLink{
			group:   g,
			media:   media,
			owner:   owner,
			class:   class,
			self:    int32(i),
			minWire: minWire,
			out:     make([][]boundary, s),
			outGen:  make([]uint32, s),
			outIdx:  make([]int32, s),
		}
		media[i] = m
	}
	return media
}

// hopClasses returns each node's hop class: the fewest radio hops, over
// links inside the node's own shard, from the node to one with a link into
// another shard (0 for such boundary nodes). A node of class c influences
// another shard no sooner than c+1 transmissions after one of its events.
// Classes saturate at math.MaxUint16, which is also the class of a node with
// no same-shard path to a boundary; both stay conservative. Topology rows
// are symmetric (one inclusive range rule), so a breadth-first search out of
// the boundary nodes along rows measures the distance into them.
func hopClasses(topo *Topology, owner []int32) []uint16 {
	n := topo.NodeCount()
	class := make([]uint16, n)
	queue := make([]int32, 0, n)
	for i := range class {
		class[i] = math.MaxUint16
		row, _ := topo.Row(i)
		for _, j := range row {
			if owner[j] != owner[i] {
				class[i] = 0
				queue = append(queue, int32(i))
				break
			}
		}
	}
	for head := 0; head < len(queue); head++ { // queue grows as it drains
		i := queue[head]
		if class[i] >= math.MaxUint16-1 {
			continue // every node still unreached already holds the cap
		}
		row, _ := topo.Row(int(i))
		for _, j := range row {
			if owner[j] == owner[i] && class[j] == math.MaxUint16 {
				class[j] = class[i] + 1
				queue = append(queue, j)
			}
		}
	}
	return class
}

// HopClass returns node id's hop class on a sharded medium (see hopClasses)
// and 0 on a serial one.
func (m *Medium) HopClass(id NodeID) uint16 {
	if m.shard == nil {
		return 0
	}
	return m.shard.class[id]
}

// broadcastSharded is the sharded Broadcast path: the local receivers of the
// sender's CSR row get the ordinary pooled fan-out event on this kernel; the
// remote receivers are staged as per-destination boundary records stamped
// with the fan-out's sequence reference.
func (m *Medium) broadcastSharded(sender *endpoint, env Envelope) {
	sh := m.shard
	if env.Size() < sh.minWire {
		panic(fmt.Sprintf("radio: %d-byte broadcast below the %d-byte window lookahead contract", env.Size(), sh.minWire))
	}
	d := m.transmit(sender, env)
	from, txTime, end := sender.id, d.txTime, d.end

	sh.bcastGen++
	staged := false
	cls := uint16(math.MaxUint16) // nearest local receiver's hop class
	row, dists := m.topo.Row(int(from))
	for k, j := range row {
		if !m.loss.Delivers(dists[k], m.stream) {
			m.stats.DroppedLoss++
			continue
		}
		if dst := sh.owner[j]; dst != sh.self {
			b := sh.stage(dst, from, env, txTime, end)
			b.targets = append(b.targets, j)
			b.rowPos = append(b.rowPos, int32(k))
			staged = true
			continue
		}
		d.targets = append(d.targets, m.byID[j])
		d.rowPos = append(d.rowPos, int32(k))
		cls = min(cls, sh.class[j])
	}

	// The serial kernel schedules exactly one fan-out event when any receiver
	// survives. Reproduce its sequence position: the local fragment's
	// schedule call if there is one, a reserved position otherwise.
	var seqRef uint64
	switch {
	case len(d.targets) > 0:
		prev := m.kernel.SetClass(cls)
		m.kernel.ScheduleArgAt(end, m.deliverFn, d)
		m.kernel.SetClass(prev)
		seqRef = m.kernel.LastSeq()
	case staged:
		m.freeDelivery(d)
		seqRef = m.kernel.ReserveSeq()
	default:
		m.freeDelivery(d)
		return
	}
	if staged {
		for dst := range sh.out {
			if sh.outGen[dst] == sh.bcastGen {
				sh.out[dst][sh.outIdx[dst]].seq = seqRef
			}
		}
		if sh.group.Direct() {
			// Construction mode is single-threaded with real sequence
			// numbers; deliver the boundary records immediately.
			m.FlushBoundary()
		}
	}
}

// stage returns this broadcast's boundary record for destination shard dst,
// creating it on first use. Records are recycled in place: a slot freed by
// the last flush keeps its target slices' capacity.
func (sh *shardLink) stage(dst int32, from NodeID, env Envelope, txTime, end float64) *boundary {
	if sh.outGen[dst] == sh.bcastGen {
		return &sh.out[dst][sh.outIdx[dst]]
	}
	buf := sh.out[dst]
	if len(buf) < cap(buf) {
		buf = buf[:len(buf)+1]
	} else {
		buf = append(buf, boundary{})
	}
	b := &buf[len(buf)-1]
	b.seq = 0
	b.at = end
	b.txTime = txTime
	b.from = from
	b.env = env
	b.targets = b.targets[:0]
	b.rowPos = b.rowPos[:0]
	sh.out[dst] = buf
	sh.outGen[dst] = sh.bcastGen
	sh.outIdx[dst] = int32(len(buf) - 1)
	return b
}

// FlushBoundary injects every staged boundary record into its destination
// shard's kernel at the broadcast's delivery time, under the resolved serial
// sequence number of the originating fan-out. Called single-threaded: at
// window barriers (after ShardGroup.EndWindow, while the sequence
// assignments are valid) and inline in direct mode.
func (m *Medium) FlushBoundary() {
	sh := m.shard
	for dst := range sh.out {
		entries := sh.out[dst]
		if len(entries) == 0 {
			continue
		}
		dm := sh.media[dst]
		for i := range entries {
			b := &entries[i]
			seq := sh.group.Resolve(int(sh.self), b.seq)
			d := dm.newDelivery()
			d.from = b.from
			d.env = b.env
			d.txTime = b.txTime
			d.end = b.at
			for _, j := range b.targets {
				d.targets = append(d.targets, dm.byID[j])
			}
			d.rowPos = append(d.rowPos, b.rowPos...)
			dm.kernel.InjectArgAt(b.at, seq, dm.deliverFn, d)
		}
		sh.out[dst] = entries[:0]
		sh.outGen[dst] = 0
	}
}
