// Package radio simulates the broadcast wireless channel between sensor
// nodes: message timing derived from the platform data rate, a pluggable
// link-loss model (unit disk, uniformly lossy, distance falloff), optional
// collision modelling, and energy charging of transmitters and receivers.
//
// The paper's experiments use a 10 m transmission range with Telos timing
// (250 kbps); the imperfect-channel extension experiments swap in the lossy
// models, which the paper lists as future work.
//
// # Zero-allocation delivery
//
// Model-exchange traffic (REQUEST/RESPONSE bursts) dominates every PAS
// experiment, so the broadcast→delivery path allocates nothing at steady
// state: every message travels as a value-dispatch Envelope (a small
// pointer-free tagged union), and each broadcast schedules ONE kernel event
// whose argument is a pooled delivery record — receiver list and payload
// reused across broadcasts — instead of one closure per receiver. Loss draws and collision bookkeeping
// happen at transmit time, exactly as the per-receiver events did, and the
// fan-out applies the delivery-time checks in the same receiver order, so
// batching is observationally identical (the determinism tests and golden
// traces pin this).
//
// # Frozen topology
//
// Deployments are static — no node ever moves — so on the first broadcast
// after registration settles the medium freezes its connectivity into a CSR
// Topology: per sender, the in-range receiver candidates (ascending ID,
// self excluded) with their link distances precomputed. Broadcast then walks
// a flat row instead of re-scanning spatial-hash buckets and re-deriving
// distances on every transmission. Candidate membership and order follow the
// exact rule the live hash query used, and the per-broadcast loss draws,
// collision/CSMA bookkeeping and alive-at-delivery checks are untouched, so
// the frozen path is byte-identical to the scanning one (golden traces pin
// this). A precompiled Topology can also be injected with SetTopology so
// runs sharing one deployment share one compilation. Invalidation rule:
// AddNode after the freeze drops the compiled topology and the next
// broadcast recompiles over the enlarged registry.
//
// Endpoints live in one table indexed by NodeID, and node i is topology row
// i. Whether a node can receive is a bit its owner pushes with SetListening
// whenever the node sleeps, wakes, fails or recovers, so a fan-out target
// that is asleep, the commonest outcome of a broadcast, costs one load.
package radio

import (
	"fmt"
	"slices"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sim"
)

// NodeID identifies a node on the medium. IDs are dense non-negative
// integers assigned by the deployment (0..n-1): the medium indexes its
// endpoint table and the topology rows by them.
type NodeID int

// Receiver is the delivery interface a node exposes to the medium; whether
// it can receive is pushed by its owner (Medium.SetListening).
type Receiver interface {
	// Deliver hands over a successfully received message envelope.
	Deliver(from NodeID, env Envelope)
}

// LossModel decides whether one transmission reaches one receiver.
type LossModel interface {
	// Delivers reports whether a packet crosses a link of the given length.
	// It may consume randomness from st.
	Delivers(dist float64, st *rng.Stream) bool
	// MaxRange returns the distance beyond which delivery is impossible,
	// used to bound the neighbour search.
	MaxRange() float64
}

// UnitDisk delivers every packet within Range and none beyond — the model of
// the paper's main experiments.
type UnitDisk struct {
	Range float64
}

// Delivers implements LossModel.
func (u UnitDisk) Delivers(dist float64, _ *rng.Stream) bool { return dist <= u.Range }

// MaxRange implements LossModel.
func (u UnitDisk) MaxRange() float64 { return u.Range }

// LossyDisk delivers packets within Range with probability 1−LossProb,
// independently per packet — the simplest imperfect-channel model.
type LossyDisk struct {
	Range    float64
	LossProb float64
}

// Delivers implements LossModel.
func (l LossyDisk) Delivers(dist float64, st *rng.Stream) bool {
	if dist > l.Range {
		return false
	}
	return !st.Bernoulli(l.LossProb)
}

// MaxRange implements LossModel.
func (l LossyDisk) MaxRange() float64 { return l.Range }

// DistanceFalloff has a perfect inner disc of radius Reliable and a packet
// reception ratio that decays linearly to zero at Max — the classic
// "transitional region" abstraction of low-power radios.
type DistanceFalloff struct {
	Reliable float64
	Max      float64
}

// Delivers implements LossModel.
func (d DistanceFalloff) Delivers(dist float64, st *rng.Stream) bool {
	switch {
	case dist <= d.Reliable:
		return true
	case dist >= d.Max:
		return false
	default:
		prr := 1 - (dist-d.Reliable)/(d.Max-d.Reliable)
		return st.Bernoulli(prr)
	}
}

// MaxRange implements LossModel.
func (d DistanceFalloff) MaxRange() float64 { return d.Max }

// Stats counts medium activity for the metric reports.
type Stats struct {
	Broadcasts       int // transmissions initiated
	Delivered        int // per-receiver successful deliveries
	DroppedLoss      int // killed by the loss model
	DroppedSleeping  int // receiver was not listening at delivery time
	DroppedCollision int // destroyed by overlapping transmissions
	BytesSent        int
	CSMADeferred     int // transmissions postponed by carrier sense
	CSMAGaveUp       int // transmissions dropped after exhausting backoffs
}

// CSMAConfig parameterizes carrier-sense multiple access.
type CSMAConfig struct {
	// MinBackoff/MaxBackoff bound the uniform random deferral when the
	// channel is sensed busy.
	MinBackoff, MaxBackoff float64
	// MaxAttempts bounds the retries before the frame is dropped.
	MaxAttempts int
}

// DefaultCSMA returns backoff parameters scaled to ~1–10 frame times at
// 250 kbps.
func DefaultCSMA() CSMAConfig {
	return CSMAConfig{MinBackoff: 0.002, MaxBackoff: 0.02, MaxAttempts: 5}
}

// endpoint is the per-node state the medium tracks.
type endpoint struct {
	id       NodeID
	pos      geom.Vec2
	receiver Receiver
	meter    *energy.Meter
	// listening is false while the node sleeps or has failed (SetListening).
	listening bool
	// Collision bookkeeping. busyUntil is the end of the latest reception in
	// flight; corruptUntil marks the window in which every reception has
	// been destroyed by an overlap.
	busyUntil    float64
	corruptUntil float64
	// deafUntil is the instant the node last rebooted (churn recovery): a
	// transmission whose preamble started before it cannot be received, even
	// though the node is listening again by delivery time. Zero for nodes
	// that never recovered.
	deafUntil float64
}

// Medium is the shared broadcast channel. It is bound to a simulation kernel
// and delivers messages as scheduled events after the on-air transmission
// time. Not safe for concurrent use (the kernel is single-goroutine).
//
// Registration is expected to settle before traffic starts: the first
// broadcast (or NeighborIDs query) freezes the node set into a CSR Topology
// that every subsequent broadcast walks. AddNode after the freeze is legal
// but drops the compiled topology — the next broadcast recompiles it over
// the enlarged registry (an injected SetTopology topology is re-adopted only
// if it still matches the node count and range; otherwise the medium
// compiles its own).
type Medium struct {
	kernel     *sim.Kernel
	profile    energy.Profile
	loss       LossModel
	stream     *rng.Stream
	collisions bool

	byID   []*endpoint // endpoint table indexed by NodeID; nil = unregistered
	slab   []endpoint  // bulk endpoint storage (Reserve), never reallocated
	bounds geom.Rect
	stats  Stats

	topo   *Topology // frozen CSR connectivity; nil until first use or after AddNode
	preset *Topology // injected precompiled topology (SetTopology), adopted at freeze

	csma     *CSMAConfig
	inFlight []flight // active transmissions, pruned lazily

	// Batched delivery: each broadcast schedules ONE kernel event whose arg
	// is a pooled delivery record, instead of one closure per receiver.
	freeDeliveries []*delivery    // recycled records
	deliverFn      sim.ArgHandler // long-lived dispatch handler, built once

	// shard, when non-nil, makes this medium one spatial shard of a sharded
	// run (see shard.go). Nil for ordinary serial media, so the serial
	// broadcast path is untouched.
	shard *shardLink
}

// flight is one transmission in the air (for carrier sensing).
type flight struct {
	pos geom.Vec2
	end float64
}

// delivery is one broadcast's pooled fan-out record: the receivers that
// passed the loss model at transmit time plus everything the delivery-time
// checks need. Records are recycled through Medium.freeDeliveries, so the
// receiver slice and the envelope storage are reused across broadcasts and a
// steady-state broadcast→delivery cycle allocates nothing.
type delivery struct {
	from    NodeID
	env     Envelope
	txTime  float64
	end     float64
	targets []*endpoint
	// rowPos holds each target's position in the sender's global CSR row —
	// only on sharded media, where split fan-out fragments must re-align
	// their intra-fan-out schedule order (sim.SetFanKey). Empty on serial
	// media.
	rowPos []int32
}

// NewMedium creates a broadcast medium over the given field. The stream
// drives loss draws; pass a dedicated sub-stream (e.g. source.Stream
// ("channel")).
func NewMedium(k *sim.Kernel, bounds geom.Rect, profile energy.Profile, loss LossModel, stream *rng.Stream) *Medium {
	if loss == nil {
		panic("radio: nil loss model")
	}
	if err := profile.Validate(); err != nil {
		panic(fmt.Sprintf("radio: invalid profile: %v", err))
	}
	m := &Medium{
		kernel:  k,
		profile: profile,
		loss:    loss,
		stream:  stream,
		bounds:  bounds,
	}
	// One dispatch closure for the lifetime of the medium; every broadcast
	// reuses it with its pooled record as the event arg.
	m.deliverFn = func(_ *sim.Kernel, arg any) { m.runDelivery(arg.(*delivery)) }
	return m
}

// EnableCollisions turns on destructive-collision modelling: transmissions
// that overlap in time at a receiver destroy each other. Not available on
// sharded media — collision bookkeeping mutates receiver state at transmit
// time, which would race across shards.
func (m *Medium) EnableCollisions() {
	if m.shard != nil {
		panic("radio: collision modelling is not available on sharded media")
	}
	m.collisions = true
}

// EnableCSMA turns on carrier-sense multiple access: a transmission that
// would start while another transmission is audible at the sender defers by
// a uniform random backoff, retrying up to the configured attempts before
// being dropped. Senders that go to sleep while deferring abandon the frame.
func (m *Medium) EnableCSMA(cfg CSMAConfig) {
	if m.shard != nil {
		panic("radio: CSMA is not available on sharded media")
	}
	if cfg.MinBackoff <= 0 || cfg.MaxBackoff <= cfg.MinBackoff || cfg.MaxAttempts < 1 {
		panic(fmt.Sprintf("radio: invalid CSMA config %+v", cfg))
	}
	m.csma = &cfg
}

// channelBusyAt reports whether any transmission is audible at pos now.
func (m *Medium) channelBusyAt(pos geom.Vec2, now float64) bool {
	live := m.inFlight[:0]
	busy := false
	rng2 := m.loss.MaxRange()
	for _, f := range m.inFlight {
		if f.end <= now {
			continue
		}
		live = append(live, f)
		if f.pos.Dist(pos) <= rng2 {
			busy = true
		}
	}
	m.inFlight = live
	return busy
}

// Reserve pre-sizes the registry for n upcoming AddNode calls: the endpoint
// table is allocated for IDs 0..n-1 and the per-node records come from one
// slab, so bulk network construction performs O(1) allocations here instead
// of O(n). Call before the first AddNode; reserving mid-registration only
// covers the nodes that still fit the slab (the rest fall back to individual
// allocations, which is correct, just slower).
func (m *Medium) Reserve(n int) {
	if m.byID == nil {
		m.byID = make([]*endpoint, 0, n)
	}
	if m.slab == nil {
		m.slab = make([]endpoint, 0, n)
	}
}

// lookup returns node id's endpoint, or nil when id is not registered here.
func (m *Medium) lookup(id NodeID) *endpoint {
	if uint(id) < uint(len(m.byID)) {
		return m.byID[id]
	}
	return nil
}

// SetTopology injects a precompiled connectivity graph, sparing the medium
// its own compilation at freeze time. The caller promises the topology was
// compiled with CompileTopology over exactly the positions of the nodes that
// will be registered, in ascending-ID order, at the loss model's MaxRange —
// the experiment harness guarantees this by compiling from the same memoized
// deployment it registers nodes from. The medium re-checks the cheap
// invariants (node count, range) at freeze and falls back to compiling its
// own topology when they do not hold; the positions contract itself is NOT
// verified (an O(n) check would defeat the sharing), so a preset compiled
// over different positions that happens to match in count and range is
// adopted and silently mis-routes every broadcast. Only inject topologies
// compiled from the very position set being registered.
func (m *Medium) SetTopology(t *Topology) {
	m.preset = t
	m.topo = nil
}

// AddNode registers a node at a fixed position; it starts out listening. The
// meter may be nil for unmetered observers. A negative or duplicate ID panics
// — deployments assign unique dense IDs, and the endpoint table grows to the
// largest one; a gap in the IDs panics at the freeze. Adding a node after the
// topology froze (first broadcast) invalidates it; the next broadcast
// recompiles over the enlarged registry.
func (m *Medium) AddNode(id NodeID, pos geom.Vec2, r Receiver, meter *energy.Meter) {
	if id < 0 {
		panic(fmt.Sprintf("radio: negative node ID %d", id))
	}
	if m.shard != nil && int(id) >= len(m.byID) {
		panic(fmt.Sprintf("radio: node %d outside the sharded topology (%d nodes)", id, len(m.byID)))
	}
	if m.lookup(id) != nil {
		panic(fmt.Sprintf("radio: duplicate node %d", id))
	}
	var ep *endpoint
	if len(m.slab) < cap(m.slab) {
		m.slab = m.slab[:len(m.slab)+1]
		ep = &m.slab[len(m.slab)-1]
	} else {
		ep = &endpoint{}
	}
	*ep = endpoint{id: id, pos: pos, receiver: r, meter: meter, listening: true}
	for int(id) >= len(m.byID) {
		m.byID = append(m.byID, nil)
	}
	m.byID[id] = ep
	if m.shard == nil { // a sharded medium's global topology never recompiles
		m.topo = nil // invalidate the frozen topology
	}
}

// SetListening records whether registered node id's transceiver can
// receive: false while it sleeps or has failed. The node's owner calls it at
// every such change; delivery and the CSMA retry read the bit when they
// happen.
func (m *Medium) SetListening(id NodeID, on bool) { m.byID[id].listening = on }

// freeze compiles the registered node set into the CSR topology the
// broadcast path walks, row i for node i. An injected preset (SetTopology)
// is adopted instead of compiling when its node count and range still match.
func (m *Medium) freeze() {
	if m.shard != nil {
		panic("radio: sharded medium must not recompile its topology")
	}
	if gap := slices.Index(m.byID, nil); gap >= 0 {
		panic(fmt.Sprintf("radio: node IDs must be dense, but node %d of 0..%d is not registered", gap, len(m.byID)-1))
	}
	if m.preset != nil && m.preset.n == len(m.byID) && m.preset.maxRange == m.loss.MaxRange() {
		m.topo = m.preset
		return
	}
	positions := make([]geom.Vec2, len(m.byID))
	for i, ep := range m.byID {
		positions[i] = ep.pos
	}
	m.topo = CompileTopology(m.bounds, positions, m.loss.MaxRange())
}

// Topology returns the frozen connectivity, compiling it if registration
// changed since the last freeze.
func (m *Medium) Topology() *Topology {
	if m.topo == nil {
		m.freeze()
	}
	return m.topo
}

// NeighborIDs returns the IDs of all registered nodes within the loss
// model's maximum range of node id (excluding id itself), in ascending
// order. Protocols do not call this — they discover neighbours with
// REQUEST/RESPONSE traffic — but deployment validation and tests do.
func (m *Medium) NeighborIDs(id NodeID) []NodeID {
	if m.lookup(id) == nil {
		return nil
	}
	row, _ := m.Topology().Row(int(id))
	var out []NodeID
	for _, j := range row {
		out = append(out, NodeID(j))
	}
	return out
}

// TxTime returns the on-air duration of an envelope in seconds.
func (m *Medium) TxTime(env Envelope) float64 { return m.profile.TxTime(env.Size()) }

// newDelivery pops a recycled delivery record (or grows the pool). Records
// may be live concurrently — an agent reacting to a delivery can broadcast
// immediately, claiming a second record before the first is recycled.
func (m *Medium) newDelivery() *delivery {
	if n := len(m.freeDeliveries); n > 0 {
		d := m.freeDeliveries[n-1]
		m.freeDeliveries = m.freeDeliveries[:n-1]
		return d
	}
	return &delivery{}
}

// transmit counts and charges one transmission of env by sender and returns
// its fan-out record, due one transmission time from now.
func (m *Medium) transmit(sender *endpoint, env Envelope) *delivery {
	m.stats.Broadcasts++
	m.stats.BytesSent += env.Size()
	if sender.meter != nil {
		sender.meter.ChargeTxBytes(env.Size())
	}
	d := m.newDelivery()
	d.from, d.env = sender.id, env
	d.txTime = m.profile.TxTime(env.Size())
	d.end = m.kernel.Now() + d.txTime
	return d
}

// freeDelivery recycles a record; the target slice keeps its capacity.
func (m *Medium) freeDelivery(d *delivery) {
	d.targets = d.targets[:0]
	d.rowPos = d.rowPos[:0]
	m.freeDeliveries = append(m.freeDeliveries, d)
}

// Broadcast transmits env from the given node to every listening neighbour
// that the loss model lets through. Delivery happens one transmission time
// after the call. The sender is charged transmit energy immediately.
//
// The whole fan-out is ONE kernel event: the receivers that pass the loss
// model are recorded in a pooled delivery record at transmit time (loss
// randomness and collision bookkeeping are transmit-time effects), and the
// per-receiver delivery-time checks (collision window, listening state,
// receive energy) run inside the record's single scheduled event, in the
// same receiver order the per-receiver events used to execute in — so the
// batching is observationally identical but allocation-free.
//
// The candidate set is a row of the frozen CSR topology: the same in-range
// receivers, in the same ascending order, with the same precomputed
// distances a live spatial-hash query would derive — only the O(buckets)
// window scan, the distance recomputation and the candidate sort are gone.
func (m *Medium) Broadcast(from NodeID, env Envelope) {
	sender := m.lookup(from)
	if sender == nil {
		panic(fmt.Sprintf("radio: broadcast from node %d, which is not registered on this medium", from))
	}
	if m.shard != nil {
		m.broadcastSharded(sender, env)
		return
	}
	if m.topo == nil {
		m.freeze()
	}
	now := m.kernel.Now()
	if m.csma != nil && m.channelBusyAt(sender.pos, now) {
		m.deferBroadcast(from, env, 1)
		return
	}
	d := m.transmit(sender, env)
	end := d.end
	if m.csma != nil {
		m.inFlight = append(m.inFlight, flight{pos: sender.pos, end: end})
	}

	row, dists := m.topo.Row(int(from))
	if cap(d.targets) < len(row) {
		// The row length bounds the fan-out exactly, so one right-sized
		// allocation per pooled record replaces the append growth chain.
		d.targets = make([]*endpoint, 0, len(row))
	}
	for k, j := range row {
		target := m.byID[j]
		if !m.loss.Delivers(dists[k], m.stream) {
			m.stats.DroppedLoss++
			continue
		}
		if m.collisions {
			if target.busyUntil > now+1e-12 {
				// Overlap with a reception in flight: that packet and this
				// one are both destroyed. Extend the corruption window over
				// both transmissions.
				w := target.busyUntil
				if end > w {
					w = end
				}
				if w > target.corruptUntil {
					target.corruptUntil = w
				}
			}
			if end > target.busyUntil {
				target.busyUntil = end
			}
		}
		d.targets = append(d.targets, target)
	}
	if len(d.targets) == 0 {
		m.freeDelivery(d)
		return
	}
	m.kernel.ScheduleArgAt(end, m.deliverFn, d)
}

// runDelivery fans one broadcast out to its recorded receivers, applying the
// delivery-time checks the per-receiver events used to apply, then recycles
// the record. An agent's Deliver may broadcast immediately; that nested call
// claims its own record, so the one being iterated is never mutated.
func (m *Medium) runDelivery(d *delivery) {
	for i, target := range d.targets {
		if m.shard != nil {
			// Re-align the intra-fan-out schedule key space: events this
			// receiver's Deliver schedules must merge in global row order
			// with the fan-out's fragments on other shards. They act for
			// the receiver, so they carry its hop class.
			m.kernel.SetFanKey(int(d.rowPos[i]))
			m.kernel.SetClass(m.shard.class[target.id])
		}
		if m.collisions && d.end <= target.corruptUntil+1e-12 {
			m.stats.DroppedCollision++
			continue
		}
		if !target.listening {
			m.stats.DroppedSleeping++
			continue
		}
		if target.deafUntil > d.end-d.txTime+1e-12 {
			// The node rebooted after this transmission went on air: it was
			// down at preamble time and cannot have synchronized, listening
			// now or not.
			m.stats.DroppedSleeping++
			continue
		}
		if target.meter != nil {
			target.meter.ChargeRx(d.txTime)
		}
		m.stats.Delivered++
		target.receiver.Deliver(d.from, d.env)
	}
	m.freeDelivery(d)
}

// deferBroadcast schedules a CSMA retry after a random backoff. Deferrals
// are the congested slow path, so the retry closure's allocation is
// acceptable.
func (m *Medium) deferBroadcast(from NodeID, env Envelope, attempt int) {
	if attempt > m.csma.MaxAttempts {
		m.stats.CSMAGaveUp++
		return
	}
	m.stats.CSMADeferred++
	backoff := m.stream.Uniform(m.csma.MinBackoff, m.csma.MaxBackoff)
	sender := m.byID[from]
	m.kernel.Schedule(backoff, func(*sim.Kernel) {
		if !sender.listening {
			m.stats.CSMAGaveUp++ // sender slept or died while deferring
			return
		}
		if m.channelBusyAt(sender.pos, m.kernel.Now()) {
			m.deferBroadcast(from, env, attempt+1)
			return
		}
		m.Broadcast(from, env)
	})
}

// MarkDeafUntil records that node id was unable to hear any transmission
// that started before t (it rebooted at t). In-flight deliveries targeting
// it are dropped at delivery time; the frozen topology is untouched.
func (m *Medium) MarkDeafUntil(id NodeID, t float64) {
	if ep := m.lookup(id); ep != nil && t > ep.deafUntil {
		ep.deafUntil = t
	}
}

// Stats returns a copy of the medium's counters.
func (m *Medium) Stats() Stats { return m.stats }

// Position returns the registered position of a node.
func (m *Medium) Position(id NodeID) (geom.Vec2, bool) {
	ep := m.lookup(id)
	if ep == nil {
		return geom.Vec2{}, false
	}
	return ep.pos, true
}
