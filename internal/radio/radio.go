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
package radio

import (
	"fmt"
	"sort"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sim"
)

// NodeID identifies a node on the medium. IDs are small dense integers
// assigned by the deployment.
type NodeID int

// Receiver is the delivery interface a node exposes to the medium.
type Receiver interface {
	// Listening reports whether the transceiver can currently receive
	// (false while the node sleeps or has failed).
	Listening() bool
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
	idx      int // dense index in ids/eps while a topology is compiled
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

	endpoints map[NodeID]*endpoint
	slab      []endpoint // bulk endpoint storage (Reserve), never reallocated
	positions []geom.Vec2
	ids       []NodeID
	eps       []*endpoint // dense endpoints aligned with ids/positions
	bounds    geom.Rect
	stats     Stats

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
		kernel:    k,
		profile:   profile,
		loss:      loss,
		stream:    stream,
		endpoints: make(map[NodeID]*endpoint),
		bounds:    bounds,
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
// map is allocated at its final size and the per-node records come from one
// slab, so bulk network construction performs O(1) allocations here instead
// of O(n). Call before the first AddNode; reserving mid-registration only
// covers the nodes that still fit the slab (the rest fall back to individual
// allocations, which is correct, just slower).
func (m *Medium) Reserve(n int) {
	if len(m.endpoints) == 0 {
		m.endpoints = make(map[NodeID]*endpoint, n)
	}
	if m.slab == nil {
		m.slab = make([]endpoint, 0, n)
	}
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

// AddNode registers a node at a fixed position. The meter may be nil for
// unmetered observers. Adding a duplicate ID panics — deployments assign
// unique dense IDs. Adding a node after the topology froze (first broadcast)
// invalidates it; the next broadcast recompiles over the enlarged registry.
func (m *Medium) AddNode(id NodeID, pos geom.Vec2, r Receiver, meter *energy.Meter) {
	if _, dup := m.endpoints[id]; dup {
		panic(fmt.Sprintf("radio: duplicate node %d", id))
	}
	var ep *endpoint
	if len(m.slab) < cap(m.slab) {
		m.slab = m.slab[:len(m.slab)+1]
		ep = &m.slab[len(m.slab)-1]
	} else {
		ep = &endpoint{}
	}
	*ep = endpoint{id: id, pos: pos, receiver: r, meter: meter}
	m.endpoints[id] = ep
	if m.shard != nil {
		// Sharded media are built over a pre-frozen global topology: the
		// node's dense index is its ID (the builder registers dense IDs in
		// order) and the topology must never be invalidated or recompiled.
		if int(id) >= len(m.shard.localEp) {
			panic(fmt.Sprintf("radio: node %d outside the sharded topology (%d nodes)", id, len(m.shard.localEp)))
		}
		ep.idx = int(id)
		m.shard.localEp[id] = ep
		return
	}
	m.topo = nil // invalidate the frozen topology
}

// freeze compiles the registered node set into the CSR topology the
// broadcast path walks. The id/position/endpoint slices are reused across
// freezes so re-freezing after a late AddNode allocates only what the
// topology compilation itself needs. An injected preset (SetTopology) is
// adopted instead of compiling when its node count and range still match.
func (m *Medium) freeze() {
	if m.shard != nil {
		panic("radio: sharded medium must not recompile its topology")
	}
	m.ids = m.ids[:0]
	for id := range m.endpoints {
		m.ids = append(m.ids, id)
	}
	sort.Slice(m.ids, func(i, j int) bool { return m.ids[i] < m.ids[j] })
	m.positions = m.positions[:0]
	m.eps = m.eps[:0]
	for i, id := range m.ids {
		ep := m.endpoints[id]
		ep.idx = i
		m.positions = append(m.positions, ep.pos)
		m.eps = append(m.eps, ep)
	}
	if m.preset != nil && m.preset.n == len(m.ids) && m.preset.maxRange == m.loss.MaxRange() {
		m.topo = m.preset
		return
	}
	m.topo = CompileTopology(m.bounds, m.positions, m.loss.MaxRange())
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
	ep, ok := m.endpoints[id]
	if !ok {
		return nil
	}
	if m.topo == nil {
		m.freeze()
	}
	row, _ := m.topo.Row(ep.idx)
	var out []NodeID
	for _, j := range row {
		if m.shard != nil {
			// Sharded media index the global topology directly: dense index
			// and node ID coincide by the builder contract.
			out = append(out, NodeID(j))
			continue
		}
		out = append(out, m.ids[j])
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
	if m.shard != nil {
		m.broadcastSharded(from, env)
		return
	}
	sender, ok := m.endpoints[from]
	if !ok {
		panic(fmt.Sprintf("radio: broadcast from unregistered node %d", from))
	}
	if m.topo == nil {
		m.freeze()
	}
	if m.csma != nil && m.channelBusyAt(sender.pos, m.kernel.Now()) {
		m.deferBroadcast(from, env, 1)
		return
	}
	m.stats.Broadcasts++
	m.stats.BytesSent += env.Size()
	if sender.meter != nil {
		sender.meter.ChargeTxBytes(env.Size())
	}
	txTime := m.profile.TxTime(env.Size())
	now := m.kernel.Now()
	end := now + txTime
	if m.csma != nil {
		m.inFlight = append(m.inFlight, flight{pos: sender.pos, end: end})
	}

	d := m.newDelivery()
	d.from = from
	d.env = env
	d.txTime = txTime
	d.end = end

	row, dists := m.topo.Row(sender.idx)
	if cap(d.targets) < len(row) {
		// The row length bounds the fan-out exactly, so one right-sized
		// allocation per pooled record replaces the append growth chain.
		d.targets = make([]*endpoint, 0, len(row))
	}
	for k, j := range row {
		target := m.eps[j]
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
			m.kernel.SetClass(m.shard.class[target.idx])
		}
		if m.collisions && d.end <= target.corruptUntil+1e-12 {
			m.stats.DroppedCollision++
			continue
		}
		if !target.receiver.Listening() {
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
	sender := m.endpoints[from]
	m.kernel.Schedule(backoff, func(*sim.Kernel) {
		if !sender.receiver.Listening() {
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
	if ep, ok := m.endpoints[id]; ok && t > ep.deafUntil {
		ep.deafUntil = t
	}
}

// Stats returns a copy of the medium's counters.
func (m *Medium) Stats() Stats { return m.stats }

// NodeCount returns the number of registered nodes.
func (m *Medium) NodeCount() int { return len(m.endpoints) }

// Position returns the registered position of a node.
func (m *Medium) Position(id NodeID) (geom.Vec2, bool) {
	ep, ok := m.endpoints[id]
	if !ok {
		return geom.Vec2{}, false
	}
	return ep.pos, true
}
