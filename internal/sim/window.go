// Sharded execution: a ShardGroup runs S kernels — one per spatial shard —
// under conservative time windows, with output bit-identical to one serial
// kernel over the union of their events.
//
// # Why sequence numbers are the hard part
//
// The serial kernel breaks ties between equal-time events by seq, which it
// assigns in global scheduling order. A sharded run schedules concurrently,
// so per-shard counters would order equal-time events by shard interleaving —
// changing results whenever the shard count changes. The fix rests on one
// observation: the serial seq order is exactly the lexicographic order of
// (parent execution key, intra-parent schedule index), recursively — a parent
// that executes earlier (smaller (time, seq)) schedules its children before a
// later parent schedules its own, and one handler schedules its children in
// call order. That key is computable without running serially.
//
// # Window protocol
//
// Shards advance in lockstep windows, each ending where the earliest
// pending event could first influence another shard, so within a window the
// shards are causally independent. Influence crosses a strip boundary only by
// radio, and every transmission is on air for at least W, the shortest
// transmission time. Each event carries the hop class of the node it acts
// for: the fewest same-shard radio hops from that node to one with a link
// into another shard (radio.NewShardedMedia computes it once over the frozen
// topology). An event at time t of class c reaches another shard no sooner
// than t + (c+1)·W, and WindowEnd returns the minimum of that bound over
// every pending event: the Chandy–Misra–Bryant lookahead, with the radio
// graph as the channel map. Events inherit the class of the handler that
// schedules them. A delivery handler switches to each receiver's class
// (SetClass), a local fan-out takes its nearest receiver's, an injected
// boundary fragment is class 0 (its receivers border the sending shard), and
// outside any handler the class is 0, the bound with no lookahead to spare.
//
// During a window each shard assigns *provisional* sequence numbers (the
// high bit set, then the local log index) and appends one record per
// schedule call to its window log: the scheduling parent's execution key and
// the intra-parent call index k. Provisional numbers sort after every
// previously assigned serial number (the serial kernel would have scheduled
// those events later) and among themselves by local log order (the serial
// scheduling suborder of one causally isolated shard), so heap ordering
// inside the window is already serially correct.
//
// At the window barrier, EndWindow k-way merges the shard logs by
// (parentAt, resolved parent seq, k) — each log is sorted by that key, and a
// provisional parent reference always points at an earlier record of the
// same shard's log, so resolution never blocks — and assigns the real serial
// sequence numbers in merge order from the group counter. Still-pending
// events are re-keyed in place; assignment order is monotone along each
// shard's log, so re-keying preserves the heap invariant without re-sifting.
//
// Cross-shard broadcasts are the one place a single serial event splits
// across shards: the sharded radio schedules one local sub-fan-out and
// injects the remote sub-fan-outs with the SAME resolved sequence number
// (InjectArgAt), so every fragment of the serial fan-out event executes at
// the identical (time, seq) key. Intra-fan-out schedule order is preserved
// by SetFanKey, which offsets k by the receiver's global CSR row position.
//
// # Construction ("direct") mode
//
// Network construction and agent starts run single-threaded in global node
// order, exactly as a serial run would. In that mode every shard draws real
// sequence numbers straight from the shared group counter, so the pre-run
// event population carries byte-identical keys to the serial kernel's.
package sim

import (
	"fmt"
	"math"
)

// provSeqBit marks a provisional (window-local) sequence number. Real serial
// sequence numbers are counters starting at zero and can never reach bit 63.
const provSeqBit = uint64(1) << 63

// fanKeyShift is the per-receiver k-space reserved inside one fan-out event:
// receiver at global CSR row position p owns k ∈ [p<<fanKeyShift,
// (p+1)<<fanKeyShift). One delivery handler scheduling 2^20 events overflows
// into the next receiver's space, so nextSeq guards the limit.
const fanKeyShift = 20

// schedRec is one window-log entry: the serial-order key of one schedule
// call, plus the arena slot it produced so the barrier can re-key it.
type schedRec struct {
	parentAt  Time   // execution time of the scheduling event
	parentSeq uint64 // its seq — provisional if it was itself scheduled this window
	k         uint64 // intra-parent schedule call index
	slot      int32  // arena slot of the scheduled event; -1 for ReserveSeq
	gen       uint32 // slot generation at schedule time (stale → already executed)
}

// winSeq is the per-kernel shard sequencer: the current execution context
// (which event is running) and the window log of schedule calls.
type winSeq struct {
	g     *ShardGroup
	shard int
	log   []schedRec

	parentAt  Time
	parentSeq uint64
	kNext     uint64
	kLimit    uint64 // exclusive cap on kNext while inside a fan-out; 0 = none
	cls       uint16 // hop class stamped on the events scheduled next
}

// begin records the execution key and hop class of the event about to run
// (called by Step).
func (w *winSeq) begin(at Time, seq uint64, cls uint16) {
	w.parentAt = at
	w.parentSeq = seq
	w.kNext = 0
	w.kLimit = 0
	w.cls = cls
}

// nextSeq issues the sequence number for one schedule call. Direct mode
// draws a real serial number from the shared counter; windowed mode logs the
// call and issues a provisional number.
func (w *winSeq) nextSeq(slot int32, gen uint32) uint64 {
	if w.g.direct {
		s := w.g.counter
		w.g.counter++
		return s
	}
	if w.kLimit != 0 && w.kNext >= w.kLimit {
		panic("sim: one delivery scheduled 2^20 events, overflowing its fan-out key space")
	}
	idx := len(w.log)
	w.log = append(w.log, schedRec{parentAt: w.parentAt, parentSeq: w.parentSeq, k: w.kNext, slot: slot, gen: gen})
	w.kNext++
	return provSeqBit | uint64(idx)
}

// ShardGroup owns the kernels of one sharded simulation and the shared
// serial sequence space. All methods are single-threaded orchestration —
// only RunWindow/RunUntil on distinct shards may run concurrently.
type ShardGroup struct {
	shards  []*Kernel
	counter uint64 // next serial sequence number (shared across shards)
	direct  bool   // construction mode: real seqs, no logging

	// Barrier scratch, reused across windows. assigned[s][i] is the serial
	// seq the merge gave shard s's log entry i; it stays valid (for Resolve)
	// until the next EndWindow.
	assigned [][]uint64
	heads    []int
}

// NewShardGroup creates n kernels wired into one group, in direct
// (construction) mode. Call BeginWindows once the pre-run event population
// is in place. A one-shard group is serial execution: its kernel carries no
// sequencer, numbers events from its own counter and never needs EndWindow.
func NewShardGroup(n int) *ShardGroup {
	if n < 1 {
		panic(fmt.Sprintf("sim: shard group needs at least one shard, got %d", n))
	}
	g := &ShardGroup{
		direct:   true,
		assigned: make([][]uint64, n),
		heads:    make([]int, n),
	}
	for i := 0; i < n; i++ {
		k := NewKernel()
		if n > 1 {
			k.ws = &winSeq{g: g, shard: i}
		}
		g.shards = append(g.shards, k)
	}
	return g
}

// Shards returns the shard count.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns shard i's kernel.
func (g *ShardGroup) Shard(i int) *Kernel { return g.shards[i] }

// Direct reports whether the group is still in construction mode.
func (g *ShardGroup) Direct() bool { return g.direct }

// BeginWindows ends construction mode: subsequent schedule calls are logged
// per window and sequenced at EndWindow barriers.
func (g *ShardGroup) BeginWindows() { g.direct = false }

// resolve maps a possibly provisional parent reference from shard s to its
// assigned serial sequence number.
func (g *ShardGroup) resolve(s int, seq uint64) uint64 {
	if seq&provSeqBit == 0 {
		return seq
	}
	return g.assigned[s][seq&^provSeqBit]
}

// Resolve is the exported resolve for barrier consumers (the sharded radio
// flushes its boundary events with sequence references taken during the
// window). Valid from EndWindow until the next EndWindow.
func (g *ShardGroup) Resolve(s int, seq uint64) uint64 { return g.resolve(s, seq) }

// EndWindow is the window barrier: it merges the shard logs into the serial
// scheduling order, assigns real sequence numbers in that order and re-keys
// every still-pending event. Call with all shards idle at the window edge.
//
// Each shard's log is sorted by the merge key (parents execute in key order
// and one parent's calls carry increasing k), and a provisional parent
// reference always names an earlier, already-consumed record of the same
// log, so a plain k-way head merge reconstructs the global order. Keys never
// tie across shards: a (parent, k) pair identifies one serial schedule call,
// and split fan-outs keep disjoint k ranges via SetFanKey.
func (g *ShardGroup) EndWindow() {
	if g.direct {
		panic("sim: EndWindow in direct mode")
	}
	n := len(g.shards)
	remaining := 0
	for i, k := range g.shards {
		l := len(k.ws.log)
		if cap(g.assigned[i]) < l {
			g.assigned[i] = make([]uint64, l)
		} else {
			g.assigned[i] = g.assigned[i][:l]
		}
		g.heads[i] = 0
		remaining += l
	}
	for ; remaining > 0; remaining-- {
		best := -1
		var bAt Time
		var bSeq, bK uint64
		for i := 0; i < n; i++ {
			h := g.heads[i]
			log := g.shards[i].ws.log
			if h >= len(log) {
				continue
			}
			rec := &log[h]
			ps := g.resolve(i, rec.parentSeq)
			if best < 0 || rec.parentAt < bAt ||
				(rec.parentAt == bAt && (ps < bSeq || (ps == bSeq && rec.k < bK))) {
				best, bAt, bSeq, bK = i, rec.parentAt, ps, rec.k
			}
		}
		g.assigned[best][g.heads[best]] = g.counter
		g.counter++
		g.heads[best]++
	}
	// Re-key the logged slots still in the heap: pending ones (generation
	// unchanged) and cancelled ones (bumped once, no handler), whose dead
	// entries still order their subtrees. Along one shard's log both the
	// provisional and the assigned numbers increase, and every number
	// assigned this window exceeds every number assigned before it, so the
	// relative order of all heap entries is unchanged — the heap invariant
	// holds without re-sifting. Re-keying an executed (freed) slot is
	// harmless: a reuse overwrites seq, and a reuse this window is logged
	// later, so its own record wins.
	for i, k := range g.shards {
		for idx := range k.ws.log {
			rec := &k.ws.log[idx]
			if rec.slot < 0 {
				continue
			}
			e := &k.arena[rec.slot]
			if e.gen == rec.gen || e.gen == rec.gen+1 && !e.pending() {
				e.seq = g.assigned[i][idx]
			}
		}
		k.ws.log = k.ws.log[:0]
		k.ws.cls = 0 // no handler runs between windows
	}
}

// --- shard-facing kernel hooks ---

// LastSeq returns the sequence number of the most recently scheduled event —
// possibly provisional; pass it through ShardGroup.Resolve at the barrier.
func (k *Kernel) LastSeq() uint64 { return k.lastSeq }

// ReserveSeq consumes one sequence position without scheduling anything: the
// serial kernel would have scheduled exactly one event here, but every
// fragment of it belongs to other shards (a broadcast whose in-range
// receivers are all remote). The returned reference resolves at the barrier
// like LastSeq.
func (k *Kernel) ReserveSeq() uint64 {
	w := k.ws
	if w == nil {
		panic("sim: ReserveSeq on a non-sharded kernel")
	}
	if w.g.direct {
		s := w.g.counter
		w.g.counter++
		return s
	}
	if w.kLimit != 0 && w.kNext >= w.kLimit {
		panic("sim: one delivery scheduled 2^20 events, overflowing its fan-out key space")
	}
	idx := len(w.log)
	w.log = append(w.log, schedRec{parentAt: w.parentAt, parentSeq: w.parentSeq, k: w.kNext, slot: -1})
	w.kNext++
	return provSeqBit | uint64(idx)
}

// SetFanKey aligns the intra-parent schedule indices of a split fan-out:
// the serial kernel delivers a broadcast to its whole CSR row inside ONE
// event, so the sharded sub-fan-outs — which execute as sibling events with
// the same (time, seq) key in different shards — must number the schedule
// calls of receiver p from p's global row position, keeping the merged child
// order identical to the serial delivery order. Call before each receiver's
// Deliver. No-op on serial kernels.
func (k *Kernel) SetFanKey(rowPos int) {
	w := k.ws
	if w == nil || w.g.direct {
		return
	}
	base := uint64(rowPos) << fanKeyShift
	if w.kNext > base {
		panic("sim: fan-out key regression — receivers must be delivered in ascending row order")
	}
	w.kNext = base
	w.kLimit = base + 1<<fanKeyShift
}

// SetClass sets the hop class stamped on the events scheduled from here on,
// until the next event runs, and returns the previous one. Use it around work
// done for one node outside its own events: construction, agent start, one
// receiver of a fan-out. No-op returning 0 on serial kernels.
func (k *Kernel) SetClass(cls uint16) uint16 {
	w := k.ws
	if w == nil {
		return 0
	}
	prev := w.cls
	w.cls = cls
	return prev
}

// InjectArgAt schedules h at time at with an explicit, externally resolved
// sequence number, bypassing the shard sequencer: the event is a fragment of
// an event another shard already sequenced (a cross-shard sub-fan-out), not
// a new serial position. Only meaningful between windows or in direct mode.
// The fragment is class 0: its receivers border the sending shard.
func (k *Kernel) InjectArgAt(at Time, seq uint64, h ArgHandler, arg any) EventID {
	if h == nil {
		panic("sim: schedule nil handler")
	}
	if k.ws == nil {
		panic("sim: InjectArgAt on a non-sharded kernel")
	}
	slot, e := k.claimSlot(at)
	e.seq = seq
	e.cls = 0
	e.argh = h
	e.arg = arg
	k.live++
	k.heapPush(entry{at, slot})
	return EventID(uint64(e.gen)<<32 | uint64(uint32(slot)))
}

// WindowEnd returns the end of the next conservative window: the earliest
// reach (see reach) over the pending events of every shard, +Inf when none is
// pending. Call it at a barrier, with every shard idle. Each shard's 4-ary
// heap is walked from the root, pruning a subtree once its root cannot beat
// the best so far: every event below it is no earlier, and none reaches
// sooner than w after its own time.
func (g *ShardGroup) WindowEnd(w Time) Time {
	best := math.Inf(1)
	for _, k := range g.shards {
		if len(k.heap) > 0 {
			best = k.reachBelow(0, w, best)
		}
	}
	return best
}

// reachBelow lowers best to the earliest reach in the heap subtree rooted at
// heap index i. Cancelled slots still order their subtrees, so the walk
// passes through them without counting them.
func (k *Kernel) reachBelow(i int, w, best Time) Time {
	x := k.heap[i]
	if reach(x.at, 0, w) >= best {
		return best
	}
	if e := &k.arena[x.slot]; e.pending() {
		best = min(best, reach(x.at, e.cls, w))
	}
	for c := 4*i + 1; c <= 4*i+4 && c < len(k.heap); c++ {
		best = k.reachBelow(c, w, best)
	}
	return best
}

// reach is the earliest time an event at `at` of hop class cls can influence
// another shard: cls+1 transmissions of at least w each. A chain of
// transmissions adds them to the clock one rounding at a time and can land
// below the product form, so the product is shaved by the relative
// (cls+4)·2^-52, which covers those cls+1 roundings and the three here: no
// event another shard injects lands before the window's end. The result is
// nondecreasing in at and in cls, which the pruned walk relies on.
func reach(at Time, cls uint16, w Time) Time {
	r := at + (Time(cls)+1)*w
	return r - r*(Time(cls)+4)*0x1p-52
}

// NextEventTime returns the timestamp of the earliest pending event,
// discarding any cancelled entries that have surfaced.
func (k *Kernel) NextEventTime() (Time, bool) {
	for len(k.heap) > 0 {
		top := k.heap[0]
		if !k.arena[top.slot].pending() {
			k.heapPop()
			k.free = append(k.free, top.slot)
			continue
		}
		return top.at, true
	}
	return 0, false
}

// RunWindow executes every event with timestamp strictly before end, then
// advances the clock to end. The strict bound is the conservative-window
// contract: events at exactly the window edge may be influenced by other
// shards and belong to the next window.
func (k *Kernel) RunWindow(end Time) {
	for {
		at, ok := k.NextEventTime()
		if !ok || at >= end {
			break
		}
		k.Step()
	}
	if end > k.now {
		k.now = end
	}
}
