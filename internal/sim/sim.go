// Package sim implements the discrete-event simulation kernel underlying the
// PAS reproduction: a virtual clock, a priority event queue with stable FIFO
// ordering for simultaneous events, cancellable timers and run-until
// execution. The kernel is single-goroutine by design — wireless protocol
// simulations need strict determinism far more than they need parallel event
// execution, and the paper's experiments (tens of nodes, minutes of virtual
// time) run in microseconds per simulated second.
//
// # Zero-allocation engine
//
// Every simulated message, timer, sample and sleep/wake transition funnels
// through this kernel, and the experiment harness multiplies that cost across
// (experiment × sweep-point × protocol × seed) cells, so the event queue is
// engineered for zero steady-state allocations:
//
//   - Events live in a flat arena ([]event) indexed by slot. Executed and
//     cancelled slots are recycled through an intrusive freelist instead of
//     being reallocated, so a long simulation settles into a fixed arena.
//   - The priority queue is a 4-ary heap of 16-byte {time, slot} entries
//     ordered by (time, sequence): a sift compares times inside the heap
//     array and reads a slot's sequence number only on an exact time tie.
//     No container/heap, no boxed interface values, and a shallower tree
//     than a binary heap (fewer cache misses per sift).
//   - EventIDs are generation-tagged: the low 32 bits name the slot, the
//     high 32 bits its generation, which is bumped whenever the slot leaves
//     the pending state. Cancel is therefore an O(1) stamp check that marks
//     the slot dead; dead slots are skipped and recycled lazily at pop, so
//     there is no pending map and no O(log n) heap removal.
//   - Events can carry an argument (ScheduleArgAt): batched subsystems —
//     the radio's per-broadcast delivery records — schedule one long-lived
//     ArgHandler against pooled payloads instead of building a closure per
//     event, keeping the hot path closure-free.
//
// A slot's generation wraps after 2^32 schedule/retire cycles of that one
// slot; a stale EventID could in principle alias after that, which is orders
// of magnitude beyond any simulation this harness runs.
package sim

import (
	"fmt"
	"math"
)

// Time is virtual simulation time in seconds.
type Time = float64

// Handler is an event callback. It runs at its scheduled virtual time with
// the kernel passed in so it can schedule further events.
type Handler func(k *Kernel)

// ArgHandler is an event callback that additionally receives the argument
// stored with the event at schedule time. Batched subsystems (the radio's
// per-broadcast delivery records) use it to schedule one long-lived handler
// against many pooled payloads without constructing a closure per event:
// boxing a pointer-shaped arg into the interface does not allocate.
type ArgHandler func(k *Kernel, arg any)

// EventID identifies a scheduled event for cancellation. It packs the arena
// slot (low 32 bits) and the slot's generation (high 32 bits).
type EventID uint64

// event is one arena slot. A slot is pending (in the heap, one of the two
// handler fields set), dead (in the heap, cancelled, both handlers nil) or
// free (on the freelist). Exactly one of handler/argh is non-nil while
// pending; arg rides along with argh. The event's time is in its heap entry.
type event struct {
	// seq is the tie-breaker among equal times (FIFO). It stays here, not in
	// the heap entry, because ShardGroup.EndWindow re-keys pending events in
	// place.
	seq uint64
	gen uint32 // current occupant generation
	// cls is the hop class of the node the event acts for, stamped only on
	// the shards of a ShardGroup (see window.go); it fills padding, so the
	// slot stays 48 bytes.
	cls     uint16
	handler Handler
	argh    ArgHandler
	arg     any
}

// pending reports whether the slot holds a live scheduled event.
func (e *event) pending() bool { return e.handler != nil || e.argh != nil }

// Kernel is the simulation engine. Create one with NewKernel, schedule events
// and call Run or RunUntil. A Kernel must be used from a single goroutine.
type Kernel struct {
	now   Time
	arena []event
	free  []int32 // recycled slots
	heap  []entry // 4-ary heap ordered by (at, seq)
	live  int     // pending (scheduled, not yet executed or cancelled)

	nextSeq uint64
	// lastSeq is the sequence number of the most recently scheduled event,
	// so batched subsystems (the sharded radio) can alias further events —
	// cross-shard sub-fan-outs — onto the same serial position.
	lastSeq uint64
	// processed counts events executed, for diagnostics and benchmarks.
	processed uint64
	// ws, when non-nil, makes this kernel one shard of a ShardGroup: sequence
	// numbers come from the group's serial-order reconstruction instead of
	// the local counter (see window.go). Nil for ordinary serial kernels, so
	// the serial path is byte-identical to the pre-sharding kernel.
	ws *winSeq
}

// maxArenaSlots caps the arena so a slot index always fits int32. It is a
// variable only so tests can lower it and exercise the guard without
// scheduling 2^31 events; the default is the hard int32 ceiling. Without the
// guard, growing past it would silently compute a wrapped (negative or
// aliased) slot index and corrupt the heap rather than fail.
var maxArenaSlots = math.MaxInt32

// NewKernel returns a kernel with the clock at zero. Its heap starts at 64
// entries: one allocation in place of the first seven growth steps.
func NewKernel() *Kernel { return &Kernel{heap: make([]entry, 0, 64)} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of live events in the queue.
func (k *Kernel) Pending() int { return k.live }

// claimSlot claims an arena slot for an event at the given time; the caller
// assigns the sequence number and handler fields, then links it into the
// heap (the heap orders by seq, so the push must come after the assignment).
func (k *Kernel) claimSlot(at Time) (int32, *event) {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	if math.IsNaN(at) {
		panic("sim: schedule at NaN time")
	}
	var slot int32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		if len(k.arena) >= maxArenaSlots {
			panic(fmt.Sprintf("sim: event arena grew to %d slots, exceeding int32 slot indexing", len(k.arena)))
		}
		k.arena = append(k.arena, event{})
		slot = int32(len(k.arena) - 1)
	}
	return slot, &k.arena[slot]
}

// scheduleSlot claims an arena slot, assigns the next sequence number and
// links the slot into the heap; the caller fills in the handler fields.
func (k *Kernel) scheduleSlot(at Time) (int32, *event) {
	slot, e := k.claimSlot(at)
	if k.ws != nil {
		e.seq = k.ws.nextSeq(slot, e.gen)
		e.cls = k.ws.cls
	} else {
		e.seq = k.nextSeq
		k.nextSeq++
	}
	k.lastSeq = e.seq
	k.live++
	k.heapPush(entry{at, slot})
	return slot, e
}

// ScheduleAt schedules h at absolute virtual time at. Scheduling in the past
// panics: it would silently corrupt causality, which is a programming error.
func (k *Kernel) ScheduleAt(at Time, h Handler) EventID {
	if h == nil {
		panic("sim: schedule nil handler")
	}
	slot, e := k.scheduleSlot(at)
	e.handler = h
	return EventID(uint64(e.gen)<<32 | uint64(uint32(slot)))
}

// Schedule schedules h after the given delay (which must be non-negative).
func (k *Kernel) Schedule(delay Time, h Handler) EventID {
	return k.ScheduleAt(k.now+delay, h)
}

// ScheduleArgAt schedules h at absolute virtual time at with arg stored in
// the event slot and handed back when the event fires. Scheduling a
// long-lived handler with per-event args avoids the closure allocation of
// ScheduleAt on hot batched paths; a pointer-shaped arg does not allocate
// when boxed.
func (k *Kernel) ScheduleArgAt(at Time, h ArgHandler, arg any) EventID {
	if h == nil {
		panic("sim: schedule nil handler")
	}
	slot, e := k.scheduleSlot(at)
	e.argh = h
	e.arg = arg
	return EventID(uint64(e.gen)<<32 | uint64(uint32(slot)))
}

// ScheduleArg schedules h with arg after the given delay.
func (k *Kernel) ScheduleArg(delay Time, h ArgHandler, arg any) EventID {
	return k.ScheduleArgAt(k.now+delay, h, arg)
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false if already executed or cancelled). Cancellation is O(1): it
// stamps the slot dead and bumps its generation; the heap entry is discarded
// lazily when it surfaces at the top.
func (k *Kernel) Cancel(id EventID) bool {
	slot := uint32(id)
	if int(slot) >= len(k.arena) {
		return false
	}
	e := &k.arena[slot]
	if e.gen != uint32(id>>32) || !e.pending() {
		return false
	}
	e.handler = nil
	e.argh = nil
	e.arg = nil
	e.gen++
	k.live--
	return true
}

// retire recycles the just-popped slot: the generation bump invalidates the
// slot's outstanding EventID and the handler/arg references are dropped so
// their referents can be collected before the slot is reused.
func (k *Kernel) retire(slot int32) {
	e := &k.arena[slot]
	e.handler = nil
	e.argh = nil
	e.arg = nil
	e.gen++
	k.free = append(k.free, slot)
}

// Step executes the single earliest event. It reports false if the queue is
// empty.
func (k *Kernel) Step() bool {
	for len(k.heap) > 0 {
		top := k.heapPop()
		e := &k.arena[top.slot]
		if !e.pending() {
			// Cancelled; recycle without the generation bump (Cancel already
			// bumped it).
			k.free = append(k.free, top.slot)
			continue
		}
		h, ah, arg, seq := e.handler, e.argh, e.arg, e.seq
		k.retire(top.slot)
		k.live--
		k.now = top.at
		k.processed++
		if k.ws != nil {
			// Sharded mode: record the execution key so events this handler
			// schedules can be ordered exactly as the serial kernel would,
			// and its hop class, which they inherit. retire left cls intact.
			k.ws.begin(top.at, seq, e.cls)
		}
		if ah != nil {
			ah(k, arg)
		} else {
			h(k)
		}
		return true
	}
	return false
}

// RunUntil executes events in order until the queue is exhausted or the next
// event lies strictly beyond horizon. The clock is finally advanced to the
// horizon, so interval-based accounting (e.g. energy meters) can integrate to
// the exact end of the simulation.
func (k *Kernel) RunUntil(horizon Time) {
	if horizon < k.now {
		panic(fmt.Sprintf("sim: horizon %v before now %v", horizon, k.now))
	}
	for {
		at, ok := k.NextEventTime()
		if !ok || at > horizon {
			break
		}
		k.Step()
	}
	k.now = horizon
}

// Run executes events until the queue is empty and returns the final time.
func (k *Kernel) Run() Time {
	for k.Step() {
	}
	return k.now
}

// --- 4-ary heap of {time, slot} entries ---

// entry is one heap node: an event's time beside its arena slot, 16 bytes.
type entry struct {
	at   Time
	slot int32
}

// less orders entries by (time, sequence); the arena is read only on a tie.
func (k *Kernel) less(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return k.arena[a.slot].seq < k.arena[b.slot].seq
}

// heapPush appends x and sifts it up.
func (k *Kernel) heapPush(x entry) {
	k.heap = append(k.heap, x)
	h := k.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !k.less(x, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}

// heapPop removes and returns the minimum entry; the heap must be non-empty.
func (k *Kernel) heapPop() entry {
	h := k.heap
	top := h[0]
	last := len(h) - 1
	x := h[last]
	k.heap = h[:last]
	if last > 0 {
		k.siftDown(x)
	}
	return top
}

// siftDown places x, which replaces the root, at its place below the root.
func (k *Kernel) siftDown(x entry) {
	h := k.heap
	n := len(h)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best, end := first, min(first+4, n)
		for c := first + 1; c < end; c++ {
			if k.less(h[c], h[best]) {
				best = c
			}
		}
		if !k.less(h[best], x) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = x
}
