package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// execRec is one executed event as observed by the tie tests: its execution
// time, its (resolved) serial sequence number and a human label.
type execRec struct {
	at    Time
	seq   uint64
	label string
	shard int
}

// tieProgram schedules the adversarial same-timestamp workload used by
// TestCrossShardTieOrder on one kernel per "node": every root fires at the
// SAME virtual time on every shard, every intermediate at the same time,
// every leaf at the same time — so nothing but sequence numbers decides the
// global order. Roots are scheduled in global node order (as network
// construction does); each root schedules an intermediate inside its own
// window and two descendants beyond it, exercising provisional in-window
// ordering, barrier re-keying and cross-window parent resolution at once.
func tieProgram(nodes int, kernelOf func(i int) (*Kernel, int), record func(*Kernel, int, string)) {
	for i := 0; i < nodes; i++ {
		k, shard := kernelOf(i)
		i := i
		k.ScheduleAt(1.0, func(k *Kernel) {
			record(k, shard, label("root", i))
			// Same window as the root (1.0 + 0.25 < window end): executes with
			// a provisional seq when sharded.
			k.Schedule(0.25, func(k *Kernel) {
				record(k, shard, label("mid", i))
				k.Schedule(1.5, func(k *Kernel) {
					record(k, shard, label("leaf", i))
				})
			})
			// Next window (1.0 + 1.5 ≥ window end): re-keyed at the barrier
			// before executing.
			k.Schedule(1.5, func(k *Kernel) {
				record(k, shard, label("far", i))
			})
		})
	}
}

func label(kind string, i int) string {
	return kind + "-" + string(rune('0'+i))
}

// TestCrossShardTieOrder pins the canonical cross-shard tie-break: equal-time
// events from different shards must execute in the order the serial kernel
// would have run them — global serial sequence, not per-shard counters or
// shard interleaving. The workload makes every timestamp collide across
// shards, so any per-shard sequencing shortcut changes the order and fails.
func TestCrossShardTieOrder(t *testing.T) {
	const nodes = 6
	const W = 1.0

	// Serial reference: execution order is the ground truth.
	var want []string
	{
		k := NewKernel()
		tieProgram(nodes,
			func(i int) (*Kernel, int) { return k, 0 },
			func(_ *Kernel, _ int, l string) { want = append(want, l) })
		k.Run()
	}

	for _, shards := range []int{2, 3} {
		g := NewShardGroup(shards)
		var recs []execRec
		tieProgram(nodes,
			func(i int) (*Kernel, int) { return g.Shard(i % shards), i % shards },
			func(k *Kernel, shard int, l string) {
				recs = append(recs, execRec{at: k.Now(), seq: k.lastParentSeq(), label: l, shard: shard})
			})
		g.BeginWindows()

		resolvedTo := 0
		for {
			minAt, any := Time(0), false
			for i := 0; i < shards; i++ {
				if at, ok := g.Shard(i).NextEventTime(); ok && (!any || at < minAt) {
					minAt, any = at, true
				}
			}
			if !any {
				break
			}
			for i := 0; i < shards; i++ {
				g.Shard(i).RunWindow(minAt + W)
			}
			g.EndWindow()
			// Events executed this window may have carried provisional seqs;
			// resolve them while the barrier's assignments are still valid.
			for ; resolvedTo < len(recs); resolvedTo++ {
				r := &recs[resolvedTo]
				r.seq = g.Resolve(r.shard, r.seq)
			}
		}

		sort.Slice(recs, func(a, b int) bool {
			if recs[a].at != recs[b].at {
				return recs[a].at < recs[b].at
			}
			return recs[a].seq < recs[b].seq
		})
		if len(recs) != len(want) {
			t.Fatalf("shards=%d: executed %d events, serial executed %d", shards, len(recs), len(want))
		}
		for i := range recs {
			if recs[i].label != want[i] {
				t.Fatalf("shards=%d: position %d is %q (at=%v seq=%d), serial order has %q",
					shards, i, recs[i].label, recs[i].at, recs[i].seq, want[i])
			}
			if i > 0 && recs[i].at == recs[i-1].at && recs[i].seq == recs[i-1].seq {
				t.Fatalf("shards=%d: duplicate key (at=%v seq=%d) for %q and %q",
					shards, recs[i].at, recs[i].seq, recs[i-1].label, recs[i].label)
			}
		}
	}
}

// lastParentSeq exposes the executing event's own (possibly provisional)
// sequence number for the tie test's records.
func (k *Kernel) lastParentSeq() uint64 { return k.ws.parentSeq }

// TestInjectArgAtAliasesSerialPosition pins the cross-shard fan-out contract:
// an event injected on another shard with a resolved LastSeq reference
// executes at exactly the same (time, seq) key as the locally scheduled
// sub-fan-out it fragments, and before any later-sequenced local event at
// the same timestamp.
func TestInjectArgAtAliasesSerialPosition(t *testing.T) {
	g := NewShardGroup(2)
	a, b := g.Shard(0), g.Shard(1)

	var seqs []uint64
	a.ScheduleAt(1.0, func(k *Kernel) {
		// Local sub-fan-out of a conceptual broadcast...
		k.ScheduleArgAt(2.0, func(k *Kernel, _ any) {}, nil)
		seqs = append(seqs, k.LastSeq())
		// ...and an unrelated later schedule at the same delivery time.
		k.ScheduleArgAt(2.0, func(k *Kernel, _ any) {}, nil)
		seqs = append(seqs, k.LastSeq())
	})
	g.BeginWindows()

	a.RunWindow(1.5)
	b.RunWindow(1.5)
	g.EndWindow()

	fan := g.Resolve(0, seqs[0])
	later := g.Resolve(0, seqs[1])
	if fan >= later {
		t.Fatalf("fan-out seq %d not before later schedule %d", fan, later)
	}
	var order []string
	b.InjectArgAt(2.0, fan, func(k *Kernel, _ any) {
		if k.Now() != 2.0 {
			t.Fatalf("injected fragment ran at %v", k.Now())
		}
		order = append(order, "remote-fragment")
	}, nil)
	b.ScheduleArgAt(2.0, func(k *Kernel, _ any) { order = append(order, "ignored") }, nil)
	// The remote fragment must run before shard B's own later-sequenced event
	// at the same timestamp.
	b.RunWindow(3.0)
	if len(order) != 2 || order[0] != "remote-fragment" {
		t.Fatalf("execution order = %v, want remote-fragment first", order)
	}
}

// TestReserveSeqConsumesSerialPosition pins ReserveSeq: a broadcast whose
// surviving receivers are all remote still consumes exactly one serial
// position (the serial kernel schedules one fan-out event for it), keeping
// every subsequent sequence number aligned with the serial run.
func TestReserveSeqConsumesSerialPosition(t *testing.T) {
	g := NewShardGroup(2)
	a := g.Shard(0)
	var reserved, next uint64
	a.ScheduleAt(1.0, func(k *Kernel) {
		reserved = k.ReserveSeq()
		k.ScheduleArgAt(2.0, func(k *Kernel, _ any) {}, nil)
		next = k.LastSeq()
	})
	g.BeginWindows()
	a.RunWindow(1.5)
	g.Shard(1).RunWindow(1.5)
	g.EndWindow()
	r, n := g.Resolve(0, reserved), g.Resolve(0, next)
	if n != r+1 {
		t.Fatalf("reserved seq %d, next schedule %d; want consecutive", r, n)
	}
}

// TestArenaSlotGuard pins the int32 arena overflow guard: growing the arena
// past the slot-index ceiling must panic loudly instead of wrapping the
// int32 slot index onto an existing slot. The cap is lowered so the guard
// path runs without scheduling 2^31 events.
func TestArenaSlotGuard(t *testing.T) {
	defer func(m int) { maxArenaSlots = m }(maxArenaSlots)
	maxArenaSlots = 4

	k := NewKernel()
	for i := 0; i < 4; i++ {
		k.Schedule(1, func(*Kernel) {})
	}
	defer func() {
		if recover() == nil {
			t.Error("arena growth past the slot cap did not panic")
		}
	}()
	k.Schedule(1, func(*Kernel) {})
}

// TestHeapStressTenMillionPending fills the queue to ~10^7 simultaneously
// pending events — the regime a sharded scale-1m run reaches — and drains it,
// checking the (time, seq) order invariant the whole simulator rests on.
// Under -race the depth is 2^20 (stress_race_test.go).
func TestHeapStressTenMillionPending(t *testing.T) {
	if testing.Short() {
		t.Skip("10^7-event heap stress skipped in short mode")
	}
	const n = heapStressPending
	k := NewKernel()
	rng := rand.New(rand.NewSource(41))
	var (
		lastAt   Time
		lastIdx  int64 = -1
		executed int
	)
	h := ArgHandler(func(k *Kernel, arg any) {
		at := k.Now()
		idx := *arg.(*int64)
		if at < lastAt {
			t.Fatalf("event %d ran at %v after %v", executed, at, lastAt)
		}
		// FIFO among ties: equal-time events must drain in schedule order.
		if at == lastAt && idx <= lastIdx {
			t.Fatalf("equal-time events out of schedule order at %v: %d after %d", at, idx, lastIdx)
		}
		lastAt, lastIdx = at, idx
		executed++
	})
	// Coarse-grained times force deep seq tie chains; fine-grained ones
	// exercise sift depth. Mix both. Args point into one slab so boxing
	// stays allocation-free.
	idxs := make([]int64, n)
	for i := 0; i < n; i++ {
		idxs[i] = int64(i)
		var at Time
		if i%4 == 0 {
			at = Time(rng.Intn(64))
		} else {
			at = rng.Float64() * 64
		}
		k.ScheduleArgAt(at, h, &idxs[i])
	}
	if k.Pending() != n {
		t.Fatalf("pending = %d, want %d", k.Pending(), n)
	}
	k.Run()
	if executed != n {
		t.Fatalf("executed %d of %d events", executed, n)
	}
}

// TestShardGroupAccessorsAndGuards pins the small shard-group surface: the
// accessors, the construction-mode transition and the loud misuse panics.
func TestShardGroupAccessorsAndGuards(t *testing.T) {
	g := NewShardGroup(3)
	if g.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", g.Shards())
	}
	if !g.Direct() {
		t.Fatal("new group must start in direct mode")
	}
	g.BeginWindows()
	if g.Direct() {
		t.Fatal("BeginWindows left the group in direct mode")
	}
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("NewShardGroup(0)", func() { NewShardGroup(0) })
	expectPanic("EndWindow in direct mode", func() { NewShardGroup(1).EndWindow() })
	plain := NewKernel()
	expectPanic("ReserveSeq on a non-sharded kernel", func() { plain.ReserveSeq() })
	expectPanic("InjectArgAt on a non-sharded kernel", func() {
		plain.InjectArgAt(1, 0, func(*Kernel, any) {}, nil)
	})
	expectPanic("InjectArgAt nil handler", func() {
		g.Shard(0).InjectArgAt(1, 0, nil, nil)
	})
}

// TestOneShardGroupIsSerial pins that a one-shard group is serial
// execution: its kernel carries no shard sequencer and numbers events from
// its own counter, exactly like NewKernel.
func TestOneShardGroupIsSerial(t *testing.T) {
	k := NewShardGroup(1).Shard(0)
	if k.ws != nil {
		t.Fatal("one-shard group attached a shard sequencer")
	}
	k.ScheduleAt(1, func(*Kernel) {})
	k.ScheduleAt(1, func(*Kernel) {})
	if k.LastSeq() != 1 {
		t.Fatalf("second event got seq %d, want 1", k.LastSeq())
	}
}

// TestSetFanKeyDiscipline pins the fan-key contract: a no-op on serial
// kernels and in direct mode, key-space alignment in windowed mode, and a
// loud panic if receivers are delivered out of row order.
func TestSetFanKeyDiscipline(t *testing.T) {
	NewKernel().SetFanKey(5) // serial kernel: no-op

	g := NewShardGroup(2)
	k := g.Shard(0)
	k.SetFanKey(5) // direct mode: no-op
	if k.ws.kNext != 0 {
		t.Fatalf("direct-mode SetFanKey moved kNext to %d", k.ws.kNext)
	}
	g.BeginWindows()
	k.ScheduleAt(1, func(k *Kernel) {
		k.SetFanKey(2)
		k.Schedule(1, func(*Kernel) {})
		if k.ws.kNext != 2<<fanKeyShift+1 {
			t.Errorf("kNext = %d after fan-key 2 + one schedule", k.ws.kNext)
		}
		defer func() {
			if recover() == nil {
				t.Error("fan-key regression did not panic")
			}
		}()
		k.SetFanKey(1)
	})
	for k.Step() {
	}
}

// TestNextEventTimeSkipsCancelled pins that NextEventTime discards cancelled
// heap entries (recycling their slots) instead of reporting their times.
func TestNextEventTimeSkipsCancelled(t *testing.T) {
	g := NewShardGroup(1)
	k := g.Shard(0)
	early := k.ScheduleAt(1, func(*Kernel) {})
	k.ScheduleAt(2, func(*Kernel) {})
	k.Cancel(early)
	at, ok := k.NextEventTime()
	if !ok || at != 2 {
		t.Fatalf("NextEventTime = (%g, %v), want (2, true)", at, ok)
	}
	if _, ok := NewKernel().NextEventTime(); ok {
		t.Fatal("empty kernel reported a pending event")
	}
}

// windowEndScan is WindowEnd by brute force: the earliest reach over every
// heap entry of every shard whose slot is pending.
func windowEndScan(g *ShardGroup, w Time) Time {
	best := math.Inf(1)
	for _, k := range g.shards {
		for _, x := range k.heap {
			if e := &k.arena[x.slot]; e.pending() {
				best = min(best, reach(x.at, e.cls, w))
			}
		}
	}
	return best
}

// randomClassHeaps fills each shard of g with up to 300 events at random
// (often tied) times under random hop classes, cancels about a third of them
// and executes a few, so the heaps hold dead slots at every depth.
func randomClassHeaps(rng *rand.Rand, g *ShardGroup) {
	h := func(*Kernel) {}
	for _, k := range g.shards {
		var ids []EventID
		for n := rng.Intn(300); n > 0; n-- {
			cls := uint16(rng.Intn(60))
			switch rng.Intn(20) {
			case 0:
				cls = math.MaxUint16
			case 1:
				cls = 0
			}
			k.SetClass(cls)
			at := Time(rng.Intn(40)) * 0.25
			if rng.Intn(2) == 0 {
				at = rng.Float64() * 10
			}
			ids = append(ids, k.ScheduleAt(at, h))
		}
		k.SetClass(0)
		for _, id := range ids {
			if rng.Intn(3) == 0 {
				k.Cancel(id)
			}
		}
		for n := rng.Intn(4); n > 0; n-- {
			k.Step()
		}
	}
}

// TestWindowEnd pins the pruned heap walk of WindowEnd to a full scan over
// random heaps with random hop classes and cancelled slots, at several
// lookahead lengths, and pins reach below the chained sum it bounds: the time
// a class-c event's influence arrives after c+1 transmissions of w, each added
// to the clock with its own rounding.
func TestWindowEnd(t *testing.T) {
	if got := NewShardGroup(2).WindowEnd(1); !math.IsInf(got, 1) {
		t.Fatalf("WindowEnd with nothing pending = %g, want +Inf", got)
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		g := NewShardGroup(2 + rng.Intn(3))
		randomClassHeaps(rng, g)
		for _, w := range []Time{384e-6, 0.01, 0.3, 2} {
			if got, want := g.WindowEnd(w), windowEndScan(g, w); got != want {
				t.Fatalf("trial %d, w=%g: WindowEnd = %v, full scan %v", trial, w, got, want)
			}
		}
	}

	for i := 0; i < 200000; i++ {
		at := math.Ldexp(rng.Float64(), rng.Intn(40)-20)
		w := math.Ldexp(1+rng.Float64(), -rng.Intn(24))
		cls := uint16(rng.Intn(64))
		chained := at
		for h := 0; h <= int(cls); h++ {
			chained += w
		}
		if r := reach(at, cls, w); r > chained {
			t.Fatalf("reach(%v, %d, %v) = %v exceeds the chained sum %v", at, cls, w, r, chained)
		}
		if reach(at, cls, w) < reach(at, 0, w) {
			t.Fatalf("reach(%v, %d, %v) below class 0's", at, cls, w)
		}
	}
}

// TestWindowEndZeroAllocs pins the barrier walk allocation-free: it runs once
// per window.
func TestWindowEndZeroAllocs(t *testing.T) {
	g := NewShardGroup(3)
	randomClassHeaps(rand.New(rand.NewSource(3)), g)
	allocs := testing.AllocsPerRun(1000, func() { g.WindowEnd(384e-6) })
	if allocs != 0 {
		t.Errorf("WindowEnd allocates %g allocs/op, want 0", allocs)
	}
}

// TestEventSlotSize pins the arena slot at 48 bytes: the hop class rides in
// padding after the generation, so stamping it costs no memory, and the
// event's time lives in its heap entry.
func TestEventSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Fatalf("event slot is %d bytes, want 48", got)
	}
}

// TestHeapEntrySize pins the heap entry at 16 bytes: a sift moves and
// compares whole entries, four children to a node.
func TestHeapEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 16 {
		t.Fatalf("heap entry is %d bytes, want 16", got)
	}
}

// TestEndWindowRekeysCancelledSlots pins the barrier re-key of an event
// scheduled and cancelled in the same window. Its dead heap entry still
// orders its subtree, so it must take a serial number like its live
// siblings: left with its provisional number (bit 63 set), it sorts after
// the live same-time events below it, and one of them surfaces out of
// serial order. Here C sits below the cancelled P; the serial kernel runs C
// before S.
func TestEndWindowRekeysCancelledSlots(t *testing.T) {
	program := func(k *Kernel, order *[]string) {
		k.ScheduleAt(0.5, func(k *Kernel) {
			at := func(at Time, l string) EventID {
				return k.ScheduleAt(at, func(*Kernel) { *order = append(*order, l) })
			}
			at(1, "R")
			p := at(2, "P")
			at(3, "F1")
			at(3, "F2")
			at(3, "F3")
			at(2, "C")
			at(3, "G1")
			at(3, "G2")
			at(3, "G3")
			at(2, "S")
			k.Cancel(p)
		})
	}
	var want []string
	serial := NewKernel()
	program(serial, &want)
	serial.Run()

	g := NewShardGroup(2)
	var got []string
	program(g.Shard(0), &got)
	g.BeginWindows()
	for _, end := range []Time{1, 10} {
		for i := 0; i < g.Shards(); i++ {
			g.Shard(i).RunWindow(end)
		}
		g.EndWindow()
	}
	if len(got) != len(want) {
		t.Fatalf("sharded run executed %v, serial %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sharded order %v, serial order %v", got, want)
		}
	}
}

// randomProgram seeds one random schedule-and-cancel tree per root on
// kernelOf(root). Each event decides from its own label alone how many
// children to schedule, at coarse delays so that times tie, and whether to
// cancel one event its tree scheduled before; so a serial and a sharded run
// make the same decisions for as long as they execute the same events in the
// same order. record logs each execution with its root.
func randomProgram(seed int64, roots int, kernelOf func(root int) *Kernel, record func(root int, label string)) {
	type tree struct {
		root, budget int
		labels       []string
		ids          map[string]EventID
	}
	var node func(tr *tree, label string) Handler
	node = func(tr *tree, label string) Handler {
		return func(k *Kernel) {
			record(tr.root, label)
			h := fnv.New64a()
			h.Write([]byte(label))
			rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
			for j := rng.Intn(4); j > 0 && tr.budget > 0; j-- {
				tr.budget--
				child := fmt.Sprintf("%s.%d", label, j)
				tr.ids[child] = k.Schedule([]Time{0, 0.5, 1, 1.5, 2.5}[rng.Intn(5)], node(tr, child))
				tr.labels = append(tr.labels, child)
			}
			if n := len(tr.labels); n > 0 && rng.Intn(3) == 0 {
				k.Cancel(tr.ids[tr.labels[rng.Intn(n)]])
			}
		}
	}
	for r := 0; r < roots; r++ {
		tr := &tree{root: r, budget: 60, ids: make(map[string]EventID)}
		kernelOf(r).ScheduleAt(Time(r%3), node(tr, fmt.Sprint(r)))
	}
}

// TestRandomWindowsMatchSerial runs random schedule-and-cancel trees with
// tied times on 2 and 3 shards, one window per unit of time, and requires
// every shard to execute its events in the serial kernel's order. The tie
// and re-key tests above each build one case by hand; this one draws events
// that are scheduled, cancelled and executed in the window that scheduled
// them or in a later one, beside dead heap entries of every age.
func TestRandomWindowsMatchSerial(t *testing.T) {
	const roots = 4
	for seed := int64(1); seed <= 200; seed++ {
		var want [roots][]string
		serial := NewKernel()
		randomProgram(seed, roots, func(int) *Kernel { return serial },
			func(r int, l string) { want[r] = append(want[r], l) })
		serial.Run()

		for _, shards := range []int{2, 3} {
			g := NewShardGroup(shards)
			var got [roots][]string
			randomProgram(seed, roots, func(r int) *Kernel { return g.Shard(r % shards) },
				func(r int, l string) { got[r] = append(got[r], l) })
			g.BeginWindows()
			for {
				end, any := Time(0), false
				for i := 0; i < shards; i++ {
					if at, ok := g.Shard(i).NextEventTime(); ok && (!any || at+1 < end) {
						end, any = at+1, true
					}
				}
				if !any {
					break
				}
				for i := 0; i < shards; i++ {
					g.Shard(i).RunWindow(end)
				}
				g.EndWindow()
			}
			for r := range want {
				if !slices.Equal(got[r], want[r]) {
					t.Fatalf("seed %d, %d shards, root %d: executed %v, serial order %v", seed, shards, r, got[r], want[r])
				}
			}
		}
	}
}
