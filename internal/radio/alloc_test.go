package radio

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sim"
)

// The medium promises a zero-allocation broadcast→delivery cycle at steady
// state: the neighbour-query scratch, the pooled delivery records and the
// kernel's arg-carrying events are all recycled, and the value-dispatch
// envelope never boxes. These regression tests pin that property, mirroring
// internal/sim/alloc_test.go.

// countSink is an allocation-free receiver.
type countSink struct {
	delivered int
}

func (s *countSink) Deliver(NodeID, Envelope) { s.delivered++ }

// broadcastRig wires a sender with a ring of in-range listeners, all metered.
func broadcastRig() (*sim.Kernel, *Medium, []*countSink) {
	k := sim.NewKernel()
	st := rng.NewSource(1).Stream("channel")
	m := NewMedium(k, geom.R(0, 0, 100, 100), energy.Telos(), UnitDisk{Range: 15}, st)
	sinks := make([]*countSink, 0, 9)
	center := geom.V(50, 50)
	positions := []geom.Vec2{
		center,
		geom.V(55, 50), geom.V(45, 50), geom.V(50, 55), geom.V(50, 45),
		geom.V(57, 57), geom.V(43, 43), geom.V(57, 43), geom.V(43, 57),
	}
	for i, pos := range positions {
		s := &countSink{}
		sinks = append(sinks, s)
		m.AddNode(NodeID(i), pos, s, energy.NewMeter(energy.Telos(), 0, energy.ModeActive))
	}
	return k, m, sinks
}

func TestBroadcastDeliverZeroAllocsSteadyState(t *testing.T) {
	k, m, sinks := broadcastRig()
	env := Envelope{Kind: KindResponse, Wire: 62, F: [6]float64{50, 50, 1, 0, 42, 40}}
	// Warm up: grow the kernel arena/heap, the neighbour scratch and the
	// delivery pool to the working set.
	for i := 0; i < 16; i++ {
		m.Broadcast(0, env)
		k.Run()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.Broadcast(0, env)
		k.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state broadcast→delivery allocates %g allocs/op, want 0", allocs)
	}
	if sinks[1].delivered == 0 {
		t.Fatal("no deliveries recorded — the cycle under test never ran")
	}
}

func TestBroadcastDeliverZeroAllocsWithRequest(t *testing.T) {
	// The other hot-path kind: empty REQUEST frames.
	k, m, _ := broadcastRig()
	env := Envelope{Kind: KindRequest, Wire: 12}
	for i := 0; i < 16; i++ {
		m.Broadcast(0, env)
		k.Run()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.Broadcast(0, env)
		k.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state request broadcast allocates %g allocs/op, want 0", allocs)
	}
}

func TestDeliveryPoolRecyclesAcrossNestedBroadcasts(t *testing.T) {
	// An agent that re-broadcasts from inside Deliver claims a second pooled
	// record while the first is mid-fan-out; both must recycle.
	k := sim.NewKernel()
	st := rng.NewSource(1).Stream("channel")
	m := NewMedium(k, geom.R(0, 0, 100, 100), energy.Telos(), UnitDisk{Range: 15}, st)
	var echoed bool
	echo := &echoSink{m: m, echoedFlag: &echoed}
	quiet := &countSink{}
	m.AddNode(0, geom.V(50, 50), quiet, nil)
	m.AddNode(1, geom.V(55, 50), echo, nil)
	m.Broadcast(0, Envelope{Kind: KindRequest, Wire: 12})
	k.Run()
	if !echoed {
		t.Fatal("echo receiver never re-broadcast")
	}
	if quiet.delivered != 1 {
		t.Fatalf("origin node got %d deliveries, want 1 (the echo)", quiet.delivered)
	}
	if got := len(m.freeDeliveries); got != 2 {
		t.Errorf("delivery pool holds %d records after quiescence, want 2", got)
	}
}

// echoSink re-broadcasts a response the moment it receives a request —
// exercising nested Broadcast during fan-out.
type echoSink struct {
	m          *Medium
	echoedFlag *bool
}

func (e *echoSink) Deliver(from NodeID, env Envelope) {
	if env.Kind == KindRequest && !*e.echoedFlag {
		*e.echoedFlag = true
		e.m.Broadcast(1, Envelope{Kind: KindResponse, Wire: 62})
	}
}

// replySink answers every REQUEST with a RESPONSE, unconditionally — the
// steady-state shape of PAS model-exchange bursts, where a delivery handler
// re-enters Broadcast while the outer fan-out's pooled record is live.
type replySink struct {
	m  *Medium
	id NodeID
}

func (r *replySink) Deliver(_ NodeID, env Envelope) {
	if env.Kind == KindRequest {
		r.m.Broadcast(r.id, Envelope{Kind: KindResponse, Wire: 62})
	}
}

// TestBroadcastDeliverZeroAllocsNestedRebroadcast pins the CSR-backed
// broadcast→delivery cycle at 0 allocs/op including a nested rebroadcast:
// the request fan-out walks one frozen row, each receiver's reply claims a
// second pooled record mid-fan-out and walks its own row, and the whole
// burst must recycle without allocating.
func TestBroadcastDeliverZeroAllocsNestedRebroadcast(t *testing.T) {
	k := sim.NewKernel()
	st := rng.NewSource(1).Stream("channel")
	m := NewMedium(k, geom.R(0, 0, 100, 100), energy.Telos(), UnitDisk{Range: 15}, st)
	quiet := &countSink{}
	m.AddNode(0, geom.V(50, 50), quiet, energy.NewMeter(energy.Telos(), 0, energy.ModeActive))
	for i := 1; i <= 4; i++ {
		r := &replySink{m: m, id: NodeID(i)}
		m.AddNode(r.id, geom.V(50+float64(i), 50), r, energy.NewMeter(energy.Telos(), 0, energy.ModeActive))
	}
	req := Envelope{Kind: KindRequest, Wire: 12}
	// Warm up: freeze the topology, grow the kernel arena and the delivery
	// pool to the burst's working set.
	for i := 0; i < 16; i++ {
		m.Broadcast(0, req)
		k.Run()
	}
	before := quiet.delivered
	allocs := testing.AllocsPerRun(500, func() {
		m.Broadcast(0, req)
		k.Run()
	})
	if allocs != 0 {
		t.Errorf("nested-rebroadcast cycle allocates %g allocs/op, want 0", allocs)
	}
	if quiet.delivered == before {
		t.Fatal("no nested responses delivered — the cycle under test never ran")
	}
}
