package radio

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

// Deaf-window semantics (churn recovery): a node that rebooted after a
// transmission went on air was down at preamble time and cannot have
// synchronized, so the in-flight delivery must drop even though the node is
// listening again by delivery time. Transmissions starting at or after the
// reboot instant are received normally.

func TestDeafWindowDropsInFlightDelivery(t *testing.T) {
	k, m := newTestMedium(t, UnitDisk{Range: 10})
	rx := &sink{k: k}
	m.AddNode(0, geom.V(0, 0), &sink{k: k}, nil)
	m.AddNode(1, geom.V(5, 0), rx, nil)
	m.Broadcast(0, testEnv(32)) // on air at t=0, delivers at ~1.024 ms
	// The receiver reboots mid-flight: listening, but deaf to this preamble.
	m.MarkDeafUntil(1, 0.0005)
	k.Run()
	if len(rx.got) != 0 {
		t.Fatal("rebooting receiver heard a transmission that started while it was down")
	}
	if m.Stats().DroppedSleeping != 1 {
		t.Errorf("DroppedSleeping = %d, want 1", m.Stats().DroppedSleeping)
	}
	// A transmission starting after the reboot is received normally.
	k.Schedule(0.002, func(*sim.Kernel) { m.Broadcast(0, testEnv(32)) })
	k.Run()
	if len(rx.got) != 1 {
		t.Fatalf("post-reboot delivery count = %d, want 1", len(rx.got))
	}
}

func TestDeafWindowBoundaryIsInclusiveOfRestart(t *testing.T) {
	// A transmission whose preamble starts exactly at the reboot instant is
	// received: the node is back up when the preamble begins.
	k, m := newTestMedium(t, UnitDisk{Range: 10})
	rx := &sink{k: k}
	m.AddNode(0, geom.V(0, 0), &sink{k: k}, nil)
	m.AddNode(1, geom.V(5, 0), rx, nil)
	m.MarkDeafUntil(1, 0.001)
	k.Schedule(0.001, func(*sim.Kernel) { m.Broadcast(0, testEnv(32)) })
	k.Run()
	if len(rx.got) != 1 {
		t.Fatalf("delivery count = %d, want 1 (tx started exactly at reboot)", len(rx.got))
	}
}

func TestMarkDeafUntilMonotonicAndTopologyPreserving(t *testing.T) {
	k, m := newTestMedium(t, UnitDisk{Range: 10})
	rx := &sink{k: k}
	m.AddNode(0, geom.V(0, 0), &sink{k: k}, nil)
	m.AddNode(1, geom.V(5, 0), rx, nil)
	topo := m.Topology() // freezes
	// An earlier MarkDeafUntil never rolls back a later one.
	m.MarkDeafUntil(1, 0.004)
	m.MarkDeafUntil(1, 0.001)
	m.Broadcast(0, testEnv(32)) // on air at t=0 < 0.004: deaf
	k.Run()
	if len(rx.got) != 0 {
		t.Fatal("earlier MarkDeafUntil rolled back the deaf window")
	}
	// Unknown IDs are ignored, and no call above touched the frozen topology.
	m.MarkDeafUntil(99, 1)
	if m.Topology() != topo {
		t.Fatal("MarkDeafUntil invalidated the frozen topology")
	}
}
