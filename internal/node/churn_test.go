package node

import (
	"math"
	"testing"

	"repro/internal/diffusion"
	"repro/internal/geom"
	"repro/internal/sim"
)

// Churn semantics: a node killed or mid-reboot while a delivery is in
// flight must not receive it, and recovery must never disturb the frozen
// network topology — positions are immutable, so rejoining is a radio-state
// change, not a membership change.

func TestKillMidDeliveryDropsInFlight(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 0), 0.001, 0) // effectively never arrives
	k, m := testRig(stim)
	tx := &scriptAgent{}
	rxa := &scriptAgent{}
	a := newNode(k, m, 0, geom.V(50, 50), stim, tx)
	b := newNode(k, m, 1, geom.V(55, 50), stim, rxa)
	a.Start()
	b.Start()
	// 16-byte ping: on air at t=1, delivers at t+0.512 ms. B dies mid-flight.
	k.Schedule(1, func(*sim.Kernel) { a.Broadcast(ping) })
	b.FailAt(1.0002)
	k.Run()
	if b.RxCount() != 0 || len(rxa.msgs) != 0 {
		t.Fatal("node killed mid-delivery still received the message")
	}
	if m.Stats().DroppedSleeping != 1 {
		t.Errorf("DroppedSleeping = %d, want 1", m.Stats().DroppedSleeping)
	}
}

func TestRecoverMidDeliveryStaysDeaf(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 0), 0.001, 0)
	k, m := testRig(stim)
	tx := &scriptAgent{}
	rxa := &scriptAgent{}
	a := newNode(k, m, 0, geom.V(50, 50), stim, tx)
	b := newNode(k, m, 1, geom.V(55, 50), stim, rxa)
	a.Start()
	b.Start()
	b.FailAt(0.5)
	// A transmits at t=1 while B is down; B reboots mid-flight at t=1.0003,
	// inside the [1, 1.000512] on-air window: listening at delivery time but
	// deaf to a preamble that started during its outage.
	k.Schedule(1, func(*sim.Kernel) { a.Broadcast(ping) })
	b.RecoverAt(1.0003)
	// A second transmission after the reboot must go through.
	k.Schedule(1.1, func(*sim.Kernel) { a.Broadcast(ping) })
	k.Run()
	if !b.IsAwake() || b.Failed() {
		t.Fatal("node did not recover")
	}
	if b.RxCount() != 1 {
		t.Fatalf("RxCount = %d, want 1 (in-flight delivery dropped, later one received)", b.RxCount())
	}
	if m.Stats().DroppedSleeping != 1 {
		t.Errorf("DroppedSleeping = %d, want 1", m.Stats().DroppedSleeping)
	}
}

func TestChurnRejoinKeepsFrozenTopology(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 0), 0.001, 0)
	k, m := testRig(stim)
	a := newNode(k, m, 0, geom.V(50, 50), stim, &scriptAgent{})
	b := newNode(k, m, 1, geom.V(55, 50), stim, &scriptAgent{})
	a.Start()
	b.Start()
	topo := m.Topology() // freeze before churn
	b.FailAt(1)
	b.RecoverAt(5)
	k.Schedule(6, func(*sim.Kernel) { a.Broadcast(ping) })
	k.Run()
	if m.Topology() != topo {
		t.Fatal("churn recovery invalidated the frozen topology")
	}
	if b.RxCount() != 1 {
		t.Fatalf("rejoined node RxCount = %d, want 1", b.RxCount())
	}
}

func TestRecoverBookkeeping(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 0), 0.001, 0)
	k, m := testRig(stim)
	ag := &scriptAgent{}
	n := newNode(k, m, 0, geom.V(50, 50), stim, ag)
	n.Start()
	n.FailAt(2)
	n.RecoverAt(7)
	k.RunUntil(10)
	n.Finish(10)

	if got := n.Downtimes(); len(got) != 1 || got[0].Start != 2 || got[0].End != 7 {
		t.Fatalf("Downtimes = %+v, want [{2 7}]", got)
	}
	for _, c := range []struct {
		t    float64
		down bool
	}{{1, false}, {2, true}, {5, true}, {7, false}, {9, false}} {
		if n.WasDownAt(c.t) != c.down {
			t.Errorf("WasDownAt(%g) = %v, want %v", c.t, !c.down, c.down)
		}
	}
	if d := n.DownDuring(10); math.Abs(d-5) > 1e-9 {
		t.Errorf("DownDuring(10) = %g, want 5", d)
	}
	if d := n.DownDuring(4); math.Abs(d-2) > 1e-9 {
		t.Errorf("DownDuring(4) = %g, want 2 (clipped at horizon)", d)
	}
	if ag.wakes == 0 {
		t.Error("recovery did not call OnWake")
	}
	// The reboot charged a wake-up and resumed active residency: 2 s before
	// the outage plus 3 s after.
	b := n.Meter().Breakdown()
	if math.Abs(b.ActiveSec-5) > 1e-9 {
		t.Errorf("ActiveSec = %g, want 5", b.ActiveSec)
	}
	if b.Wakeups != 1 {
		t.Errorf("Wakeups = %d, want 1 (the reboot)", b.Wakeups)
	}
	// A still-failed node reports an open-ended outage.
	n2 := newNode(k, m, 1, geom.V(60, 50), stim, &scriptAgent{})
	n2.Start()
	n2.FailAt(12)
	k.RunUntil(15)
	if !n2.WasDownAt(14) {
		t.Error("still-failed node not reported down")
	}
	if d := n2.DownDuring(20); math.Abs(d-8) > 1e-9 {
		t.Errorf("open-tail DownDuring(20) = %g, want 8", d)
	}
	// Recover is a no-op on a healthy node and on a battery-dead one.
	nOK := newNode(k, m, 2, geom.V(70, 50), stim, &scriptAgent{})
	nOK.Start()
	nOK.Recover()
	if len(nOK.Downtimes()) != 0 {
		t.Error("Recover on a healthy node recorded an outage")
	}
}
