package radio

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sim"
)

// testEnv is a fixed-size frame for channel tests.
func testEnv(size int) Envelope { return Envelope{Kind: KindBeacon, Wire: uint16(size)} }

// sink records deliveries; tests set its listening state on the medium.
type sink struct {
	got []struct {
		from NodeID
		env  Envelope
		at   float64
	}
	k *sim.Kernel
}

func (s *sink) Deliver(from NodeID, env Envelope) {
	s.got = append(s.got, struct {
		from NodeID
		env  Envelope
		at   float64
	}{from, env, s.k.Now()})
}

func newTestMedium(t *testing.T, loss LossModel) (*sim.Kernel, *Medium) {
	t.Helper()
	k := sim.NewKernel()
	st := rng.NewSource(1).Stream("channel")
	m := NewMedium(k, geom.R(0, 0, 100, 100), energy.Telos(), loss, st)
	return k, m
}

func TestUnitDiskDelivery(t *testing.T) {
	k, m := newTestMedium(t, UnitDisk{Range: 10})
	near := &sink{k: k}
	far := &sink{k: k}
	m.AddNode(0, geom.V(50, 50), &sink{k: k}, nil)
	m.AddNode(1, geom.V(55, 50), near, nil) // 5 m away
	m.AddNode(2, geom.V(80, 50), far, nil)  // 30 m away
	m.Broadcast(0, testEnv(32))
	k.Run()
	if len(near.got) != 1 {
		t.Fatalf("near sink got %d messages, want 1", len(near.got))
	}
	if len(far.got) != 0 {
		t.Fatalf("far sink got %d messages, want 0", len(far.got))
	}
	if near.got[0].from != 0 {
		t.Errorf("from = %d", near.got[0].from)
	}
	// Delivery is one tx-time later: 32B = 256 bits / 250 kbps = 1.024 ms.
	if !almostEq(near.got[0].at, 256.0/250000.0, 1e-12) {
		t.Errorf("delivery at %v", near.got[0].at)
	}
	st := m.Stats()
	if st.Broadcasts != 1 || st.Delivered != 1 || st.BytesSent != 32 {
		t.Errorf("stats = %+v", st)
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSleepingReceiverDrops(t *testing.T) {
	k, m := newTestMedium(t, UnitDisk{Range: 10})
	rx := &sink{k: k}
	m.AddNode(0, geom.V(0, 0), &sink{k: k}, nil)
	m.AddNode(1, geom.V(5, 0), rx, nil)
	m.SetListening(1, false)
	m.Broadcast(0, testEnv(16))
	k.Run()
	if len(rx.got) != 0 {
		t.Error("sleeping receiver got a message")
	}
	if m.Stats().DroppedSleeping != 1 {
		t.Errorf("DroppedSleeping = %d", m.Stats().DroppedSleeping)
	}
}

func TestListeningCheckedAtDeliveryTime(t *testing.T) {
	// A receiver that wakes up during the transmission still gets it; one
	// that sleeps before delivery completes loses it.
	k, m := newTestMedium(t, UnitDisk{Range: 10})
	rx := &sink{k: k}
	m.AddNode(0, geom.V(0, 0), &sink{k: k}, nil)
	m.AddNode(1, geom.V(5, 0), rx, nil)
	m.SetListening(1, false)
	m.Broadcast(0, testEnv(32)) // delivery at ~1.024 ms
	k.Schedule(0.0005, func(*sim.Kernel) { m.SetListening(1, true) })
	k.Run()
	if len(rx.got) != 1 {
		t.Error("receiver that woke during tx missed the message")
	}
}

func TestEnergyCharging(t *testing.T) {
	k := sim.NewKernel()
	prof := energy.Telos()
	prof.TransmitMW = 50 // make tx increment visible over receive
	st := rng.NewSource(1).Stream("channel")
	m := NewMedium(k, geom.R(0, 0, 100, 100), prof, UnitDisk{Range: 10}, st)
	txm := energy.NewMeter(prof, 0, energy.ModeActive)
	rxm := energy.NewMeter(prof, 0, energy.ModeActive)
	tx := &sink{k: k}
	rx := &sink{k: k}
	m.AddNode(0, geom.V(0, 0), tx, txm)
	m.AddNode(1, geom.V(5, 0), rx, rxm)
	m.Broadcast(0, testEnv(100))
	k.Run()
	txm.Close(k.Now())
	rxm.Close(k.Now())
	if txm.Breakdown().TxJ <= 0 {
		t.Error("sender not charged tx energy")
	}
	if rxm.Breakdown().TxJ != 0 {
		t.Error("receiver charged tx energy")
	}
}

func TestLossyDisk(t *testing.T) {
	st := rng.NewSource(2).Stream("loss")
	l := LossyDisk{Range: 10, LossProb: 0.4}
	if l.Delivers(15, st) {
		t.Error("beyond-range delivery")
	}
	delivered := 0
	n := 10000
	for i := 0; i < n; i++ {
		if l.Delivers(5, st) {
			delivered++
		}
	}
	rate := float64(delivered) / float64(n)
	if math.Abs(rate-0.6) > 0.02 {
		t.Errorf("delivery rate = %v, want ~0.6", rate)
	}
	if l.MaxRange() != 10 {
		t.Error("MaxRange wrong")
	}
}

func TestDistanceFalloff(t *testing.T) {
	st := rng.NewSource(3).Stream("falloff")
	d := DistanceFalloff{Reliable: 5, Max: 15}
	if !d.Delivers(4, st) {
		t.Error("reliable zone dropped")
	}
	if d.Delivers(20, st) {
		t.Error("beyond max delivered")
	}
	// Midpoint: PRR = 0.5.
	delivered := 0
	n := 10000
	for i := 0; i < n; i++ {
		if d.Delivers(10, st) {
			delivered++
		}
	}
	rate := float64(delivered) / float64(n)
	if math.Abs(rate-0.5) > 0.02 {
		t.Errorf("midpoint rate = %v, want ~0.5", rate)
	}
	if d.MaxRange() != 15 {
		t.Error("MaxRange wrong")
	}
}

func TestCollisions(t *testing.T) {
	k, m := newTestMedium(t, UnitDisk{Range: 20})
	m.EnableCollisions()
	rx := &sink{k: k}
	m.AddNode(0, geom.V(0, 0), &sink{k: k}, nil)
	m.AddNode(1, geom.V(10, 0), rx, nil)
	m.AddNode(2, geom.V(20, 0), &sink{k: k}, nil)
	// Two simultaneous transmissions overlap at node 1: both destroyed.
	m.Broadcast(0, testEnv(32))
	m.Broadcast(2, testEnv(32))
	k.Run()
	if len(rx.got) != 0 {
		t.Fatalf("receiver got %d messages through a collision", len(rx.got))
	}
	if m.Stats().DroppedCollision != 2 {
		t.Errorf("DroppedCollision = %d, want 2", m.Stats().DroppedCollision)
	}
}

func TestNoCollisionWhenSpaced(t *testing.T) {
	k, m := newTestMedium(t, UnitDisk{Range: 20})
	m.EnableCollisions()
	rx := &sink{k: k}
	m.AddNode(0, geom.V(0, 0), &sink{k: k}, nil)
	m.AddNode(1, geom.V(10, 0), rx, nil)
	m.AddNode(2, geom.V(20, 0), &sink{k: k}, nil)
	m.Broadcast(0, testEnv(32))
	// Second transmission starts after the first completes.
	k.Schedule(0.01, func(*sim.Kernel) { m.Broadcast(2, testEnv(32)) })
	k.Run()
	if len(rx.got) != 2 {
		t.Fatalf("receiver got %d messages, want 2", len(rx.got))
	}
	if m.Stats().DroppedCollision != 0 {
		t.Errorf("DroppedCollision = %d", m.Stats().DroppedCollision)
	}
}

func TestCollisionsDisabledByDefault(t *testing.T) {
	k, m := newTestMedium(t, UnitDisk{Range: 20})
	rx := &sink{k: k}
	m.AddNode(0, geom.V(0, 0), &sink{k: k}, nil)
	m.AddNode(1, geom.V(10, 0), rx, nil)
	m.AddNode(2, geom.V(20, 0), &sink{k: k}, nil)
	m.Broadcast(0, testEnv(32))
	m.Broadcast(2, testEnv(32))
	k.Run()
	if len(rx.got) != 2 {
		t.Errorf("got %d, want 2 without collision modelling", len(rx.got))
	}
}

func TestNeighborIDs(t *testing.T) {
	k, m := newTestMedium(t, UnitDisk{Range: 10})
	for i, p := range []geom.Vec2{geom.V(0, 0), geom.V(5, 0), geom.V(9, 0), geom.V(30, 0)} {
		m.AddNode(NodeID(i), p, &sink{k: k}, nil)
	}
	got := m.NeighborIDs(0)
	want := []NodeID{1, 2}
	if len(got) != len(want) {
		t.Fatalf("neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", got, want)
		}
	}
	if m.NeighborIDs(99) != nil {
		t.Error("unknown node has neighbors")
	}
}

func TestPositionAndCount(t *testing.T) {
	k, m := newTestMedium(t, UnitDisk{Range: 10})
	m.AddNode(0, geom.V(3, 4), &sink{k: k}, nil)
	if m.Topology().NodeCount() != 1 {
		t.Error("NodeCount wrong")
	}
	p, ok := m.Position(0)
	if !ok || p != geom.V(3, 4) {
		t.Errorf("Position = %v,%v", p, ok)
	}
	if _, ok := m.Position(9); ok {
		t.Error("unknown position found")
	}
}

func TestMediumPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	k := sim.NewKernel()
	st := rng.NewSource(1).Stream("x")
	mustPanic("nil loss", func() {
		NewMedium(k, geom.R(0, 0, 1, 1), energy.Telos(), nil, st)
	})
	mustPanic("bad profile", func() {
		p := energy.Telos()
		p.DataRateKbps = 0
		NewMedium(k, geom.R(0, 0, 1, 1), p, UnitDisk{Range: 1}, st)
	})
	mustPanic("duplicate id", func() {
		m := NewMedium(k, geom.R(0, 0, 1, 1), energy.Telos(), UnitDisk{Range: 1}, st)
		m.AddNode(0, geom.Zero, &sink{}, nil)
		m.AddNode(0, geom.Zero, &sink{}, nil)
	})
	mustPanic("unregistered sender", func() {
		m := NewMedium(k, geom.R(0, 0, 1, 1), energy.Telos(), UnitDisk{Range: 1}, st)
		m.Broadcast(5, testEnv(1))
	})
	mustPanic("negative id", func() {
		m := NewMedium(k, geom.R(0, 0, 1, 1), energy.Telos(), UnitDisk{Range: 1}, st)
		m.AddNode(-1, geom.Zero, &sink{}, nil)
	})
	mustPanic("listening state of an unregistered node", func() {
		m := NewMedium(k, geom.R(0, 0, 1, 1), energy.Telos(), UnitDisk{Range: 1}, st)
		m.AddNode(0, geom.Zero, &sink{}, nil)
		m.SetListening(1, false)
	})
	mustPanic("gap in the IDs", func() {
		m := NewMedium(k, geom.R(0, 0, 1, 1), energy.Telos(), UnitDisk{Range: 1}, st)
		m.AddNode(1, geom.Zero, &sink{}, nil)
		m.Broadcast(1, testEnv(1))
	})
}

func TestBroadcastAfterLateAdd(t *testing.T) {
	// The spatial index must refresh when nodes are added after a broadcast.
	k, m := newTestMedium(t, UnitDisk{Range: 10})
	a := &sink{k: k}
	m.AddNode(0, geom.V(0, 0), a, nil)
	m.Broadcast(0, testEnv(8))
	k.Run()
	b := &sink{k: k}
	m.AddNode(1, geom.V(5, 0), b, nil)
	m.Broadcast(0, testEnv(8))
	k.Run()
	if len(b.got) != 1 {
		t.Errorf("late-added node got %d messages", len(b.got))
	}
}

func TestQuickUnitDiskExactCutoff(t *testing.T) {
	st := rng.NewSource(9).Stream("q")
	f := func(r, d float64) bool {
		r = math.Abs(math.Mod(r, 100))
		d = math.Abs(math.Mod(d, 100))
		u := UnitDisk{Range: r}
		return u.Delivers(d, st) == (d <= r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDeliveryCountsConsistent(t *testing.T) {
	// delivered + droppedLoss + droppedSleeping == potential receivers in
	// range, for every broadcast pattern, without collisions.
	f := func(positions [6]uint8, lossP uint8, asleepMask uint8) bool {
		k := sim.NewKernel()
		st := rng.NewSource(int64(lossP)).Stream("channel")
		loss := LossyDisk{Range: 30, LossProb: float64(lossP%100) / 100}
		m := NewMedium(k, geom.R(0, 0, 300, 300), energy.Telos(), loss, st)
		sinks := make([]*sink, 6)
		for i := 0; i < 6; i++ {
			sinks[i] = &sink{k: k}
			m.AddNode(NodeID(i), geom.V(float64(positions[i]%200), 0), sinks[i], nil)
			m.SetListening(NodeID(i), asleepMask&(1<<i) == 0)
		}
		inRange := len(m.NeighborIDs(0))
		m.Broadcast(0, testEnv(16))
		k.Run()
		st2 := m.Stats()
		return st2.Delivered+st2.DroppedLoss+st2.DroppedSleeping == inRange
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCSMADefersWhenBusy(t *testing.T) {
	k, m := newTestMedium(t, UnitDisk{Range: 20})
	m.EnableCSMA(DefaultCSMA())
	rx := &sink{k: k}
	m.AddNode(0, geom.V(0, 0), &sink{k: k}, nil)
	m.AddNode(1, geom.V(10, 0), rx, nil)
	m.AddNode(2, geom.V(20, 0), &sink{k: k}, nil)
	// Two back-to-back transmissions: the second senses the first and
	// defers, so BOTH deliver (contrast with the collision test).
	m.Broadcast(0, testEnv(64))
	m.Broadcast(2, testEnv(64))
	k.Run()
	if len(rx.got) != 2 {
		t.Fatalf("receiver got %d messages, want 2 via CSMA", len(rx.got))
	}
	st := m.Stats()
	if st.CSMADeferred == 0 {
		t.Error("no deferral recorded")
	}
	if st.CSMAGaveUp != 0 {
		t.Errorf("CSMAGaveUp = %d", st.CSMAGaveUp)
	}
	// Deliveries must not overlap: second arrives after the first ends.
	if rx.got[1].at <= rx.got[0].at {
		t.Error("deliveries overlap despite CSMA")
	}
}

func TestCSMAPlusCollisionsAvoidsLoss(t *testing.T) {
	// With collisions on AND CSMA on, simultaneous senders serialize and
	// nothing is destroyed.
	k, m := newTestMedium(t, UnitDisk{Range: 20})
	m.EnableCollisions()
	m.EnableCSMA(DefaultCSMA())
	rx := &sink{k: k}
	m.AddNode(0, geom.V(0, 0), &sink{k: k}, nil)
	m.AddNode(1, geom.V(10, 0), rx, nil)
	m.AddNode(2, geom.V(20, 0), &sink{k: k}, nil)
	m.Broadcast(0, testEnv(64))
	m.Broadcast(2, testEnv(64))
	k.Run()
	if len(rx.got) != 2 {
		t.Fatalf("got %d messages, want 2 (CSMA should serialize)", len(rx.got))
	}
	if m.Stats().DroppedCollision != 0 {
		t.Errorf("DroppedCollision = %d with CSMA active", m.Stats().DroppedCollision)
	}
}

func TestCSMAGivesUpAfterMaxAttempts(t *testing.T) {
	k, m := newTestMedium(t, UnitDisk{Range: 20})
	m.EnableCSMA(CSMAConfig{MinBackoff: 0.0001, MaxBackoff: 0.0002, MaxAttempts: 2})
	rx := &sink{k: k}
	m.AddNode(0, geom.V(0, 0), &sink{k: k}, nil)
	m.AddNode(1, geom.V(10, 0), rx, nil)
	m.AddNode(2, geom.V(20, 0), &sink{k: k}, nil)
	// A huge frame occupies the channel far longer than 2 tiny backoffs.
	m.Broadcast(0, testEnv(2000))
	m.Broadcast(2, testEnv(16))
	k.Run()
	st := m.Stats()
	if st.CSMAGaveUp == 0 {
		t.Error("short-backoff sender never gave up")
	}
	// Only the hog's message reached the middle node.
	if len(rx.got) != 1 {
		t.Errorf("rx got %d messages, want 1", len(rx.got))
	}
}

func TestCSMASleepingSenderAbandons(t *testing.T) {
	k, m := newTestMedium(t, UnitDisk{Range: 20})
	m.EnableCSMA(DefaultCSMA())
	rx := &sink{k: k}
	sleeper := &sink{k: k}
	m.AddNode(0, geom.V(0, 0), &sink{k: k}, nil)
	m.AddNode(1, geom.V(10, 0), rx, nil)
	m.AddNode(2, geom.V(20, 0), sleeper, nil)
	m.Broadcast(0, testEnv(500))
	m.Broadcast(2, testEnv(16))
	// The deferring sender falls asleep before its backoff expires.
	m.SetListening(2, false)
	k.Run()
	if m.Stats().CSMAGaveUp == 0 {
		t.Error("sleeping sender did not abandon its frame")
	}
	if len(rx.got) != 1 {
		t.Errorf("rx got %d, want only the first frame", len(rx.got))
	}
}

func TestCSMAInvalidConfigPanics(t *testing.T) {
	_, m := newTestMedium(t, UnitDisk{Range: 10})
	for _, cfg := range []CSMAConfig{
		{MinBackoff: 0, MaxBackoff: 1, MaxAttempts: 1},
		{MinBackoff: 1, MaxBackoff: 1, MaxAttempts: 1},
		{MinBackoff: 0.1, MaxBackoff: 0.2, MaxAttempts: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			m.EnableCSMA(cfg)
		}()
	}
}
