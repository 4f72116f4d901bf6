package energy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTelosProfileMatchesTable1(t *testing.T) {
	p := Telos()
	if p.ActiveMW != 3 {
		t.Errorf("ActiveMW = %v, want 3", p.ActiveMW)
	}
	if p.SleepUW != 15 {
		t.Errorf("SleepUW = %v, want 15", p.SleepUW)
	}
	if p.ReceiveMW != 38 {
		t.Errorf("ReceiveMW = %v, want 38", p.ReceiveMW)
	}
	if p.TransmitMW != 35 {
		t.Errorf("TransmitMW = %v, want 35", p.TransmitMW)
	}
	if p.DataRateKbps != 250 {
		t.Errorf("DataRateKbps = %v, want 250", p.DataRateKbps)
	}
	if p.TotalActiveMW != 41 {
		t.Errorf("TotalActiveMW = %v, want 41", p.TotalActiveMW)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Telos profile invalid: %v", err)
	}
	// Table 1 consistency: total active = MCU + radio listening.
	if p.ActiveMW+p.ReceiveMW != p.TotalActiveMW {
		t.Errorf("3 + 38 != %v", p.TotalActiveMW)
	}
}

func TestProfileConversions(t *testing.T) {
	p := Telos()
	if !almost(p.SleepW(), 15e-6, 1e-12) {
		t.Errorf("SleepW = %v", p.SleepW())
	}
	if !almost(p.ActiveW(), 0.041, 1e-12) {
		t.Errorf("ActiveW = %v", p.ActiveW())
	}
	// Telos transmit draw (35) is below receive (38): increment clamps to 0.
	if p.TxW() != 0 {
		t.Errorf("TxW = %v, want 0 for Telos", p.TxW())
	}
	hot := p
	hot.TransmitMW = 50
	if !almost(hot.TxW(), 12e-3, 1e-12) {
		t.Errorf("TxW = %v, want 0.012", hot.TxW())
	}
	// 250 kbps → 32 bytes = 256 bits take 1.024 ms.
	if !almost(p.TxTime(32), 256.0/250000.0, 1e-15) {
		t.Errorf("TxTime = %v", p.TxTime(32))
	}
}

func TestValidate(t *testing.T) {
	bad := Telos()
	bad.ActiveMW = -1
	if bad.Validate() == nil {
		t.Error("negative power accepted")
	}
	bad = Telos()
	bad.DataRateKbps = 0
	if bad.Validate() == nil {
		t.Error("zero data rate accepted")
	}
	bad = Telos()
	bad.TotalActiveMW = 1
	if bad.Validate() == nil {
		t.Error("total below MCU accepted")
	}
}

func TestModeString(t *testing.T) {
	if ModeSleep.String() != "sleep" || ModeActive.String() != "active" {
		t.Error("mode strings wrong")
	}
	if !strings.Contains(Mode(9).String(), "9") {
		t.Error("unknown mode string wrong")
	}
}

func TestMeterIntegration(t *testing.T) {
	p := Telos()
	m := NewMeter(p, 0, ModeActive)
	m.SetMode(10, ModeSleep)   // 10 s active
	m.SetMode(110, ModeActive) // 100 s sleep
	m.Close(120)               // 10 s active
	b := m.Breakdown()
	wantActive := 20 * p.ActiveW()
	wantSleep := 100 * p.SleepW()
	if !almost(b.ActiveJ, wantActive, 1e-12) {
		t.Errorf("ActiveJ = %v, want %v", b.ActiveJ, wantActive)
	}
	if !almost(b.SleepJ, wantSleep, 1e-12) {
		t.Errorf("SleepJ = %v, want %v", b.SleepJ, wantSleep)
	}
	if b.ActiveSec != 20 || b.SleepSec != 100 {
		t.Errorf("residency = %v/%v", b.ActiveSec, b.SleepSec)
	}
	if !almost(m.TotalJ(), wantActive+wantSleep, 1e-12) {
		t.Errorf("TotalJ = %v", m.TotalJ())
	}
	if !almost(b.DutyCycle(), 20.0/120.0, 1e-12) {
		t.Errorf("DutyCycle = %v", b.DutyCycle())
	}
	if b.Wakeups != 1 {
		t.Errorf("Wakeups = %d, want 1", b.Wakeups)
	}
}

func TestMeterWakeupCharge(t *testing.T) {
	p := Telos()
	p.WakeupJ = 0.001
	m := NewMeter(p, 0, ModeSleep)
	m.SetMode(1, ModeActive)
	m.SetMode(2, ModeSleep)
	m.SetMode(3, ModeActive)
	m.Close(4)
	b := m.Breakdown()
	if b.Wakeups != 2 {
		t.Errorf("Wakeups = %d", b.Wakeups)
	}
	if !almost(b.WakeupJ, 0.002, 1e-12) {
		t.Errorf("WakeupJ = %v", b.WakeupJ)
	}
}

func TestMeterTxCharges(t *testing.T) {
	p := Telos()
	p.TransmitMW = 50 // make the tx increment visible
	m := NewMeter(p, 0, ModeActive)
	m.ChargeTx(2)
	wantTx := 2 * p.TxW()
	m.ChargeTxBytes(1000) // 8000 bits at 250kbps = 0.032 s
	wantTx += 0.032 * p.TxW()
	m.Close(1)
	b := m.Breakdown()
	if !almost(b.TxJ, wantTx, 1e-12) {
		t.Errorf("TxJ = %v, want %v", b.TxJ, wantTx)
	}
	if !almost(b.Total(), b.ActiveJ+b.TxJ, 1e-12) {
		t.Errorf("Total = %v", b.Total())
	}
}

func TestMeterRxChargeIsZeroIncrement(t *testing.T) {
	m := NewMeter(Telos(), 0, ModeActive)
	m.ChargeRx(5)
	if b := m.Breakdown(); b.RxJ != 0 {
		t.Errorf("RxJ = %v, want 0 (listening billed in active mode)", b.RxJ)
	}
}

func TestMeterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("time backwards", func() {
		m := NewMeter(Telos(), 10, ModeActive)
		m.SetMode(5, ModeSleep)
	})
	mustPanic("negative tx", func() {
		NewMeter(Telos(), 0, ModeActive).ChargeTx(-1)
	})
	mustPanic("negative rx", func() {
		NewMeter(Telos(), 0, ModeActive).ChargeRx(-1)
	})
	mustPanic("SetMode after Close", func() {
		m := NewMeter(Telos(), 0, ModeActive)
		m.Close(1)
		m.SetMode(2, ModeSleep)
	})
}

func TestMeterCloseIdempotent(t *testing.T) {
	m := NewMeter(Telos(), 0, ModeActive)
	m.Close(10)
	total := m.TotalJ()
	m.Close(10) // second close: no-op
	if m.TotalJ() != total {
		t.Error("double Close changed total")
	}
}

func TestBreakdownString(t *testing.T) {
	m := NewMeter(Telos(), 0, ModeActive)
	m.Close(10)
	s := m.Breakdown().String()
	if !strings.Contains(s, "total") || !strings.Contains(s, "duty") {
		t.Errorf("String = %q", s)
	}
}

func TestDutyCycleDegenerate(t *testing.T) {
	var b Breakdown
	if b.DutyCycle() != 0 {
		t.Error("empty breakdown duty != 0")
	}
}

func TestQuickMeterNonNegativeMonotone(t *testing.T) {
	f := func(durations []uint8, modes []bool) bool {
		m := NewMeter(Telos(), 0, ModeActive)
		now := 0.0
		prev := 0.0
		for i, d := range durations {
			now += float64(d)
			mode := ModeActive
			if i < len(modes) && modes[i] {
				mode = ModeSleep
			}
			m.SetMode(now, mode)
			if tot := m.TotalJ(); tot < prev-1e-15 {
				return false
			} else {
				prev = tot
			}
		}
		m.Close(now)
		return m.TotalJ() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSleepCheaperThanActive(t *testing.T) {
	// For any horizon split, spending more time asleep never costs more.
	f := func(split uint8) bool {
		h := 100.0
		s := float64(split) / 255 * h
		sleepy := NewMeter(Telos(), 0, ModeSleep)
		sleepy.SetMode(s, ModeActive)
		sleepy.Close(h)
		awake := NewMeter(Telos(), 0, ModeActive)
		awake.Close(h)
		return sleepy.TotalJ() <= awake.TotalJ()+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
