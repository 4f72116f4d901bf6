// Package energy implements the power model of the PAS paper's Table 1 (the
// Telos mote characteristics) and per-node energy meters that integrate state
// residency and radio activity over virtual time.
//
// The paper's Table 1 gives: active power 3 mW (the MCU), sleep power 15 µW,
// receive power 38 mW (the radio listening/receiving), transmit power 35 mW
// (the table labels the column "Transition power"; it is the CC2420 transmit
// draw and is charged per transmitted packet), data rate 250 kbps, and total
// active power 41 mW (= MCU 3 mW + radio listening 38 mW), i.e. an awake
// sensor always keeps its radio in receive mode, which is how both PAS and
// SAS nodes detect REQUEST/RESPONSE traffic.
package energy

import "fmt"

// Profile holds the hardware power characteristics of a sensor platform,
// in the units the paper's Table 1 uses.
type Profile struct {
	// ActiveMW is the MCU active power in milliwatts.
	ActiveMW float64
	// SleepUW is the whole-node sleep power in microwatts.
	SleepUW float64
	// ReceiveMW is the radio receive/listen power in milliwatts.
	ReceiveMW float64
	// TransmitMW is the radio transmit power in milliwatts (Table 1's
	// "transition power" column).
	TransmitMW float64
	// DataRateKbps is the radio data rate in kilobits per second.
	DataRateKbps float64
	// TotalActiveMW is the power of an awake node (MCU + radio listening)
	// in milliwatts.
	TotalActiveMW float64
	// WakeupJ is an optional per-transition energy charge for waking from
	// sleep (not in Table 1; used by the failure/ablation extensions and
	// zero by default).
	WakeupJ float64
}

// Telos returns the profile of the Telos mote exactly as printed in the
// paper's Table 1.
func Telos() Profile {
	return Profile{
		ActiveMW:      3,
		SleepUW:       15,
		ReceiveMW:     38,
		TransmitMW:    35,
		DataRateKbps:  250,
		TotalActiveMW: 41,
	}
}

// Validate reports an error if the profile is not physically sensible.
func (p Profile) Validate() error {
	switch {
	case p.ActiveMW < 0 || p.SleepUW < 0 || p.ReceiveMW < 0 || p.TransmitMW < 0 || p.WakeupJ < 0:
		return fmt.Errorf("energy: negative power in profile %+v", p)
	case p.DataRateKbps <= 0:
		return fmt.Errorf("energy: data rate must be positive, got %g kbps", p.DataRateKbps)
	case p.TotalActiveMW < p.ActiveMW:
		return fmt.Errorf("energy: total active power %g mW below MCU power %g mW", p.TotalActiveMW, p.ActiveMW)
	}
	return nil
}

// SleepW returns the sleep power in watts.
func (p Profile) SleepW() float64 { return p.SleepUW * 1e-6 }

// ActiveW returns the awake power (MCU + radio listening) in watts.
func (p Profile) ActiveW() float64 { return p.TotalActiveMW * 1e-3 }

// TxW returns the additional transmit power in watts. While transmitting,
// the radio draws transmit power instead of receive power, so the increment
// over the awake baseline is (transmit − receive); it is clamped at zero for
// unusual profiles whose receive draw exceeds transmit.
func (p Profile) TxW() float64 {
	d := (p.TransmitMW - p.ReceiveMW) * 1e-3
	if d < 0 {
		return 0
	}
	return d
}

// TxTime returns the time in seconds needed to transmit the given number of
// bytes at the profile's data rate.
func (p Profile) TxTime(bytes int) float64 {
	return float64(bytes*8) / (p.DataRateKbps * 1000)
}

// Mode is a node power mode.
type Mode int

// Power modes tracked by a Meter.
const (
	ModeSleep Mode = iota
	ModeActive
	numModes
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSleep:
		return "sleep"
	case ModeActive:
		return "active"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Meter integrates one node's energy use over virtual time. It tracks the
// residency in each power mode, discrete transmit/receive charges and wakeup
// transition charges. Meters are not safe for concurrent use; the simulation
// kernel is single-goroutine.
type Meter struct {
	profile  Profile
	mode     Mode
	since    float64 // virtual time of the last mode change
	residJ   [numModes]float64
	residSec [numModes]float64
	txJ      float64
	rxJ      float64
	wakeJ    float64
	wakeups  int
	closed   bool
}

// NewMeter returns a meter that starts in the given mode at virtual time
// start.
func NewMeter(p Profile, start float64, mode Mode) *Meter {
	m := &Meter{}
	m.Init(p, start, mode)
	return m
}

// Init (re)initializes a meter in place — the value-type counterpart of
// NewMeter, used by slab-allocated owners that embed meters instead of
// pointing at individually heap-allocated ones.
func (m *Meter) Init(p Profile, start float64, mode Mode) {
	*m = Meter{profile: p, mode: mode, since: start}
}

// Profile returns the meter's hardware profile.
func (m *Meter) Profile() Profile { return m.profile }

// Mode returns the current power mode.
func (m *Meter) Mode() Mode { return m.mode }

// modePowerW returns the continuous draw of a mode in watts.
func (m *Meter) modePowerW(mode Mode) float64 {
	switch mode {
	case ModeSleep:
		return m.profile.SleepW()
	default:
		return m.profile.ActiveW()
	}
}

// accrue integrates the current mode up to time now.
func (m *Meter) accrue(now float64) {
	dt := now - m.since
	if dt < 0 {
		panic(fmt.Sprintf("energy: meter time went backwards: %v -> %v", m.since, now))
	}
	m.residJ[m.mode] += dt * m.modePowerW(m.mode)
	m.residSec[m.mode] += dt
	m.since = now
}

// SetMode switches the node to the given mode at virtual time now,
// integrating the energy spent in the previous mode. A sleep→active switch
// also charges the profile's wakeup energy.
func (m *Meter) SetMode(now float64, mode Mode) {
	if m.closed {
		panic("energy: SetMode on closed meter")
	}
	m.accrue(now)
	if m.mode == ModeSleep && mode == ModeActive {
		m.wakeJ += m.profile.WakeupJ
		m.wakeups++
	}
	m.mode = mode
}

// ChargeTx adds the energy of transmitting for the given duration in seconds
// (the increment of transmit power over the awake baseline).
func (m *Meter) ChargeTx(duration float64) {
	if duration < 0 {
		panic(fmt.Sprintf("energy: negative tx duration %v", duration))
	}
	m.txJ += duration * m.profile.TxW()
}

// ChargeTxBytes charges a transmission of the given payload size using the
// profile's data rate.
func (m *Meter) ChargeTxBytes(bytes int) {
	m.ChargeTx(m.profile.TxTime(bytes))
}

// ChargeRx adds an explicit receive charge. The awake baseline already pays
// the radio listening power, so this defaults to a zero increment and exists
// for profiles that model an extra per-packet decode cost; duration is in
// seconds and the charge is duration × (receive − MCU-only listening) = 0 for
// the Telos table. It is kept as an explicit hook so channel models can
// attribute receive time per packet in reports.
func (m *Meter) ChargeRx(duration float64) {
	if duration < 0 {
		panic(fmt.Sprintf("energy: negative rx duration %v", duration))
	}
	m.rxJ += 0 * duration // listening already billed in ModeActive
}

// Close integrates the meter to the final time now. Further SetMode calls
// panic; Close is idempotent only at the same timestamp.
func (m *Meter) Close(now float64) {
	if m.closed {
		return
	}
	m.accrue(now)
	m.closed = true
}

// Reopen resumes accounting on a closed meter at virtual time now in the
// given mode, preserving all accumulated totals — the churn-recovery
// counterpart of Close (a failed node's meter closes at failure and reopens
// at reboot; the outage itself draws nothing). Reopening into active mode
// charges the profile's wakeup energy: a reboot costs at least a wake-up.
func (m *Meter) Reopen(now float64, mode Mode) {
	if !m.closed {
		panic("energy: Reopen on open meter")
	}
	if now < m.since {
		panic(fmt.Sprintf("energy: Reopen at %v before close time %v", now, m.since))
	}
	m.closed = false
	m.since = now
	m.mode = mode
	if mode == ModeActive {
		m.wakeJ += m.profile.WakeupJ
		m.wakeups++
	}
}

// TotalJ returns the total energy consumed so far in joules.
func (m *Meter) TotalJ() float64 {
	var t float64
	for _, j := range m.residJ {
		t += j
	}
	return t + m.txJ + m.rxJ + m.wakeJ
}

// TotalAtJ returns the energy that will have been consumed by virtual time
// now, assuming the current mode persists — without mutating the meter. The
// battery-exhaustion scheduler uses it to project the time of death.
func (m *Meter) TotalAtJ(now float64) float64 {
	dt := now - m.since
	if dt < 0 {
		panic(fmt.Sprintf("energy: TotalAtJ at %v before last accrual %v", now, m.since))
	}
	return m.TotalJ() + dt*m.modePowerW(m.mode)
}

// CurrentDrawW returns the node's continuous draw in its present mode.
func (m *Meter) CurrentDrawW() float64 { return m.modePowerW(m.mode) }

// Breakdown reports the per-component energy in joules.
type Breakdown struct {
	SleepJ    float64
	ActiveJ   float64
	TxJ       float64
	RxJ       float64
	WakeupJ   float64
	SleepSec  float64
	ActiveSec float64
	Wakeups   int
}

// Breakdown returns the per-component energy and residency report.
func (m *Meter) Breakdown() Breakdown {
	return Breakdown{
		SleepJ:    m.residJ[ModeSleep],
		ActiveJ:   m.residJ[ModeActive],
		TxJ:       m.txJ,
		RxJ:       m.rxJ,
		WakeupJ:   m.wakeJ,
		SleepSec:  m.residSec[ModeSleep],
		ActiveSec: m.residSec[ModeActive],
		Wakeups:   m.wakeups,
	}
}

// Total returns the grand total of a breakdown in joules.
func (b Breakdown) Total() float64 {
	return b.SleepJ + b.ActiveJ + b.TxJ + b.RxJ + b.WakeupJ
}

// DutyCycle returns the fraction of accounted time spent awake, in [0, 1].
func (b Breakdown) DutyCycle() float64 {
	t := b.SleepSec + b.ActiveSec
	if t <= 0 {
		return 0
	}
	return b.ActiveSec / t
}

// String implements fmt.Stringer with a compact J summary.
func (b Breakdown) String() string {
	return fmt.Sprintf("total %.4g J (active %.4g, sleep %.4g, tx %.4g, wake %.4g; duty %.1f%%)",
		b.Total(), b.ActiveJ, b.SleepJ, b.TxJ, b.WakeupJ, 100*b.DutyCycle())
}
