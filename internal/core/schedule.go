package core

import "fmt"

// SleepSchedule implements the paper's §3.4 safe-state sleeping strategy:
// the sleep interval starts at Init and grows by Increment after each
// uneventful wake ("the sensor increases its sleeping interval by adding an
// increment Δt and falls back to sleep"), saturating at Max ("their sleeping
// interval will stay when it reaches the upper bound"). Alerts reset the
// schedule so a node returning to safe starts cautious again.
type SleepSchedule struct {
	Init      float64 // first sleep interval, seconds
	Increment float64 // Δt added per uneventful cycle
	Max       float64 // maximum sleeping interval (the paper's swept knob)

	cur float64
}

// MakeSleepSchedule validates and constructs a schedule, by value, so owners
// embed it instead of pointing at a heap-allocated one.
func MakeSleepSchedule(init, increment, max float64) SleepSchedule {
	if init <= 0 || max <= 0 || increment < 0 {
		panic(fmt.Sprintf("core: invalid sleep schedule init=%g inc=%g max=%g", init, increment, max))
	}
	if init > max {
		init = max
	}
	return SleepSchedule{Init: init, Increment: increment, Max: max}
}

// Next returns the interval to sleep now and advances the schedule.
func (s *SleepSchedule) Next() float64 {
	if s.cur == 0 {
		s.cur = s.Init
	}
	out := s.cur
	s.cur += s.Increment
	if s.cur > s.Max {
		s.cur = s.Max
	}
	if out > s.Max {
		out = s.Max
	}
	return out
}

// Current returns the interval the next call to Next will produce, without
// advancing.
func (s *SleepSchedule) Current() float64 {
	if s.cur == 0 {
		return s.Init
	}
	if s.cur > s.Max {
		return s.Max
	}
	return s.cur
}

// Reset restarts the linear ramp from Init.
func (s *SleepSchedule) Reset() { s.cur = 0 }

// PhaseJitter returns a deterministic multiplicative jitter factor in
// [1−amount, 1+amount] for the k-th sleep of the given node. Identical boot
// times would otherwise synchronize every node's wake instants network-wide
// — an artifact real deployments never exhibit (clocks drift, boots differ)
// that starves probers of fresh information: their covered neighbours would
// always be mid-computation at the moment of every probe. The factor is a
// pure hash of (node, k), so runs remain exactly reproducible.
func PhaseJitter(id, k int, amount float64) float64 {
	if amount <= 0 {
		return 1
	}
	if amount > 0.9 {
		amount = 0.9
	}
	x := uint64(id)*0x9e3779b97f4a7c15 ^ uint64(k)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0x94d049bb133111eb
	x ^= x >> 27
	frac := float64(x>>11) / float64(1<<53) // uniform in [0,1)
	return 1 + amount*(2*frac-1)
}
