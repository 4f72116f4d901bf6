package fault

import (
	"math"

	"repro/internal/diffusion"
	"repro/internal/geom"
	"repro/internal/rng"
)

// burst is one spurious always-detecting noise window.
type burst struct {
	start, end float64
}

// SensorState is one node's miscalibration model, implementing
// node.SensorModel. Three transforms compose between stimulus and reading:
//
//   - Additive drift: the sensor perceives the front Drift seconds late
//     (reads ground truth at now−Drift).
//   - Stuck-at: with probability Stuck the sensor latches forever at a
//     uniform-random onset; the latched value is the drifted reading at the
//     onset instant, so a sensor that sticks before the front arrives never
//     detects and one that sticks after keeps reporting coverage.
//   - Burst noise: Poisson-arriving windows (BurstRate per horizon on
//     average, Exponential(BurstLen) long) during which the sensor reads
//     true regardless of ground truth — false detections.
//
// All randomness is drawn once at construction from the node's dedicated
// stream, so the state is pure data afterwards and runs stay deterministic.
type SensorState struct {
	drift   float64
	stuck   bool
	stuckAt float64
	bursts  []burst
	idx     int // monotonic cursor into bursts (query times never decrease)
}

// NewSensorState draws one node's miscalibration from its dedicated stream.
func NewSensorState(p SensorSpec, horizon float64, st *rng.Stream) *SensorState {
	s := &SensorState{drift: p.Drift}
	if st.Bernoulli(p.Stuck) {
		s.stuck = true
		s.stuckAt = st.Uniform(0, horizon)
	}
	if p.BurstRate > 0 && p.BurstLen > 0 {
		gap := horizon / p.BurstRate
		for t := st.Exponential(gap); t < horizon; t += st.Exponential(gap) {
			dur := st.Exponential(p.BurstLen)
			s.bursts = append(s.bursts, burst{start: t, end: t + dur})
			t += dur
		}
	}
	return s
}

// Reading implements node.SensorModel: stuck wins, then burst noise, then
// the drifted ground truth.
func (s *SensorState) Reading(stim diffusion.Stimulus, pos geom.Vec2, now float64) bool {
	if s.stuck && now >= s.stuckAt {
		return stim.Covered(pos, s.stuckAt-s.drift)
	}
	if s.inBurst(now) {
		return true
	}
	return stim.Covered(pos, now-s.drift)
}

// inBurst reports whether now falls inside a noise window, advancing the
// monotonic cursor past expired windows.
func (s *SensorState) inBurst(now float64) bool {
	for s.idx < len(s.bursts) && s.bursts[s.idx].end <= now {
		s.idx++
	}
	return s.idx < len(s.bursts) && now >= s.bursts[s.idx].start
}

// SenseTimes implements node.SensorModel: the perceived (late) arrival, the
// stuck onset and every burst onset are instants at which an awake node
// should re-sample, since the ground-truth arrival event alone would miss
// them.
func (s *SensorState) SenseTimes(stim diffusion.Stimulus, pos geom.Vec2) []float64 {
	var ts []float64
	if s.drift > 0 {
		if a := stim.ArrivalTime(pos); !math.IsInf(a, 1) {
			ts = append(ts, a+s.drift)
		}
	}
	if s.stuck {
		ts = append(ts, s.stuckAt)
	}
	for _, b := range s.bursts {
		ts = append(ts, b.start)
	}
	return ts
}
