// Package predict is the pluggable prediction layer of the PAS agent. It
// owns the neighbour-report vocabulary, the paper's §3.3 spreading-velocity
// and arrival-time estimators, and a portfolio of alternative arrival-time
// predictors (NLMS, EWMA, AR(k), scalar Kalman) plus a dual-prediction
// `switching` meta-predictor implementing the survey's DPS scheme: a report
// is only rebroadcast when the model's prediction deviates from the raw
// estimator reading by more than a tolerance.
//
// The agent embeds a Model by value and delegates every prediction refresh
// to it. All predictor state is fixed-size and in-struct, so a Model carved
// from an agent slab allocates nothing per step.
package predict

import (
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/radio"
)

// Report is the per-neighbour knowledge a PAS or SAS node accumulates from
// RESPONSE messages.
type Report struct {
	ID    radio.NodeID
	Pos   geom.Vec2
	State node.State
	// Velocity is the neighbour's spreading-velocity estimate; valid only
	// when HasVelocity is set. When HasDirection is unset the vector's
	// direction is meaningless and only its magnitude (the speed) may be
	// used — SAS reports speeds without a heading.
	Velocity         geom.Vec2
	HasVelocity      bool
	HasDirection     bool
	PredictedArrival float64
	DetectedAt       float64
	Detected         bool
	ReceivedAt       float64 // local receive time, for aging
}

// Table is a node's neighbour-report table: at most one report per
// neighbour, kept sorted by ID. An agent hands it to the estimators as is, so
// they read the reports in one deterministic order with no copy and no sort.
type Table []Report

// Put records r, replacing the report of the same neighbour if the table
// holds one. The binary search reads the IDs in place: a comparator taking
// each Report by value would copy it on every probe.
func (t *Table) Put(r Report) {
	i := sort.Search(len(*t), func(k int) bool { return (*t)[k].ID >= r.ID })
	if i < len(*t) && (*t)[i].ID == r.ID {
		(*t)[i] = r
		return
	}
	if *t == nil {
		*t = make(Table, 0, tableCap)
	}
	*t = slices.Insert(*t, i, r)
}

// tableCap is a table's first capacity: 8 reports fill one 704-byte size
// class and hold nearly every neighbourhood the registry deploys, in one
// allocation where growing from nil would take four.
const tableCap = 8

// SpeedOnly encodes a speed-only (directionless) estimate as a vector whose
// magnitude carries the speed. Reports built from it must leave HasDirection
// unset so estimators never mistake the placeholder +x heading for a real
// one.
func SpeedOnly(speed float64) geom.Vec2 { return geom.V(speed, 0) }

// ActualVelocity implements the paper's §3.3 estimator for a node X that has
// just detected the stimulus:
//
//	v_X = (1/n) Σ_I  vec(I→X) / t_I
//
// over covered neighbours I, where t_I is the elapsed time between I's
// detection and X's detection (xDetectedAt − I.DetectedAt). Neighbours whose
// elapsed time is below minDt are skipped: a near-simultaneous detection
// pair divides a metre-scale baseline by a near-zero time and produces a
// wildly overestimated speed (sensing latency noise dominates), so such
// pairs carry no usable velocity information. The boolean result reports
// whether any neighbour contributed.
func ActualVelocity(x geom.Vec2, xDetectedAt float64, reports []Report, minDt float64) (geom.Vec2, bool) {
	if minDt <= 0 {
		minDt = 1e-9
	}
	var sum geom.Vec2
	n := 0
	for i := range reports {
		r := &reports[i] // a range value would copy the 88-byte report
		if !r.Detected || r.State != node.StateCovered {
			continue
		}
		dt := xDetectedAt - r.DetectedAt
		if dt < minDt {
			continue
		}
		sum = sum.Add(x.Sub(r.Pos).Scale(1 / dt))
		n++
	}
	if n == 0 {
		return geom.Vec2{}, false
	}
	return sum.Scale(1 / float64(n)), true
}

// ExpectedVelocity implements the paper's expected-velocity estimator for
// alert/safe nodes: the arithmetic mean of the velocity vectors reported by
// covered or alert neighbours. Directionless reports (HasDirection unset)
// are skipped — their vector carries a speed, not a heading, and averaging
// the fabricated +x direction in would bias the mean.
func ExpectedVelocity(reports []Report) (geom.Vec2, bool) {
	var sum geom.Vec2
	n := 0
	for i := range reports {
		r := &reports[i] // a range value would copy the 88-byte report
		if !r.HasVelocity || !r.HasDirection {
			continue
		}
		if r.State != node.StateCovered && r.State != node.StateAlert {
			continue
		}
		sum = sum.Add(r.Velocity)
		n++
	}
	if n == 0 {
		return geom.Vec2{}, false
	}
	return sum.Scale(1 / float64(n)), true
}

// ArrivalETA returns the estimated time from now until the stimulus reaches
// x, according to a single neighbour report, implementing the paper's
//
//	t_X = |I→X| · cos θ_I / v_I
//
// with θ_I the angle between the neighbour's velocity and vec(I→X). The raw
// formula measures travel time from the neighbour's position; it is anchored
// at the moment the front was (or is predicted to be) at the neighbour:
// the detection instant for covered neighbours, the neighbour's own
// predicted arrival for alert neighbours. cos θ ≤ 0 (front moving away) or
// missing velocity yields +Inf; estimates are clamped at 0 (already due).
//
// A speed-only report (HasDirection unset) has no heading to project on:
// the front is assumed to cover the straight-line distance at the reported
// speed, the most conservative finite estimate consistent with the report.
func ArrivalETA(x geom.Vec2, now float64, r Report) float64 {
	if !r.HasVelocity {
		return math.Inf(1)
	}
	speed := r.Velocity.Norm()
	if speed <= 0 {
		return math.Inf(1)
	}
	ix := x.Sub(r.Pos)
	dist := ix.Norm()
	var travel float64
	if r.HasDirection {
		var cos float64 // a zero distance has no angle: perpendicular
		if dist != 0 {
			cos = geom.Clamp(r.Velocity.Dot(ix)/(speed*dist), -1, 1)
		}
		if dist > 0 && cos <= 0 {
			return math.Inf(1)
		}
		travel = dist * cos / speed
	} else {
		travel = dist / speed
	}

	var ref float64
	switch {
	case r.Detected:
		ref = r.DetectedAt
	case !math.IsInf(r.PredictedArrival, 1) && !math.IsNaN(r.PredictedArrival):
		ref = r.PredictedArrival
	default:
		return math.Inf(1)
	}
	eta := ref - now + travel
	if eta < 0 {
		return 0
	}
	return eta
}

// MinETA aggregates neighbour reports into the node's expected arrival time
// (paper: "the value of expected arrival time is simply the minimum of these
// arrival times"). Reports older than maxAge are ignored; maxAge <= 0
// disables aging.
func MinETA(x geom.Vec2, now float64, reports []Report, maxAge float64) float64 {
	best := math.Inf(1)
	for _, r := range reports {
		if maxAge > 0 && now-r.ReceivedAt > maxAge {
			continue
		}
		if eta := ArrivalETA(x, now, r); eta < best {
			best = eta
		}
	}
	return best
}

// MeanETA is the ablation variant that averages finite per-neighbour
// estimates instead of taking the minimum; the ext-estimator experiment
// compares the two aggregation rules.
func MeanETA(x geom.Vec2, now float64, reports []Report, maxAge float64) float64 {
	var sum float64
	n := 0
	for _, r := range reports {
		if maxAge > 0 && now-r.ReceivedAt > maxAge {
			continue
		}
		if eta := ArrivalETA(x, now, r); !math.IsInf(eta, 1) {
			sum += eta
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n)
}

// SignificantChange reports whether the predicted arrival moved enough to be
// worth rebroadcasting: any transition between known and unknown counts, and
// otherwise the relative change in time-to-arrival must exceed frac.
func SignificantChange(old, new, frac, now float64) bool {
	oldInf := math.IsInf(old, 1)
	newInf := math.IsInf(new, 1)
	if oldInf != newInf {
		return true
	}
	if oldInf && newInf {
		return false
	}
	oldETA := old - now
	newETA := new - now
	if oldETA < 0 {
		oldETA = 0
	}
	if newETA < 0 {
		newETA = 0
	}
	denom := math.Max(oldETA, 1e-9)
	return math.Abs(newETA-oldETA)/denom > frac
}
