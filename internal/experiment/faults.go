package experiment

import (
	"fmt"

	"repro/internal/fault"
)

// extFaultsLiveness is the sink-side liveness configuration every PAS/SAS
// cell of ext-faults runs with. The 15 s suspicion window (3×5 s) sits below
// the 20 s sleep cap on purpose: the experiment measures the false-dead rate
// of an aggressive detector against legitimately sleeping peers as well as
// against churned ones.
var extFaultsLiveness = fault.LivenessConfig{
	MissK:       3,
	Interval:    5,
	BackoffInit: 2,
	BackoffMax:  16,
	MaxProbes:   3,
}

// extFaultsSpec builds the fault mix at severity x: a fraction x of the
// nodes churns (dark for ~20 s, then rejoins), a fraction x miscalibrates
// (3 s drift with occasional stuck-at and burst noise), and the channel
// degrades by an extra x/2 drop probability over the middle half of the
// horizon. x = 0 is the fault-free control: every model compiles away and
// the run takes the exact legacy code path.
func extFaultsSpec(x, horizon float64) fault.FailureSpec {
	return fault.FailureSpec{
		Churn:  &fault.ChurnSpec{Fraction: x, MeanDown: 20, MinDown: 5},
		Sensor: &fault.SensorSpec{Fraction: x, Drift: 3, Stuck: 0.2, BurstRate: 2, BurstLen: 2},
		Radio:  &fault.DegradationSpec{Start: horizon / 4, End: 3 * horizon / 4, Loss: x / 2},
	}
}

// ExtFaults sweeps a combined fault severity — crash-recovery churn, sensor
// miscalibration and a radio degradation window scale together — and reports
// how gracefully each protocol degrades: detection delay, time-averaged live
// coverage, and the liveness tracker's false-dead rate and re-probe cost.
func ExtFaults(o Options) (Result, error) {
	xs := o.sweep([]float64{0, 0.1, 0.2, 0.3}, []float64{0, 0.3})
	protos := []string{ProtoNS, ProtoPAS, ProtoSAS}
	cells := make([]RunConfig, 0, len(protos)*len(xs))
	for _, proto := range protos {
		for _, x := range xs {
			rc := maxSleepConfig(proto, 20)
			rc.Faults = fault.Compile(extFaultsSpec(x, rc.Scenario.Horizon), rc.Scenario.Horizon)
			rc.PAS.Liveness = extFaultsLiveness
			rc.SAS.Liveness = extFaultsLiveness
			cells = append(cells, rc)
		}
	}
	aggs, err := runCells(o, cells)
	if err != nil {
		return Result{}, err
	}
	var delayCurves, liveCurves []Curve
	var notes []string
	for pi, proto := range protos {
		delayPts := make([]Point, len(xs))
		livePts := make([]Point, len(xs))
		for xi, x := range xs {
			agg := aggs[pi*len(xs)+xi]
			delayPts[xi] = Point{X: x, Y: agg.Delay.Mean(), CI: agg.Delay.CI95()}
			livePts[xi] = Point{X: x, Y: agg.Live.Mean(), CI: agg.Live.CI95()}
			if xi == len(xs)-1 && proto != ProtoNS {
				notes = append(notes, fmt.Sprintf(
					"%s at severity %.1f: %.1f probes/run (%.4g J), %.1f declared dead (%.1f false), stale age %.1f s",
					proto, x, agg.Probes.Mean(), agg.ProbeJ.Mean(),
					agg.Declared.Mean(), agg.FalseDead.Mean(), agg.StaleAge.Mean()))
			}
		}
		delayCurves = append(delayCurves, Curve{Name: proto, Points: delayPts})
		liveCurves = append(liveCurves, Curve{Name: proto + " live fraction", Points: livePts})
	}
	notes = append(notes,
		"severity x: fraction x of nodes churns (~20 s dark) and miscalibrates (3 s drift, stuck/burst); channel loses an extra x/2 mid-run",
		"x = 0 is the fault-free control; PAS/SAS still run the liveness tracker, so probe counts there price the detector itself",
		"delay is over nodes that detected; burst-noise false positives fire before true arrival, so faulted delays can go negative",
		"probe energy is the marginal transmit draw, which the Telos profile prices at zero (receive draw exceeds transmit draw)",
		"live fraction is the time-averaged share of nodes up; it is protocol-independent because churn draws only from fault streams")
	return Result{
		ID:     "ext-faults",
		Title:  "Graceful degradation under churn, miscalibration and radio fading",
		XLabel: "fault severity",
		YLabel: "avg delay (s)",
		Curves: append(delayCurves, liveCurves...),
		Notes:  notes,
	}, nil
}
