// Package metrics collects the paper's two evaluation metrics — average
// detection delay and average per-node energy consumption (§4.1) — plus the
// supporting observables (state residency, message counts, duty cycle) the
// extension experiments report.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/predict"
	"repro/internal/stats"
)

// livenessReporter is implemented by agents that carry a sink-side liveness
// tracker (PAS/SAS); Collect type-asserts it to gather graceful-degradation
// metrics without the node package knowing about protocols.
type livenessReporter interface {
	LivenessStats() fault.LivenessStats
}

// predictionReporter is implemented by agents that run an arrival predictor
// (PAS); Collect type-asserts it to gather prediction-accuracy metrics the
// same way livenessReporter decouples liveness.
type predictionReporter interface {
	PredictionStats() predict.Stats
}

// NodeReport is the per-node outcome of one simulation run.
type NodeReport struct {
	ID            int
	Arrival       float64 // ground-truth arrival (+Inf if never)
	DetectedAt    float64
	Detected      bool
	Delay         float64 // DetectedAt − Arrival, valid when Detected
	EnergyJ       float64
	DutyCycle     float64
	TxCount       int
	RxCount       int
	SafeSec       float64
	AlertSec      float64
	CoveredSec    float64
	Failed        bool
	BatteryDead   bool    // failure caused by battery exhaustion
	DiedAt        float64 // battery-death instant, valid when BatteryDead
	MissedForever bool    // arrival within horizon but never detected
}

// RunReport aggregates one simulation run.
type RunReport struct {
	Nodes   []NodeReport
	Horizon float64

	// AvgDelay is the paper's average detection delay: the mean elapsed
	// time between true arrival and detection over nodes that detected.
	AvgDelay float64
	// MaxDelay is the worst detection delay.
	MaxDelay float64
	// P95Delay is the 95th-percentile delay.
	P95Delay float64
	// AvgEnergyJ is the paper's average energy consumption per sensor.
	AvgEnergyJ float64
	// Detected and Reached count nodes that detected vs nodes the stimulus
	// truly reached within the horizon.
	Detected int
	Reached  int
	// Missed counts reached-but-undetected nodes (sensing failures).
	Missed int
	// Messages is the total number of broadcasts across the network.
	Messages int
	// AvgDuty is the mean awake fraction.
	AvgDuty float64
	// BatteryDeaths counts nodes that exhausted their energy budget;
	// FirstDeath is the earliest such instant (+Inf when none died).
	BatteryDeaths int
	FirstDeath    float64

	// Graceful-degradation measures (fault-injection runs; LiveFraction is
	// 1 and the rest zero on the fault-free path).
	//
	// LiveFraction is the time-averaged fraction of nodes up over the
	// horizon.
	LiveFraction float64
	// Probes counts liveness re-probe broadcasts across all sinks and
	// ProbeEnergyJ the transmit energy they cost.
	Probes       int
	ProbeEnergyJ float64
	// FalseDead counts death declarations for nodes that were actually up
	// at declaration time (churn rejoined, or merely silent).
	FalseDead int
	// DeclaredDead counts all death declarations; StaleAge is the mean
	// At−LastHeard staleness over them (0 when none).
	DeclaredDead int
	StaleAge     float64

	// Prediction-accuracy measures (PAS runs; zero otherwise).
	//
	// PredRMSE is the root-mean-square arrival-prediction error in seconds
	// over nodes that both predicted and were reached (0 when none).
	PredRMSE float64
	// PredMaxStale is the longest a node sat on a suppressed (unannounced)
	// prediction change, in seconds.
	PredMaxStale float64
	// Suppressed counts dual-prediction report suppressions across the
	// network — RESPONSE broadcasts the model deemed unnecessary.
	Suppressed int
}

// Collect builds a RunReport from a finished network. Horizon must match the
// Run horizon so residency fractions are meaningful.
func Collect(nodes []*node.Node, horizon float64) RunReport {
	rep := RunReport{Horizon: horizon, FirstDeath: math.Inf(1), LiveFraction: 1, Nodes: make([]NodeReport, 0, len(nodes))}
	delays := make([]float64, 0, len(nodes))
	var energySum, dutySum float64
	var downSum, staleSum float64
	var errSqSum float64
	var errN int
	var byID map[int]*node.Node // lazy: only fault runs with declarations pay for it
	for _, n := range nodes {
		res := n.StateResidency()
		b := n.Meter().Breakdown()
		nr := NodeReport{
			ID:         int(n.ID()),
			Arrival:    n.TrueArrival(),
			EnergyJ:    n.Meter().TotalJ(),
			DutyCycle:  b.DutyCycle(),
			TxCount:    n.TxCount(),
			RxCount:    n.RxCount(),
			SafeSec:    res[node.StateSafe],
			AlertSec:   res[node.StateAlert],
			CoveredSec: res[node.StateCovered],
			Failed:     n.Failed(),
		}
		if at, dead := n.BatteryDead(); dead {
			nr.BatteryDead = true
			nr.DiedAt = at
			rep.BatteryDeaths++
			if at < rep.FirstDeath {
				rep.FirstDeath = at
			}
		}
		if at, ok := n.Detected(); ok {
			nr.Detected = true
			nr.DetectedAt = at
			nr.Delay = at - nr.Arrival
			delays = append(delays, nr.Delay)
			rep.Detected++
		}
		if nr.Arrival <= horizon {
			rep.Reached++
			if !nr.Detected {
				nr.MissedForever = true
				rep.Missed++
			}
		}
		rep.Messages += nr.TxCount
		energySum += nr.EnergyJ
		dutySum += nr.DutyCycle
		downSum += n.DownDuring(horizon)
		if lr, ok := n.Agent().(livenessReporter); ok {
			ls := lr.LivenessStats()
			rep.Probes += ls.Probes
			rep.ProbeEnergyJ += ls.ProbeJ
			if len(ls.Declared) > 0 && byID == nil {
				byID = make(map[int]*node.Node, len(nodes))
				for _, m := range nodes {
					byID[int(m.ID())] = m
				}
			}
			for _, d := range ls.Declared {
				rep.DeclaredDead++
				staleSum += d.At - d.LastHeard
				if peer, ok := byID[int(d.ID)]; ok && !peer.WasDownAt(d.At) {
					rep.FalseDead++
				}
			}
		}
		if pr, ok := n.Agent().(predictionReporter); ok {
			ps := pr.PredictionStats()
			errSqSum += ps.ErrSq
			errN += ps.ErrN
			rep.Suppressed += ps.Suppressed
			if ps.MaxStale > rep.PredMaxStale {
				rep.PredMaxStale = ps.MaxStale
			}
		}
		rep.Nodes = append(rep.Nodes, nr)
	}
	if len(nodes) > 0 && horizon > 0 {
		rep.LiveFraction = 1 - downSum/(horizon*float64(len(nodes)))
	}
	if rep.DeclaredDead > 0 {
		rep.StaleAge = staleSum / float64(rep.DeclaredDead)
	}
	if errN > 0 {
		rep.PredRMSE = math.Sqrt(errSqSum / float64(errN))
	}
	if len(delays) > 0 {
		rep.AvgDelay = stats.Mean(delays)
		rep.MaxDelay = maxOf(delays)
		rep.P95Delay = stats.Percentile(delays, 95)
	}
	if len(nodes) > 0 {
		rep.AvgEnergyJ = energySum / float64(len(nodes))
		rep.AvgDuty = dutySum / float64(len(nodes))
	}
	slices.SortFunc(rep.Nodes, func(a, b NodeReport) int { return cmp.Compare(a.ID, b.ID) })
	return rep
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// String implements fmt.Stringer with a one-line run summary.
func (r RunReport) String() string {
	return fmt.Sprintf("delay %.3fs (p95 %.3f, max %.3f) energy %.4g J/node duty %.1f%% detected %d/%d msgs %d",
		r.AvgDelay, r.P95Delay, r.MaxDelay, r.AvgEnergyJ, 100*r.AvgDuty, r.Detected, r.Reached, r.Messages)
}

// Table renders the per-node breakdown as a fixed-width text table.
func (r RunReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %9s %9s %8s %9s %6s %5s %5s %7s %7s %7s\n",
		"node", "arrival", "detected", "delay", "energy(J)", "duty%", "tx", "rx", "safe", "alert", "covered")
	for _, n := range r.Nodes {
		det, delay := "-", "-"
		if n.Detected {
			det = fmt.Sprintf("%.2f", n.DetectedAt)
			delay = fmt.Sprintf("%.3f", n.Delay)
		}
		arr := "never"
		if !math.IsInf(n.Arrival, 1) {
			arr = fmt.Sprintf("%.2f", n.Arrival)
		}
		fmt.Fprintf(&b, "%4d %9s %9s %8s %9.4f %6.1f %5d %5d %7.1f %7.1f %7.1f\n",
			n.ID, arr, det, delay, n.EnergyJ, 100*n.DutyCycle, n.TxCount, n.RxCount,
			n.SafeSec, n.AlertSec, n.CoveredSec)
	}
	return b.String()
}

// Aggregate accumulates the headline metrics across replicated runs.
type Aggregate struct {
	Delay  stats.Accumulator
	Energy stats.Accumulator
	Duty   stats.Accumulator
	Missed stats.Accumulator
	Msgs   stats.Accumulator
	MaxDel stats.Accumulator
	// Deaths counts battery exhaustions per run; FirstDeath accumulates the
	// first-death instant, right-censored at the run horizon when no node
	// died (lifetime is then at least the horizon).
	Deaths     stats.Accumulator
	FirstDeath stats.Accumulator
	// Graceful-degradation measures (see RunReport).
	Live      stats.Accumulator
	Probes    stats.Accumulator
	Declared  stats.Accumulator
	FalseDead stats.Accumulator
	StaleAge  stats.Accumulator
	ProbeJ    stats.Accumulator
	// Prediction-accuracy measures (see RunReport).
	PredRMSE   stats.Accumulator
	PredStale  stats.Accumulator
	Suppressed stats.Accumulator
}

// Add folds in one run.
func (a *Aggregate) Add(r RunReport) {
	a.Delay.Add(r.AvgDelay)
	a.Energy.Add(r.AvgEnergyJ)
	a.Duty.Add(r.AvgDuty)
	a.Missed.Add(float64(r.Missed))
	a.Msgs.Add(float64(r.Messages))
	a.MaxDel.Add(r.MaxDelay)
	a.Deaths.Add(float64(r.BatteryDeaths))
	if math.IsInf(r.FirstDeath, 1) {
		a.FirstDeath.Add(r.Horizon) // right-censored: everyone survived
	} else {
		a.FirstDeath.Add(r.FirstDeath)
	}
	a.Live.Add(r.LiveFraction)
	a.Probes.Add(float64(r.Probes))
	a.Declared.Add(float64(r.DeclaredDead))
	a.FalseDead.Add(float64(r.FalseDead))
	a.StaleAge.Add(r.StaleAge)
	a.ProbeJ.Add(r.ProbeEnergyJ)
	a.PredRMSE.Add(r.PredRMSE)
	a.PredStale.Add(r.PredMaxStale)
	a.Suppressed.Add(float64(r.Suppressed))
}

// N returns the number of runs folded in.
func (a *Aggregate) N() int { return a.Delay.N() }

// String implements fmt.Stringer.
func (a *Aggregate) String() string {
	return fmt.Sprintf("delay %s s | energy %s J | duty %.1f%% | runs %d",
		a.Delay.String(), a.Energy.String(), 100*a.Duty.Mean(), a.N())
}
