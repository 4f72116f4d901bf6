package experiment

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/radio"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// FromScenario compiles a declarative scenario spec into a run config. It
// compiles the spec's normalized form (scenario.Scenario.Normalized), the
// one Canonical hashes, so a spec and its canonical form build the same run
// and every default comes from the function that normalizes it: the
// stimulus is built (stochastic stimuli draw from the seed), the deployment
// spec and channel model are installed, and the spec's protocol overrides are
// applied on top of the defaults. The caller may still override Protocol and
// tunables afterwards — experiments do, to sweep them.
//
// The deployment section is installed as written: Build normalizes it
// against the run's own node count (DeploymentSpec.Normalized), which is the
// spec's unless the caller overrides Nodes, so a density default such as the
// poisson spacing follows an override instead of saturating.
func FromScenario(sp scenario.Scenario, seed int64) (RunConfig, error) {
	if err := sp.Validate(); err != nil {
		return RunConfig{}, err
	}
	deploy := sp.Deployment
	sp = sp.Normalized()
	ds, err := sp.BuildStimulus(seed)
	if err != nil {
		return RunConfig{}, err
	}
	loss, err := sp.Radio.Model()
	if err != nil {
		return RunConfig{}, err
	}
	rc := RunConfig{
		Scenario:   ds,
		Nodes:      sp.Nodes,
		Range:      sp.Radio.Range,
		Deploy:     deploy,
		Protocol:   sp.Protocol.Name,
		Seed:       seed,
		Loss:       loss,
		Collisions: sp.Radio.Collisions,
	}
	if f := sp.Failures; f.Extended() {
		// Extended fault models compile into a plan; the FailFraction fields
		// stay zero so Build's uniform kill is skipped and the plan's crash
		// model (byte-compatible for pure uniform kills) takes over.
		rc.Faults = fault.Compile(f, sp.Horizon)
	} else {
		rc.FailFraction, rc.FailBy = f.Fraction, f.By
	}
	if sp.Radio.CSMA {
		csma := radio.DefaultCSMA()
		rc.CSMA = &csma
	}
	rc = rc.Defaults()
	p := sp.Protocol
	if p.MaxSleep > 0 {
		rc.PAS.SleepMax, rc.SAS.SleepMax = p.MaxSleep, p.MaxSleep
	}
	if p.SleepIncrement > 0 {
		rc.PAS.SleepIncrement, rc.SAS.SleepIncrement = p.SleepIncrement, p.SleepIncrement
	}
	if p.AlertThreshold > 0 {
		rc.PAS.AlertThreshold, rc.SAS.AlertThreshold = p.AlertThreshold, p.AlertThreshold
	}
	if p.Liveness != nil {
		rc.PAS.Liveness, rc.SAS.Liveness = *p.Liveness, *p.Liveness
	}
	if p.Predictor != nil {
		rc.PAS.Predictor = *p.Predictor
	}
	return rc, nil
}

// scaleSleep applies the standard extension-experiment sleep schedule (cap
// 20 s) for the given protocol slot.
func scaleSleep(rc *RunConfig) {
	rc.PAS.SleepMax, rc.PAS.SleepIncrement = 20, 4
	rc.SAS.SleepMax, rc.SAS.SleepIncrement = 20, 4
}

// ExtScale sweeps the deployment size across three orders of magnitude
// (100 / 1 000 / 10 000 nodes) on the scale-* grid scenarios and reports
// detection delay, per-node energy and wall-clock per protocol. The 10 000-
// node points are the regime the O(n²) deployment/measurement hot spots used
// to make infeasible; a full run is expected to complete in seconds.
func ExtScale(o Options) (Result, error) {
	// Scale runs are heavy; default to light replication instead of the
	// harness-wide 8 seeds.
	if len(o.Seeds) == 0 {
		if o.Quick {
			o.Seeds = DefaultSeeds(2)
		} else {
			o.Seeds = DefaultSeeds(3)
		}
	}
	sizes := []int{100, 1000, 10000}
	if o.Quick {
		sizes = []int{100, 1000}
	}
	protos := []string{ProtoNS, ProtoPAS, ProtoSAS}
	seeds := o.seeds()

	type runOut struct {
		rep  metrics.RunReport
		secs float64
	}
	perCell := len(seeds)
	outs, err := runner.Map(o.parallelism(), len(protos)*len(sizes)*perCell,
		func(i int) (runOut, error) {
			proto := protos[i/(len(sizes)*perCell)]
			size := sizes[(i/perCell)%len(sizes)]
			rc, err := FromScenario(scenario.Scale(size), seeds[i%perCell])
			if err != nil {
				return runOut{}, err
			}
			rc.Protocol = proto
			scaleSleep(&rc)
			start := time.Now()
			rep, err := RunOnce(rc)
			if err != nil {
				return runOut{}, err
			}
			return runOut{rep: rep, secs: time.Since(start).Seconds()}, nil
		})
	if err != nil {
		return Result{}, err
	}

	var delayCurves, energyCurves []Curve
	var notes []string
	for pi, proto := range protos {
		delayPts := make([]Point, len(sizes))
		energyPts := make([]Point, len(sizes))
		for si, size := range sizes {
			var agg metrics.Aggregate
			var secs float64
			for ki := range seeds {
				out := outs[(pi*len(sizes)+si)*perCell+ki]
				agg.Add(out.rep)
				secs += out.secs
			}
			delayPts[si] = Point{X: float64(size), Y: agg.Delay.Mean(), CI: agg.Delay.CI95()}
			energyPts[si] = Point{X: float64(size), Y: agg.Energy.Mean(), CI: agg.Energy.CI95()}
			if si == len(sizes)-1 {
				notes = append(notes, fmt.Sprintf("%s: %d nodes in %.2f s/run wall-clock (avg over %d seeds)",
					proto, size, secs/float64(len(seeds)), len(seeds)))
			}
		}
		delayCurves = append(delayCurves, Curve{Name: proto, Points: delayPts})
		energyCurves = append(energyCurves, Curve{Name: proto + " energy (J)", Points: energyPts})
	}
	notes = append(notes,
		"scale-* scenarios: jittered-grid deployments at the paper's density; the front speed scales with the field so every size shares the 140 s horizon",
		"wall-clock notes vary run to run and between machines; delay/energy values are deterministic")
	return Result{
		ID:     "ext-scale",
		Title:  "Production scale: delay and energy vs deployment size",
		XLabel: "nodes",
		YLabel: "avg delay (s)",
		Curves: append(delayCurves, energyCurves...),
		Notes:  notes,
	}, nil
}

// ScenarioSweep builds an on-the-fly experiment that runs the standard
// maximum-sleep sweep (NS/PAS/SAS, delay and energy) over a named registry
// scenario — the generic workload runner behind `pasbench -scenario`.
// Stochastic stimuli (and the deployment of every replication) still vary by
// seed; only the stimulus of seed-drawn kinds is pinned to the first
// replication seed so expensive stimuli (PDE plume, fast marching) build once
// per sweep, exactly like the dedicated extension experiments.
func ScenarioSweep(name string) (Experiment, error) {
	return ScenarioSweepPredictor(name, "")
}

// ScenarioSweepPredictor is ScenarioSweep with the PAS arrival predictor
// pinned to the named kind (see internal/predict; "" keeps the scenario's own
// predictor section, or the paper default) — the workload runner behind
// `pasbench -scenario -predictor`.
func ScenarioSweepPredictor(name, predictor string) (Experiment, error) {
	sp, ok := scenario.Lookup(name)
	if !ok {
		return Experiment{}, fmt.Errorf("experiment: unknown scenario %q (one of %v)", name, scenario.Names())
	}
	if predictor != "" {
		if _, ok := predict.Describe(predictor); !ok {
			return Experiment{}, fmt.Errorf("experiment: unknown predictor %q (one of %v)", predictor, predict.Kinds())
		}
	}
	id := "scenario-" + name
	title := "Scenario sweep: " + name
	if predictor != "" {
		id += "-" + predictor
		title += " (predictor " + predictor + ")"
	}
	if sp.Description != "" {
		title += " — " + sp.Description
	}
	return Experiment{
		ID:    id,
		Title: title,
		Run: func(o Options) (Result, error) {
			seeds := o.seeds()
			base, err := FromScenario(sp, seeds[0])
			if err != nil {
				return Result{}, err
			}
			if predictor != "" {
				base.PAS.Predictor = predict.Spec{Kind: predictor}
			}
			xs := o.sweep([]float64{5, 15, 30}, []float64{5, 30})
			protos := []string{ProtoNS, ProtoPAS, ProtoSAS}
			cells := make([]RunConfig, 0, len(protos)*len(xs))
			for _, proto := range protos {
				for _, x := range xs {
					rc := base
					rc.Protocol = proto
					rc.PAS.SleepMax, rc.PAS.SleepIncrement = x, x/5
					rc.SAS.SleepMax, rc.SAS.SleepIncrement = x, x/5
					cells = append(cells, rc)
				}
			}
			aggs, err := runCells(o, cells)
			if err != nil {
				return Result{}, err
			}
			var curves []Curve
			for pi, proto := range protos {
				delayPts := make([]Point, len(xs))
				energyPts := make([]Point, len(xs))
				for xi, x := range xs {
					agg := aggs[pi*len(xs)+xi]
					delayPts[xi] = Point{X: x, Y: agg.Delay.Mean(), CI: agg.Delay.CI95()}
					energyPts[xi] = Point{X: x, Y: agg.Energy.Mean(), CI: agg.Energy.CI95()}
				}
				curves = append(curves,
					Curve{Name: proto, Points: delayPts},
					Curve{Name: proto + " energy (J)", Points: energyPts})
			}
			return Result{
				ID:     id,
				Title:  title,
				XLabel: "maxSleep (s)",
				YLabel: "avg delay (s)",
				Curves: curves,
				Notes: []string{
					"generic registry sweep: curves without a unit suffix are delays in seconds",
				},
			}, nil
		},
	}, nil
}
