package experiment

import (
	"fmt"

	"repro/internal/contour"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/stats"
)

// Options tunes how experiments are executed.
type Options struct {
	// Seeds overrides the replication seeds (default: 8 runs, 3 in Quick
	// mode).
	Seeds []int64
	// Quick shrinks sweeps and replication for smoke tests and benches.
	Quick bool
	// Parallelism caps how many simulation runs execute concurrently.
	// Zero or negative means one worker per CPU (runtime.GOMAXPROCS); 1
	// reproduces the serial path. Results are bit-identical at any value
	// because aggregation is ordered by cell index, not completion order.
	Parallelism int
}

func (o Options) seeds() []int64 {
	if len(o.Seeds) > 0 {
		return o.Seeds
	}
	if o.Quick {
		return DefaultSeeds(3)
	}
	return DefaultSeeds(8)
}

func (o Options) sweep(full, quick []float64) []float64 {
	if o.Quick {
		return quick
	}
	return full
}

// Experiment is one regenerable table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) (Result, error)
}

// All returns the experiment registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Telos hardware characteristics (paper Table 1)", Table1},
		{"fig4", "Detection delay vs maximum sleep interval (paper Fig. 4)", Fig4},
		{"fig5", "Detection delay vs alert-time threshold (paper Fig. 5)", Fig5},
		{"fig6", "Energy consumption vs maximum sleep interval (paper Fig. 6)", Fig6},
		{"fig7", "Energy consumption vs alert-time threshold (paper Fig. 7)", Fig7},
		{"ext-failures", "Extension: node failures (paper §5 future work)", ExtFailures},
		{"ext-lossy", "Extension: imperfect channel (paper §5 future work)", ExtLossy},
		{"ext-lossy-csma", "Extension: imperfect channel under collisions and CSMA", ExtLossyCSMA},
		{"ext-degenerate", "Extension: PAS with tiny alert time degenerates to SAS (§3.4)", ExtDegenerate},
		{"ext-estimator", "Ablation: arrival-time aggregation and velocity propagation", ExtEstimator},
		{"ext-plume", "Extension: protocols on the PDE plume stimulus", ExtPlume},
		{"ext-density", "Extension: deployment density sweep", ExtDensity},
		{"ext-lifetime", "Extension: surveillance lifetime under finite batteries", ExtLifetime},
		{"ext-collisions", "Ablation: destructive collisions vs ideal channel", ExtCollisions},
		{"ext-contour", "Extension: covered-area estimation error (monitoring efficacy)", ExtContour},
		{"ext-terrain", "Extension: protocols on the heterogeneous-terrain (eikonal) front", ExtTerrain},
		{"ext-scale", "Extension: production-scale deployments (100/1k/10k nodes)", ExtScale},
		{"ext-faults", "Extension: fault injection — churn, miscalibration, radio fading", ExtFaults},
		{"ext-predictors", "Extension: arrival-predictor portfolio (LMS/EWMA/AR/Kalman/switching)", ExtPredictors},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// protoPoint is the headline aggregate of one replicated cell.
type protoPoint struct {
	delay, delayCI   float64
	energy, energyCI float64
}

// maxSleepConfig builds the paper's Figs. 4/6 run config for one protocol at
// one maximum sleep interval. The ramp increment scales with the cap so the
// schedule reaches its maximum within the observation window at every sweep
// point (the paper's "increase linearly until they reach the maximum").
func maxSleepConfig(protocol string, maxSleep float64) RunConfig {
	rc := RunConfig{Protocol: protocol}.Defaults()
	rc.PAS.SleepMax = maxSleep
	rc.PAS.SleepIncrement = maxSleep / 5
	rc.SAS.SleepMax = maxSleep
	rc.SAS.SleepIncrement = maxSleep / 5
	return rc
}

// sweepMaxSleep runs NS/PAS/SAS across the Figs. 4/6 x-axis.
func sweepMaxSleep(o Options) (map[string][]Point, map[string][]Point, []float64, error) {
	xs := o.sweep([]float64{5, 10, 15, 20, 25, 30}, []float64{5, 30})
	protos := []string{ProtoNS, ProtoPAS, ProtoSAS}
	cells := make([]RunConfig, 0, len(protos)*len(xs))
	for _, proto := range protos {
		for _, x := range xs {
			cells = append(cells, maxSleepConfig(proto, x))
		}
	}
	pts, err := runPoints(o, cells)
	if err != nil {
		return nil, nil, nil, err
	}
	delay := map[string][]Point{}
	energyPts := map[string][]Point{}
	for pi, proto := range protos {
		for xi, x := range xs {
			pt := pts[pi*len(xs)+xi]
			delay[proto] = append(delay[proto], Point{X: x, Y: pt.delay, CI: pt.delayCI})
			energyPts[proto] = append(energyPts[proto], Point{X: x, Y: pt.energy, CI: pt.energyCI})
		}
	}
	return delay, energyPts, xs, nil
}

// Table1 renders the energy model constants the simulator uses, which are
// the paper's Table 1 verbatim.
func Table1(Options) (Result, error) {
	p := energy.Telos()
	extra := fmt.Sprintf(
		"%-22s %10s\n%-22s %10g\n%-22s %10g\n%-22s %10g\n%-22s %10g\n%-22s %10g\n%-22s %10g\n",
		"characteristic", "value",
		"active power (mW)", p.ActiveMW,
		"sleep power (uW)", p.SleepUW,
		"receive power (mW)", p.ReceiveMW,
		"transmit power (mW)", p.TransmitMW,
		"data rate (kbps)", p.DataRateKbps,
		"total active (mW)", p.TotalActiveMW,
	)
	return Result{
		ID:    "table1",
		Title: "Telos hardware characteristics (paper Table 1)",
		Extra: extra,
		Notes: []string{
			"values are consumed by internal/energy and drive every energy figure",
			"the paper's 'transition power' column is the CC2420 transmit draw",
		},
	}, nil
}

// Fig4 regenerates the paper's Fig. 4: average detection delay vs maximum
// sleep interval for NS, PAS and SAS.
func Fig4(o Options) (Result, error) {
	delay, _, _, err := sweepMaxSleep(o)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:     "fig4",
		Title:  "Detection delay vs maximum sleep interval",
		XLabel: "maxSleep (s)",
		YLabel: "avg delay (s)",
		Curves: []Curve{
			{Name: "NS", Points: delay[ProtoNS]},
			{Name: "PAS", Points: delay[ProtoPAS]},
			{Name: "SAS", Points: delay[ProtoSAS]},
		},
		Notes: []string{
			"paper shape: NS is zero; PAS and SAS grow with the sleep cap; PAS stays below SAS",
		},
	}, nil
}

// Fig6 regenerates the paper's Fig. 6: average energy vs maximum sleep
// interval for NS, PAS and SAS.
func Fig6(o Options) (Result, error) {
	_, energyPts, _, err := sweepMaxSleep(o)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:     "fig6",
		Title:  "Energy consumption vs maximum sleep interval",
		XLabel: "maxSleep (s)",
		YLabel: "avg energy (J)",
		Curves: []Curve{
			{Name: "NS", Points: energyPts[ProtoNS]},
			{Name: "PAS", Points: energyPts[ProtoPAS]},
			{Name: "SAS", Points: energyPts[ProtoSAS]},
		},
		Notes: []string{
			"paper shape: NS consumes the most; PAS slightly above SAS (it also wakes far-away sensors); both fall with the cap",
		},
	}, nil
}

// thresholdConfig builds the Figs. 5/7 PAS config at one alert threshold.
func thresholdConfig(threshold float64) RunConfig {
	rc := RunConfig{Protocol: ProtoPAS}.Defaults()
	rc.PAS.AlertThreshold = threshold
	rc.PAS.SleepMax = 30
	rc.PAS.SleepIncrement = 6
	return rc
}

// sweepThreshold runs PAS across the Figs. 5/7 x-axis.
func sweepThreshold(o Options) ([]Point, []Point, error) {
	xs := o.sweep([]float64{10, 15, 20, 25, 30}, []float64{10, 30})
	cells := make([]RunConfig, len(xs))
	for i, x := range xs {
		cells[i] = thresholdConfig(x)
	}
	pts, err := runPoints(o, cells)
	if err != nil {
		return nil, nil, err
	}
	var delay, energyPts []Point
	for i, x := range xs {
		delay = append(delay, Point{X: x, Y: pts[i].delay, CI: pts[i].delayCI})
		energyPts = append(energyPts, Point{X: x, Y: pts[i].energy, CI: pts[i].energyCI})
	}
	return delay, energyPts, nil
}

// Fig5 regenerates the paper's Fig. 5: PAS detection delay vs alert-time
// threshold.
func Fig5(o Options) (Result, error) {
	delay, _, err := sweepThreshold(o)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:     "fig5",
		Title:  "Detection delay under different alert time thresholds",
		XLabel: "alert time (s)",
		YLabel: "avg delay (s)",
		Curves: []Curve{{Name: "PAS", Points: delay}},
		Notes: []string{
			"paper shape: delay falls as the alert time grows (1.73s → 1.50s for 10s → 30s); the knob NS and SAS lack",
		},
	}, nil
}

// Fig7 regenerates the paper's Fig. 7: PAS energy vs alert-time threshold.
func Fig7(o Options) (Result, error) {
	_, energyPts, err := sweepThreshold(o)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:     "fig7",
		Title:  "Energy consumption under different alert time thresholds",
		XLabel: "alert time (s)",
		YLabel: "avg energy (J)",
		Curves: []Curve{{Name: "PAS", Points: energyPts}},
		Notes: []string{
			"paper shape: energy grows with the alert time (a larger alert area keeps more sensors awake)",
		},
	}, nil
}

// ExtFailures sweeps the node-failure fraction (the paper's §5 future work).
func ExtFailures(o Options) (Result, error) {
	xs := o.sweep([]float64{0, 0.1, 0.2, 0.3}, []float64{0, 0.3})
	protos := []string{ProtoPAS, ProtoSAS}
	cells := make([]RunConfig, 0, len(protos)*len(xs))
	for _, proto := range protos {
		for _, x := range xs {
			rc := maxSleepConfig(proto, 20)
			rc.FailFraction = x
			rc.FailBy = rc.Scenario.Horizon / 2
			cells = append(cells, rc)
		}
	}
	aggs, err := runCells(o, cells)
	if err != nil {
		return Result{}, err
	}
	var curves []Curve
	var missedNote string
	for pi, proto := range protos {
		var pts []Point
		for xi, x := range xs {
			agg := aggs[pi*len(xs)+xi]
			pts = append(pts, Point{X: x, Y: agg.Delay.Mean(), CI: agg.Delay.CI95()})
			if xi == len(xs)-1 {
				missedNote += fmt.Sprintf("%s misses %.1f nodes/run at %.0f%% failures; ",
					proto, agg.Missed.Mean(), 100*x)
			}
		}
		curves = append(curves, Curve{Name: proto, Points: pts})
	}
	return Result{
		ID:     "ext-failures",
		Title:  "Detection delay vs node failure fraction",
		XLabel: "failure fraction",
		YLabel: "avg delay (s)",
		Curves: curves,
		Notes: []string{
			"failed nodes never detect; delay is over surviving detectors",
			missedNote,
		},
	}, nil
}

// ExtLossy sweeps packet loss probability (the paper's §5 future work).
func ExtLossy(o Options) (Result, error) {
	xs := o.sweep([]float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}, []float64{0, 0.5})
	protos := []string{ProtoPAS, ProtoSAS}
	curves, err := sweepCurves(o, protos, xs,
		func(v, xi int) RunConfig {
			rc := maxSleepConfig(protos[v], 20)
			rc.Loss = radio.LossyDisk{Range: rc.Range, LossProb: xs[xi]}
			return rc
		}, delayOf)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:     "ext-lossy",
		Title:  "Detection delay vs packet loss probability",
		XLabel: "loss probability",
		YLabel: "avg delay (s)",
		Curves: curves,
		Notes: []string{
			"losses starve the predictor of neighbour reports; sensing itself is unaffected",
		},
	}, nil
}

// ExtLossyCSMA sweeps packet loss probability with destructive collisions
// and carrier sensing enabled — the harshest channel the simulator models.
// Every mechanism that consumes channel randomness or defers transmissions
// (per-link loss draws, collision windows, CSMA backoff) runs against the
// frozen CSR candidate rows here, which is why this experiment is also
// pinned as a golden trace.
func ExtLossyCSMA(o Options) (Result, error) {
	xs := o.sweep([]float64{0, 0.1, 0.2, 0.3}, []float64{0, 0.3})
	csma := radio.DefaultCSMA()
	protos := []string{ProtoPAS, ProtoSAS}
	curves, err := sweepCurves(o, protos, xs,
		func(v, xi int) RunConfig {
			rc := maxSleepConfig(protos[v], 20)
			rc.Loss = radio.LossyDisk{Range: rc.Range, LossProb: xs[xi]}
			rc.Collisions = true
			rc.CSMA = &csma
			return rc
		}, delayOf)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:     "ext-lossy-csma",
		Title:  "Detection delay vs packet loss under collisions + CSMA",
		XLabel: "loss probability",
		YLabel: "avg delay (s)",
		Curves: curves,
		Notes: []string{
			"random loss compounds with collision corruption; CSMA recovers the burst losses but not the per-link drops",
		},
	}, nil
}

// ExtDegenerate compares PAS with a near-zero alert time against SAS,
// checking the paper's §3.4 degeneracy claim.
func ExtDegenerate(o Options) (Result, error) {
	xs := o.sweep([]float64{10, 20, 30}, []float64{10, 30})
	variants := []struct {
		name string
		rc   func(maxSleep float64) RunConfig
	}{
		{"PAS (T→0)", func(ms float64) RunConfig {
			rc := maxSleepConfig(ProtoPAS, ms)
			rc.PAS.AlertThreshold = 0.5
			return rc
		}},
		{"SAS", func(ms float64) RunConfig { return maxSleepConfig(ProtoSAS, ms) }},
		{"PAS (default)", func(ms float64) RunConfig { return maxSleepConfig(ProtoPAS, ms) }},
	}
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.name
	}
	curves, err := sweepCurves(o, names, xs,
		func(v, xi int) RunConfig { return variants[v].rc(xs[xi]) }, delayOf)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:     "ext-degenerate",
		Title:  "PAS with a tiny alert time behaves like SAS (§3.4)",
		XLabel: "maxSleep (s)",
		YLabel: "avg delay (s)",
		Curves: curves,
		Notes: []string{
			"shrinking the alert time collapses the alert area, removing PAS's advantage over SAS",
		},
	}, nil
}

// ExtEstimator ablates the estimator: min vs mean aggregation and
// with/without expected-velocity propagation.
func ExtEstimator(o Options) (Result, error) {
	xs := o.sweep([]float64{10, 20, 30}, []float64{10, 30})
	variants := []struct {
		name   string
		mutate func(*RunConfig)
	}{
		{"min (paper)", func(*RunConfig) {}},
		{"mean", func(rc *RunConfig) { rc.PAS.UseMeanETA = true }},
		{"actual-only", func(rc *RunConfig) { rc.PAS.DisableExpectedVelocity = true }},
	}
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.name
	}
	curves, err := sweepCurves(o, names, xs,
		func(v, xi int) RunConfig {
			rc := maxSleepConfig(ProtoPAS, xs[xi])
			variants[v].mutate(&rc)
			return rc
		}, delayOf)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:     "ext-estimator",
		Title:  "Estimator ablation: arrival aggregation and velocity propagation",
		XLabel: "maxSleep (s)",
		YLabel: "avg delay (s)",
		Curves: curves,
		Notes: []string{
			"the paper's min aggregation is the conservative choice: a single credible threat suffices to alert",
		},
	}, nil
}

// ExtPlume runs the protocols against the PDE plume stimulus.
func ExtPlume(o Options) (Result, error) {
	sc := registryScenario("plume")
	xs := o.sweep([]float64{5, 15, 30}, []float64{5, 30})
	protos := []string{ProtoNS, ProtoPAS, ProtoSAS}
	curves, err := sweepCurves(o, protos, xs,
		func(v, xi int) RunConfig {
			rc := maxSleepConfig(protos[v], xs[xi])
			rc.Scenario = sc
			return rc
		}, delayOf)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:     "ext-plume",
		Title:  "Detection delay on the advection–diffusion plume",
		XLabel: "maxSleep (s)",
		YLabel: "avg delay (s)",
		Curves: curves,
		Notes: []string{
			"the plume front is irregular and numerically derived; the analytic-front ranking should persist",
		},
	}, nil
}

// ExtLifetime measures surveillance lifetime: every node gets a small
// battery and monitors a field in which nothing happens — the regime whose
// energy draw, per the paper's introduction, "dominat[es] the working period
// of WSN surveillance systems". The curve is the time of the first battery
// death per protocol.
func ExtLifetime(o Options) (Result, error) {
	const batteryJ = 0.8 // scaled so every protocol dies within the horizon
	sc := registryScenario("quiet")
	xs := o.sweep([]float64{5, 10, 20, 30}, []float64{5, 30})
	protos := []string{ProtoNS, ProtoPAS, ProtoSAS}
	curves, err := sweepCurves(o, protos, xs,
		func(v, xi int) RunConfig {
			rc := maxSleepConfig(protos[v], xs[xi])
			rc.Scenario = sc
			rc.BatteryJ = batteryJ
			return rc
		},
		func(a metrics.Aggregate) (float64, float64) {
			return a.FirstDeath.Mean(), a.FirstDeath.CI95()
		})
	if err != nil {
		return Result{}, err
	}
	var notes []string
	for _, c := range curves {
		if c.Name == ProtoNS {
			continue
		}
		last := c.Points[len(c.Points)-1]
		notes = append(notes, fmt.Sprintf(
			"%s extends first-death lifetime %.1f× over always-on at maxSleep %.0f",
			c.Name, last.Y/(batteryJ/0.041), last.X))
	}
	notes = append(notes,
		"quiet field: no stimulus within the horizon; the draw is pure surveillance overhead",
		"lifetimes are right-censored at the horizon when no node dies in a run")
	return Result{
		ID:     "ext-lifetime",
		Title:  "Surveillance lifetime: first battery death vs maximum sleep interval",
		XLabel: "maxSleep (s)",
		YLabel: "first death (s)",
		Curves: curves,
		Notes:  notes,
	}, nil
}

// ExtCollisions compares the paper's collision-free channel against
// destructive collisions (overlapping transmissions at a receiver destroy
// each other).
func ExtCollisions(o Options) (Result, error) {
	xs := o.sweep([]float64{10, 20, 30}, []float64{10, 30})
	csma := radio.DefaultCSMA()
	variants := []struct {
		name       string
		collisions bool
		csma       *radio.CSMAConfig
	}{
		{"pas (no collisions)", false, nil},
		{"pas (collisions)", true, nil},
		{"pas (collisions+CSMA)", true, &csma},
	}
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.name
	}
	curves, err := sweepCurves(o, names, xs,
		func(v, xi int) RunConfig {
			rc := maxSleepConfig(ProtoPAS, xs[xi])
			rc.Collisions = variants[v].collisions
			rc.CSMA = variants[v].csma
			return rc
		}, delayOf)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:     "ext-collisions",
		Title:  "Destructive collisions vs the paper's ideal channel",
		XLabel: "maxSleep (s)",
		YLabel: "avg delay (s)",
		Curves: curves,
		Notes: []string{
			"REQUEST bursts trigger near-simultaneous RESPONSEs; the per-node response stagger is what keeps collision losses modest",
			"carrier sensing with random backoff (CSMA) serializes the bursts and recovers most of the loss",
		},
	}, nil
}

// ExtContour measures monitoring efficacy — the sink's covered-area
// estimation error over time — under each protocol. The paper's abstract
// claims PAS "largely reduces the energy cost without decreasing system
// performance"; this experiment quantifies "system performance" as the
// quality of the diffused-area estimate the network exists to produce (§1).
func ExtContour(o Options) (Result, error) {
	sc := registryScenario("paper")
	// Sample the estimate while the front is crossing (full coverage ≈ 99 s).
	times := o.sweep([]float64{40, 55, 70, 85}, []float64{40, 85})
	const mcSamples = 4000
	protos := []string{ProtoNS, ProtoPAS, ProtoSAS}
	seeds := o.seeds()
	// One job per (protocol, seed): run the network with a contour estimator
	// attached, then Monte-Carlo-score the hull at every sample time.
	errFracs, err := runner.Map(o.parallelism(), len(protos)*len(seeds),
		func(i int) ([]float64, error) {
			rc := maxSleepConfig(protos[i/len(seeds)], 20)
			rc.Scenario = sc
			rc.Seed = seeds[i%len(seeds)]
			nw, rcd, err := Build(rc)
			if err != nil {
				return nil, err
			}
			var est contour.Estimator
			est.Attach(nw.Nodes)
			nw.Run(rcd.Scenario.Horizon)
			st := rng.NewSource(rc.Seed).Stream("contour-mc")
			out := make([]float64, len(times))
			for ti, rep := range contour.Timeline(&est, sc.Stimulus, sc.Field, times, mcSamples, st) {
				out[ti] = rep.ErrFrac
			}
			return out, nil
		})
	if err != nil {
		return Result{}, err
	}
	var curves []Curve
	for pi, proto := range protos {
		accs := make([]stats.Accumulator, len(times))
		for si := range seeds {
			for ti := range times {
				accs[ti].Add(errFracs[pi*len(seeds)+si][ti])
			}
		}
		pts := make([]Point, len(times))
		for ti, tt := range times {
			pts[ti] = Point{X: tt, Y: accs[ti].Mean(), CI: accs[ti].CI95()}
		}
		curves = append(curves, Curve{Name: proto, Points: pts})
	}
	return Result{
		ID:     "ext-contour",
		Title:  "Covered-area estimation error over time (monitoring efficacy)",
		XLabel: "time (s)",
		YLabel: "area error fraction",
		Curves: curves,
		Notes: []string{
			"error = symmetric-difference area between the detection hull and the true covered region, over the true area",
			"NS is the deployment-limited optimum; PAS/SAS add only their detection delays",
		},
	}, nil
}

// ExtTerrain runs the protocols against the heterogeneous-terrain front
// (eikonal ground truth): the front slows in a band and bends around it,
// stressing the constant-velocity extrapolation of both estimators.
func ExtTerrain(o Options) (Result, error) {
	sc := registryScenario("terrain")
	xs := o.sweep([]float64{5, 15, 30}, []float64{5, 30})
	protos := []string{ProtoNS, ProtoPAS, ProtoSAS}
	curves, err := sweepCurves(o, protos, xs,
		func(v, xi int) RunConfig {
			rc := maxSleepConfig(protos[v], xs[xi])
			rc.Scenario = sc
			return rc
		}, delayOf)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:     "ext-terrain",
		Title:  "Detection delay on the heterogeneous-terrain (eikonal) front",
		XLabel: "maxSleep (s)",
		YLabel: "avg delay (s)",
		Curves: curves,
		Notes: []string{
			"the slow band and detours produce locally varying front speeds; velocity estimates lag behind reality at the band edges",
		},
	}, nil
}

// ExtDensity sweeps the deployment size at the paper's field and range.
func ExtDensity(o Options) (Result, error) {
	xs := o.sweep([]float64{25, 30, 45, 60}, []float64{30, 60})
	cells := make([]RunConfig, len(xs))
	for i, x := range xs {
		rc := maxSleepConfig(ProtoPAS, 20)
		rc.Nodes = int(x)
		cells[i] = rc
	}
	aggs, err := runCells(o, cells)
	if err != nil {
		return Result{}, err
	}
	var delayPts, energyPts []Point
	for i, x := range xs {
		dy, dci := delayOf(aggs[i])
		ey, eci := energyOf(aggs[i])
		delayPts = append(delayPts, Point{X: x, Y: dy, CI: dci})
		energyPts = append(energyPts, Point{X: x, Y: ey, CI: eci})
	}
	return Result{
		ID:     "ext-density",
		Title:  "PAS vs deployment density",
		XLabel: "nodes",
		YLabel: "avg delay (s)",
		Curves: []Curve{
			{Name: "PAS delay", Points: delayPts},
			{Name: "PAS energy (J)", Points: energyPts},
		},
		Notes: []string{
			"denser fields give the estimator more covered neighbours per probe",
		},
	}, nil
}

// Render is a convenience that runs an experiment by ID and renders it.
func Render(id string, o Options) (string, error) {
	exp, ok := Lookup(id)
	if !ok {
		return "", fmt.Errorf("experiment: unknown id %q", id)
	}
	res, err := exp.Run(o)
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}
