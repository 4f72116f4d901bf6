package experiment

import (
	"fmt"

	"repro/internal/predict"
)

// extPredictorVariant is one column of the ext-predictors sweep: a protocol
// and, for PAS cells, the arrival-predictor kind it runs.
type extPredictorVariant struct {
	label     string
	protocol  string
	predictor string // PAS only; "" elsewhere
}

// extPredictorVariants enumerates the portfolio: the two baselines bracket
// six PAS columns, one per registered predictor kind, in registry order.
func extPredictorVariants() []extPredictorVariant {
	vs := []extPredictorVariant{
		{label: ProtoNS, protocol: ProtoNS},
		{label: ProtoSAS, protocol: ProtoSAS},
	}
	for _, k := range predict.Kinds() {
		vs = append(vs, extPredictorVariant{
			label:     ProtoPAS + "/" + k,
			protocol:  ProtoPAS,
			predictor: k,
		})
	}
	return vs
}

// ExtPredictors sweeps the arrival-predictor portfolio: every registered
// predict kind inside PAS, bracketed by the NS and SAS baselines, on two
// stimulus shapes — the paper's analytic radial front and the numerically
// derived advection–diffusion plume. Each variant reports the accuracy-vs-
// energy frontier: detection delay, per-node energy, and the predictors' own
// quality measures (arrival-prediction RMSE, report suppressions, staleness).
func ExtPredictors(o Options) (Result, error) {
	plume := registryScenario("plume")
	stimuli := []struct {
		name string
		cfg  func(rc *RunConfig)
	}{
		{"radial", func(rc *RunConfig) {}}, // maxSleepConfig's paper stimulus
		{"plume", func(rc *RunConfig) { rc.Scenario = plume }},
	}
	variants := extPredictorVariants()

	cells := make([]RunConfig, 0, len(stimuli)*len(variants))
	for _, st := range stimuli {
		for _, v := range variants {
			rc := maxSleepConfig(v.protocol, 20)
			st.cfg(&rc)
			if v.predictor != "" {
				rc.PAS.Predictor = predict.Spec{Kind: v.predictor}
			}
			cells = append(cells, rc)
		}
	}
	aggs, err := runCells(o, cells)
	if err != nil {
		return Result{}, err
	}

	var curves []Curve
	notes := []string{
		"x is the variant index: " + variantLegend(variants),
		"all variants run the 20 s sleep cap; PAS columns differ only in the arrival predictor",
		"rmse is the arrival-prediction error over detecting nodes (0 for NS/SAS, which do not predict)",
		"suppressed counts dual-prediction report suppressions; only the switching kind gates reports, so other columns stay 0",
	}
	for si, st := range stimuli {
		delayPts := make([]Point, len(variants))
		energyPts := make([]Point, len(variants))
		rmsePts := make([]Point, len(variants))
		for vi, v := range variants {
			agg := aggs[si*len(variants)+vi]
			x := float64(vi)
			delayPts[vi] = Point{X: x, Y: agg.Delay.Mean(), CI: agg.Delay.CI95()}
			energyPts[vi] = Point{X: x, Y: agg.Energy.Mean(), CI: agg.Energy.CI95()}
			rmsePts[vi] = Point{X: x, Y: agg.PredRMSE.Mean(), CI: agg.PredRMSE.CI95()}
			if v.predictor == predict.KindSwitching {
				notes = append(notes, fmt.Sprintf(
					"%s %s: %.1f reports suppressed/run, max staleness %.1f s",
					st.name, v.label, agg.Suppressed.Mean(), agg.PredStale.Mean()))
			}
		}
		curves = append(curves,
			Curve{Name: st.name, Points: delayPts},
			Curve{Name: st.name + " energy (J)", Points: energyPts},
			Curve{Name: st.name + " rmse (s)", Points: rmsePts})
	}
	return Result{
		ID:     "ext-predictors",
		Title:  "Arrival-predictor portfolio: accuracy vs energy across stimuli",
		XLabel: "variant",
		YLabel: "avg delay (s)",
		Curves: curves,
		Notes:  notes,
	}, nil
}

// variantLegend renders the index→variant mapping for the notes.
func variantLegend(vs []extPredictorVariant) string {
	s := ""
	for i, v := range vs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d=%s", i, v.label)
	}
	return s
}
