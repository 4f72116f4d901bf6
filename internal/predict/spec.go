package predict

import (
	"fmt"
	"math"
)

// Predictor kind names, as accepted by Spec.Kind, scenario JSON and the
// -predictor CLI flag. The empty kind means KindPaper.
const (
	KindPaper     = "paper"
	KindLMS       = "lms"
	KindEWMA      = "ewma"
	KindAR        = "ar"
	KindKalman    = "kalman"
	KindSwitching = "switching"
)

// Default filter parameters, materialized by WithDefaults (and by scenario
// canonicalization, so a spec spelling a default out hashes identically to
// one omitting it).
const (
	DefaultMu         = 0.5
	DefaultAlpha      = 0.3
	DefaultOrder      = 2
	DefaultProcessVar = 1
	DefaultMeasureVar = 4
	DefaultTolerance  = 1
)

// Spec selects and parameterizes a predictor; it is also the predictor
// section of a scenario's protocol spec. It is a plain comparable value —
// core.Config embeds it and must stay usable with == — and its zero value
// means the paper's estimator with all defaults, so pre-existing
// configurations are untouched.
type Spec struct {
	// Kind names the predictor: "" or "paper" (the paper's §3.3 estimator,
	// the default), "lms", "ewma", "ar", "kalman", or "switching" (the
	// dual-prediction portfolio).
	Kind string `json:"kind,omitempty"`
	// Mu is the NLMS adaptation rate in (0, 2] (lms, switching); 0 selects
	// DefaultMu.
	Mu float64 `json:"mu,omitempty"`
	// Alpha is the EWMA smoothing factor in (0, 1] (ewma, switching); 0
	// selects DefaultAlpha.
	Alpha float64 `json:"alpha,omitempty"`
	// Order is the AR model order in 1..4 (ar, switching); 0 selects
	// DefaultOrder.
	Order int `json:"order,omitempty"`
	// ProcessVar and MeasureVar are the scalar Kalman random-walk process
	// and measurement variances (kalman, switching); 0 selects the default.
	ProcessVar float64 `json:"processVar,omitempty"`
	MeasureVar float64 `json:"measureVar,omitempty"`
	// Tolerance is the dual-prediction reporting tolerance in seconds
	// (switching only): a significant change is rebroadcast only when
	// |model − reading| exceeds it. +Inf suppresses every report; 0 selects
	// DefaultTolerance.
	Tolerance float64 `json:"tolerance,omitempty"`
}

// info describes one registered predictor kind for -list output.
type info struct {
	kind    string
	summary string
}

// registry lists the predictor kinds in presentation order.
var registry = []info{
	{KindPaper, "paper §3.3 neighbour-velocity estimator (default)"},
	{KindLMS, "normalized LMS adaptive filter over raw arrival estimates"},
	{KindEWMA, "exponentially weighted moving average of arrival estimates"},
	{KindAR, "autoregressive AR(k) least-squares predictor, k <= 4"},
	{KindKalman, "scalar random-walk Kalman filter"},
	{KindSwitching, "dual-prediction portfolio; reports only outside tolerance"},
}

// Kinds lists the registered predictor kind names in registry order.
func Kinds() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.kind
	}
	return out
}

// Describe returns the one-line summary of a predictor kind ("" selects the
// default paper kind); ok is false for unknown kinds.
func Describe(kind string) (summary string, ok bool) {
	if kind == "" {
		kind = KindPaper
	}
	for _, e := range registry {
		if e.kind == kind {
			return e.summary, true
		}
	}
	return "", false
}

// Validate reports an error for unusable specs. The zero value is valid.
func (s Spec) Validate() error {
	if _, ok := Describe(s.Kind); !ok {
		return fmt.Errorf("predict: unknown predictor kind %q (one of %v)", s.Kind, Kinds())
	}
	switch {
	case s.Mu < 0 || s.Mu > 2 || math.IsNaN(s.Mu):
		return fmt.Errorf("predict: LMS mu %g outside (0, 2]", s.Mu)
	case s.Alpha < 0 || s.Alpha > 1 || math.IsNaN(s.Alpha):
		return fmt.Errorf("predict: EWMA alpha %g outside (0, 1]", s.Alpha)
	case s.Order < 0 || s.Order > arMaxOrder:
		return fmt.Errorf("predict: AR order %d outside 1..%d", s.Order, arMaxOrder)
	case s.ProcessVar < 0 || math.IsNaN(s.ProcessVar):
		return fmt.Errorf("predict: negative Kalman process variance %g", s.ProcessVar)
	case s.MeasureVar < 0 || math.IsNaN(s.MeasureVar):
		return fmt.Errorf("predict: negative Kalman measurement variance %g", s.MeasureVar)
	case s.Tolerance < 0 || math.IsNaN(s.Tolerance):
		return fmt.Errorf("predict: negative switching tolerance %g", s.Tolerance)
	}
	return nil
}

// WithDefaults fills zero parameters with the package defaults and resolves
// the empty kind to KindPaper. It does not zero kind-irrelevant parameters;
// see Canonical.
func (s Spec) WithDefaults() Spec {
	if s.Kind == "" {
		s.Kind = KindPaper
	}
	if s.Mu == 0 {
		s.Mu = DefaultMu
	}
	if s.Alpha == 0 {
		s.Alpha = DefaultAlpha
	}
	if s.Order == 0 {
		s.Order = DefaultOrder
	}
	if s.ProcessVar == 0 {
		s.ProcessVar = DefaultProcessVar
	}
	if s.MeasureVar == 0 {
		s.MeasureVar = DefaultMeasureVar
	}
	if s.Tolerance == 0 {
		s.Tolerance = DefaultTolerance
	}
	return s
}

// Canonical returns the spec in canonical form for content addressing:
// the kind resolved, kind-relevant parameters materialized to their
// defaults, and parameters the kind never reads zeroed, so two specs that
// run identically compare (and hash) identically. Canonical is idempotent.
func (s Spec) Canonical() Spec {
	d := s.WithDefaults()
	out := Spec{Kind: d.Kind}
	switch d.Kind {
	case KindPaper:
	case KindLMS:
		out.Mu = d.Mu
	case KindEWMA:
		out.Alpha = d.Alpha
	case KindAR:
		out.Order = d.Order
	case KindKalman:
		out.ProcessVar, out.MeasureVar = d.ProcessVar, d.MeasureVar
	case KindSwitching:
		out.Mu, out.Alpha, out.Order = d.Mu, d.Alpha, d.Order
		out.ProcessVar, out.MeasureVar = d.ProcessVar, d.MeasureVar
		out.Tolerance = d.Tolerance
	}
	return out
}
