package fault

import "fmt"

// FailureSpec declares fault injection; it is the "failures" section of a
// scenario spec. The original shape kills Fraction of the nodes at uniform
// random times in [0, By] (By 0 = the horizon); the other fields layer a
// crash window start, spatially clustered victims, churn, sensor
// miscalibration and radio degradation on top. Normalized materializes its
// defaults; Compile turns it into a Plan.
type FailureSpec struct {
	// Fraction of the nodes to crash-stop at uniform random times.
	Fraction float64 `json:"fraction,omitempty"`
	// By is the crash-window end (0 = the horizon).
	By float64 `json:"by,omitempty"`
	// From is the crash-window start (0 = time zero).
	From float64 `json:"from,omitempty"`
	// ClusterRadius switches the crash victim draw from uniform-random to
	// spatially clustered: victims are the Fraction×n nodes nearest a
	// randomly chosen epicentre, restricted to this radius in metres.
	ClusterRadius float64 `json:"clusterRadius,omitempty"`
	// Churn adds crash-recovery churn (nodes go dark, then rejoin).
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Sensor adds sensor miscalibration transforms.
	Sensor *SensorSpec `json:"sensor,omitempty"`
	// Radio adds a time-bounded radio degradation window.
	Radio *DegradationSpec `json:"radio,omitempty"`
}

// ChurnSpec describes crash-recovery churn: Fraction of the nodes each pick
// an outage start uniform in [Start, By] (By 0 = the horizon) and stay dark
// for MinDown plus an exponential draw with mean MeanDown seconds, then
// rejoin. Rejoining reuses the frozen topology — positions never change.
type ChurnSpec struct {
	Fraction float64 `json:"fraction,omitempty"`
	MeanDown float64 `json:"meanDown,omitempty"`
	MinDown  float64 `json:"minDown,omitempty"`
	Start    float64 `json:"start,omitempty"`
	By       float64 `json:"by,omitempty"`
}

// SensorSpec describes miscalibration applied between stimulus and reading
// on Fraction of the nodes: Drift perceives the front Drift seconds late;
// Stuck is the probability a faulted node latches its reading forever at a
// uniform-random onset; BurstRate bursts per horizon (mean) of spurious
// always-detecting noise lasting Exponential(BurstLen) seconds each. See
// SensorState.
type SensorSpec struct {
	Fraction  float64 `json:"fraction,omitempty"`
	Drift     float64 `json:"drift,omitempty"`
	Stuck     float64 `json:"stuck,omitempty"`
	BurstRate float64 `json:"burstRate,omitempty"`
	BurstLen  float64 `json:"burstLen,omitempty"`
}

// DegradationSpec layers an extra independent per-delivery drop probability
// Loss on the channel during [Start, End] (End 0 = the horizon), modelling a
// time-bounded radio degradation window (weather, interference). See
// DegradedLoss.
type DegradationSpec struct {
	Start float64 `json:"start,omitempty"`
	End   float64 `json:"end,omitempty"`
	Loss  float64 `json:"loss,omitempty"`
}

// Validate reports the first problem with the spec, or nil.
func (f FailureSpec) Validate() error {
	switch {
	case !(f.Fraction >= 0 && f.Fraction <= 1): // NaN too
		return fmt.Errorf("failure fraction %g outside [0, 1]", f.Fraction)
	case f.By < 0:
		return fmt.Errorf("negative failure deadline %g", f.By)
	case f.From < 0:
		return fmt.Errorf("negative failure window start %g", f.From)
	case f.By > 0 && f.By < f.From:
		return fmt.Errorf("failure window end %g before start %g", f.By, f.From)
	case f.ClusterRadius < 0:
		return fmt.Errorf("negative failure cluster radius %g", f.ClusterRadius)
	}
	if c := f.Churn; c != nil {
		switch {
		case c.Fraction < 0 || c.Fraction > 1:
			return fmt.Errorf("churn fraction %g outside [0, 1]", c.Fraction)
		case c.MeanDown < 0:
			return fmt.Errorf("negative churn mean downtime %g", c.MeanDown)
		case c.MinDown < 0:
			return fmt.Errorf("negative churn min downtime %g", c.MinDown)
		case c.Start < 0:
			return fmt.Errorf("negative churn window start %g", c.Start)
		case c.By < 0:
			return fmt.Errorf("negative churn window end %g", c.By)
		case c.By > 0 && c.By < c.Start:
			return fmt.Errorf("churn window end %g before start %g", c.By, c.Start)
		}
	}
	if s := f.Sensor; s != nil {
		switch {
		case s.Fraction < 0 || s.Fraction > 1:
			return fmt.Errorf("sensor fault fraction %g outside [0, 1]", s.Fraction)
		case s.Drift < 0:
			return fmt.Errorf("negative sensor drift %g", s.Drift)
		case s.Stuck < 0 || s.Stuck > 1:
			return fmt.Errorf("sensor stuck probability %g outside [0, 1]", s.Stuck)
		case s.BurstRate < 0:
			return fmt.Errorf("negative sensor burst rate %g", s.BurstRate)
		case s.BurstLen < 0:
			return fmt.Errorf("negative sensor burst length %g", s.BurstLen)
		}
	}
	if d := f.Radio; d != nil {
		switch {
		case d.Loss < 0 || d.Loss >= 1:
			return fmt.Errorf("degradation loss %g outside [0, 1)", d.Loss)
		case d.Start < 0:
			return fmt.Errorf("negative degradation window start %g", d.Start)
		case d.End < 0:
			return fmt.Errorf("negative degradation window end %g", d.End)
		case d.End > 0 && d.End < d.Start:
			return fmt.Errorf("degradation window end %g before start %g", d.End, d.Start)
		}
	}
	return nil
}

// Normalized returns a valid spec with its defaults materialized against
// the horizon: window ends left at 0 become the horizon, a crash section
// with no Fraction drops its window, and a churn or sensor section with no
// Fraction, or a degradation window with no Loss, becomes nil. The result
// injects exactly the faults f does, shares no sub-spec with f, and is its
// own normalized form; this is the spec a Plan runs and the form a scenario
// hashes.
func (f FailureSpec) Normalized(horizon float64) FailureSpec {
	if f.Fraction == 0 {
		f.By, f.From, f.ClusterRadius = 0, 0, 0
	} else if f.By == 0 {
		f.By = horizon
	}
	if c := f.Churn; c != nil {
		f.Churn = nil
		if c.Fraction > 0 {
			v := *c
			if v.By == 0 {
				v.By = horizon
			}
			f.Churn = &v
		}
	}
	if s := f.Sensor; s != nil {
		f.Sensor = nil
		if s.Fraction > 0 {
			v := *s
			f.Sensor = &v
		}
	}
	if d := f.Radio; d != nil {
		f.Radio = nil
		if d.Loss > 0 {
			v := *d
			if v.End == 0 {
				v.End = horizon
			}
			f.Radio = &v
		}
	}
	return f
}

// Extended reports whether a normalized spec injects any fault beyond a
// uniform crash-stop kill over [0, By]. Such a spec runs as a Plan on one
// kernel; the rest is the legacy kill, which runs sharded too.
func (f FailureSpec) Extended() bool {
	return f.Churn != nil || f.Sensor != nil || f.Radio != nil ||
		f.From > 0 || f.ClusterRadius > 0
}
