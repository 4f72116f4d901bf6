package scenario

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/diffusion"
	"repro/internal/fault"
	"repro/internal/geom"
)

// registry holds the named entries, built once; byName indexes them. All and
// Lookup hand out deep copies, so a caller may edit any field of what it gets
// without touching the registry.
var (
	registry = entries()
	byName   = index(registry)
)

// All returns the named scenario registry in presentation order. The first
// entry is always the paper's Figs. 4–7 workload; the extensions follow, then
// the structured-deployment showcases and the production-scale deployments.
// Every entry validates and builds.
func All() []Scenario {
	out := make([]Scenario, len(registry))
	for i, s := range registry {
		out[i] = s.clone()
	}
	return out
}

// Lookup finds a registry scenario by name.
func Lookup(name string) (Scenario, bool) {
	i, ok := byName[name]
	if !ok {
		return Scenario{}, false
	}
	return registry[i].clone(), true
}

// Names lists the registry scenario names in order.
func Names() []string {
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = s.Name
	}
	return names
}

func index(all []Scenario) map[string]int {
	m := make(map[string]int, len(all))
	for i, s := range all {
		m[s.Name] = i
	}
	return m
}

// clone returns a deep copy of s: every pointer and slice field of the
// result is its own.
func (s Scenario) clone() Scenario {
	s.Stimulus = s.Stimulus.clone()
	s.Failures.Churn = clonePtr(s.Failures.Churn)
	s.Failures.Sensor = clonePtr(s.Failures.Sensor)
	s.Failures.Radio = clonePtr(s.Failures.Radio)
	s.Protocol.Liveness = clonePtr(s.Protocol.Liveness)
	s.Protocol.Predictor = clonePtr(s.Protocol.Predictor)
	return s
}

func (s StimulusSpec) clone() StimulusSpec {
	if s.Sources != nil {
		src := make([]StimulusSpec, len(s.Sources))
		for i, sub := range s.Sources {
			src[i] = sub.clone()
		}
		s.Sources = src
	}
	s.Plume = clonePtr(s.Plume)
	if s.Eikonal != nil {
		e := *s.Eikonal
		e.Patches = slices.Clone(e.Patches)
		s.Eikonal = &e
	}
	return s
}

func clonePtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	c := *p
	return &c
}

// entries builds the registry entries afresh.
func entries() []Scenario {
	paperField := geom.R(0, 0, 40, 40)
	gasField := geom.R(0, 0, 80, 80)
	gas := StimulusSpec{Kind: StimAdvected, Origin: geom.V(8, 40), Speed: 1.2, Drift: geom.V(0.6, 0.15), Start: 5}
	return []Scenario{
		{
			Name:        "paper",
			Description: "radial liquid-pollutant front (paper Figs. 4-7 workload)",
			Field:       paperField, Nodes: 30, Horizon: 140,
			Radio:    RadioSpec{Range: 10},
			Stimulus: StimulusSpec{Kind: StimRadial, Origin: geom.V(0, 20), Speed: 0.5, Start: 10},
		},
		{
			Name:        "irregular",
			Description: "anisotropic pollutant front with irregular boundary (Fig. 2 shape)",
			Field:       paperField, Nodes: 30, Horizon: 220,
			Radio: RadioSpec{Range: 10},
			Stimulus: StimulusSpec{Kind: StimAnisotropic, Origin: geom.V(0, 20), Speed: 0.5, Start: 10,
				Irregularity: 0.4, Harmonics: 4},
		},
		{
			Name:        "gasleak",
			Description: "advected noxious-gas release (emergent; paper §3.4 discussion)",
			Field:       gasField, Nodes: 60, Horizon: 100,
			Radio:    RadioSpec{Range: 15},
			Stimulus: gas,
		},
		{
			Name:        "twinspill",
			Description: "two simultaneous pollutant spills (union stimulus)",
			Field:       gasField, Nodes: 40, Horizon: 240,
			Radio: RadioSpec{Range: 18},
			Stimulus: StimulusSpec{Kind: StimMulti, Sources: []StimulusSpec{
				{Kind: StimRadial, Origin: geom.V(5, 20), Speed: 0.45, Start: 10},
				{Kind: StimRadial, Origin: geom.V(75, 65), Speed: 0.35, Start: 25},
			}},
		},
		{
			Name:        "passing",
			Description: "gas plume that blows past (finite dwell; covered→safe transitions)",
			Field:       gasField, Nodes: 40, Horizon: 100,
			Radio:    RadioSpec{Range: 18},
			Stimulus: withDwell(gas, 20),
		},
		{
			Name:        "plume",
			Description: "advection-diffusion PDE pollutant plume (thresholded contour front)",
			Field:       paperField, Nodes: 30, Horizon: 210,
			Radio: RadioSpec{Range: 10},
			Stimulus: StimulusSpec{Kind: StimPlume, Plume: &diffusion.PlumeConfig{
				Bounds:      paperField,
				NX:          64,
				NY:          64,
				Diffusivity: 2.0,
				Wind:        geom.V(0.25, 0.1),
				Source:      geom.V(8, 20),
				Rate:        60,
				Threshold:   0.05,
				Horizon:     200,
				Start:       10,
			}},
		},
		{
			Name:        "terrain",
			Description: "heterogeneous-terrain front (eikonal/fast-marching ground truth)",
			Field:       paperField, Nodes: 30, Horizon: 200,
			Radio: RadioSpec{Range: 10},
			Stimulus: StimulusSpec{Kind: StimEikonal, Eikonal: &EikonalSpec{
				NX: 80, NY: 80,
				Bounds:    paperField,
				BaseSpeed: 0.6,
				// Slow horizontal band across y∈[18,24] with a gap at the
				// right edge.
				Patches: []SpeedPatch{{Rect: geom.R(0, 18, 32, 24), Speed: 0.15}},
				Source:  geom.V(6, 6),
				Start:   10,
				Horizon: 200,
			}},
		},
		{
			Name:        "quiet",
			Description: "no stimulus within the horizon (surveillance-lifetime workload)",
			Field:       paperField, Nodes: 30, Horizon: 1800,
			Radio:    RadioSpec{Range: 10},
			Stimulus: StimulusSpec{Kind: StimRadial, Origin: geom.V(-1e9, 20), Speed: 0.5},
		},
		{
			Name:        "grid",
			Description: "paper workload on a jittered lattice deployment",
			Field:       paperField, Nodes: 36, Horizon: 140,
			Deployment: DeploymentSpec{Kind: DeployGrid, Jitter: 0.3},
			Radio:      RadioSpec{Range: 10},
			Stimulus:   StimulusSpec{Kind: StimRadial, Origin: geom.V(0, 20), Speed: 0.5, Start: 10},
		},
		{
			Name:        "clustered",
			Description: "paper workload on points-of-interest clusters",
			Field:       paperField, Nodes: 30, Horizon: 140,
			Deployment: DeploymentSpec{Kind: DeployClustered, Clusters: 5, Spread: 4},
			Radio:      RadioSpec{Range: 12},
			Stimulus:   StimulusSpec{Kind: StimRadial, Origin: geom.V(0, 20), Speed: 0.5, Start: 10},
		},
		{
			Name:        "poisson",
			Description: "paper workload on a Poisson-disk (aerial-drop) deployment",
			Field:       paperField, Nodes: 30, Horizon: 140,
			Deployment: DeploymentSpec{Kind: DeployPoisson, MinDist: 5},
			Radio:      RadioSpec{Range: 12},
			Stimulus:   StimulusSpec{Kind: StimRadial, Origin: geom.V(0, 20), Speed: 0.5, Start: 10},
		},
		{
			Name:        "harsh",
			Description: "falloff channel, collisions+CSMA and 10% node failures",
			Field:       paperField, Nodes: 40, Horizon: 140,
			Radio:    RadioSpec{Range: 12, Loss: LossFalloff, Reliable: 8, Collisions: true, CSMA: true},
			Stimulus: StimulusSpec{Kind: StimRadial, Origin: geom.V(0, 20), Speed: 0.5, Start: 10},
			Failures: fault.FailureSpec{Fraction: 0.1},
		},
		{
			Name:        "churn",
			Description: "crash-recovery churn: 20% of nodes blink out and rejoin, sink tracks liveness",
			Field:       paperField, Nodes: 30, Horizon: 140,
			Radio:    RadioSpec{Range: 10},
			Stimulus: StimulusSpec{Kind: StimRadial, Origin: geom.V(0, 20), Speed: 0.5, Start: 10},
			Failures: fault.FailureSpec{Churn: &fault.ChurnSpec{Fraction: 0.2, MeanDown: 20}},
			Protocol: ProtocolSpec{Liveness: &fault.LivenessConfig{MissK: 3, Interval: 5}},
		},
		{
			Name:        "drift",
			Description: "sensor miscalibration: 30% of nodes drift 3 s late, some stick or burst",
			Field:       paperField, Nodes: 30, Horizon: 140,
			Radio:    RadioSpec{Range: 10},
			Stimulus: StimulusSpec{Kind: StimRadial, Origin: geom.V(0, 20), Speed: 0.5, Start: 10},
			Failures: fault.FailureSpec{Sensor: &fault.SensorSpec{Fraction: 0.3, Drift: 3, Stuck: 0.2, BurstRate: 2, BurstLen: 2}},
		},
		Scale(100),
		Scale(1000),
		Scale(10000),
		Scale(100000),
		Scale(1000000),
	}
}

// withDwell returns the spec wrapped in a receding (finite-dwell) coverage.
func withDwell(s StimulusSpec, dwell float64) StimulusSpec {
	s.Dwell = dwell
	return s
}

// Scale returns the production-scale scenario with n nodes: a jittered grid
// at the paper's deployment density (30 nodes per 40 m × 40 m) with the
// paper's 10 m range, and a radial front whose speed scales with the field so
// it crosses within the standard 140 s horizon. Grid deployment keeps
// 10 000-node layouts connected and O(n) to draw — connected-uniform
// rejection sampling cannot reach this regime (a uniform random geometric
// graph at constant density disconnects once n outgrows e^(degree)).
func Scale(n int) Scenario {
	side := math.Sqrt(float64(n) * 1600.0 / 30.0)
	return Scenario{
		Name:        scaleName(n),
		Description: fmt.Sprintf("production-scale grid deployment (%d nodes, %.0f m field)", n, side),
		Field:       geom.R(0, 0, side, side),
		Nodes:       n,
		Horizon:     140,
		Deployment:  DeploymentSpec{Kind: DeployGrid, Jitter: 0.2},
		Radio:       RadioSpec{Range: 10},
		Stimulus:    StimulusSpec{Kind: StimRadial, Origin: geom.V(0, side/2), Speed: side / 90, Start: 10},
	}
}

// scaleName renders the registry key of a Scale scenario ("scale-10k",
// "scale-1m").
func scaleName(n int) string {
	switch {
	case n >= 1000000 && n%1000000 == 0:
		return fmt.Sprintf("scale-%dm", n/1000000)
	case n >= 1000 && n%1000 == 0:
		return fmt.Sprintf("scale-%dk", n/1000)
	default:
		return fmt.Sprintf("scale-%d", n)
	}
}
