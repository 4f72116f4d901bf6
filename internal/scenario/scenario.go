// Package scenario is the declarative workload subsystem of the PAS
// reproduction: a Scenario value composes a deployment kind, field size, node
// count, radio range and loss model, stimulus model, failure injection and
// protocol parameters into one self-describing, JSON-serializable spec. The
// named registry (All/Lookup) carries the paper's workload plus every
// extension scenario and the production-scale deployments; the experiment
// harness compiles a spec into a runnable configuration, and the CLIs select
// specs with -scenario.
//
// A spec is pure data: building it draws nothing from any RNG. All
// randomness (deployment draws, anisotropic harmonic draws, channel loss) is
// deferred to build time and derived from the run seed, so the same
// (scenario, seed) pair always produces the same simulation.
package scenario

import (
	"fmt"
	"math"

	"repro/internal/deploy"
	"repro/internal/diffusion"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/predict"
	"repro/internal/radio"
	"repro/internal/rng"
)

// Deployment kinds accepted by DeploymentSpec.Kind.
const (
	DeployUniform   = "uniform" // connected uniform draw (the paper's, default)
	DeployGrid      = "grid"    // jittered lattice
	DeployClustered = "clustered"
	DeployPoisson   = "poisson" // Poisson-disk dart throwing
)

// Loss-model kinds accepted by RadioSpec.Loss.
const (
	LossUnit    = "unit" // perfect unit disk (default)
	LossLossy   = "lossy"
	LossFalloff = "falloff"
)

// Stimulus kinds accepted by StimulusSpec.Kind.
const (
	StimRadial      = "radial"
	StimAdvected    = "advected"
	StimAnisotropic = "anisotropic"
	StimMulti       = "multi"
	StimPlume       = "plume"
	StimEikonal     = "eikonal"
)

// Scenario is one fully described workload. The zero value is not valid; use
// the registry entries or fill every section and Validate.
type Scenario struct {
	// Name is the registry/CLI identifier (e.g. "paper", "scale-10k").
	Name string `json:"name"`
	// Description is a one-line human summary.
	Description string `json:"description,omitempty"`
	// Field is the deployment area in metres.
	Field geom.Rect `json:"field"`
	// Nodes is the deployment size.
	Nodes int `json:"nodes"`
	// Horizon is the simulated duration in seconds.
	Horizon float64 `json:"horizon"`
	// Deployment selects how node positions are drawn.
	Deployment DeploymentSpec `json:"deployment"`
	// Radio describes the channel.
	Radio RadioSpec `json:"radio"`
	// Stimulus describes the monitored phenomenon.
	Stimulus StimulusSpec `json:"stimulus"`
	// Failures optionally injects faults: crash-stop kills, churn, sensor
	// miscalibration and radio degradation windows.
	Failures fault.FailureSpec `json:"failures,omitzero"`
	// Protocol optionally overrides protocol tunables.
	Protocol ProtocolSpec `json:"protocol,omitzero"`
}

// Validate reports the first problem with the spec, or nil.
func (s Scenario) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("scenario: missing name")
	case s.Field.Width() <= 0 || s.Field.Height() <= 0:
		return fmt.Errorf("scenario %s: field %v has no area", s.Name, s.Field)
	case s.Nodes <= 0:
		return fmt.Errorf("scenario %s: node count %d must be positive", s.Name, s.Nodes)
	case s.Horizon <= 0:
		return fmt.Errorf("scenario %s: horizon %g must be positive", s.Name, s.Horizon)
	}
	if err := s.Deployment.validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if err := s.Radio.validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if err := s.Stimulus.validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if err := s.Failures.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if err := s.Protocol.validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return nil
}

// BuildStimulus compiles the stimulus spec into the diffusion scenario the
// run path consumes; seed parameterizes the stochastic stimuli.
func (s Scenario) BuildStimulus(seed int64) (diffusion.Scenario, error) {
	stim, err := s.Stimulus.Build(seed)
	if err != nil {
		return diffusion.Scenario{}, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return diffusion.Scenario{
		Name:        s.Name,
		Description: s.Description,
		Field:       s.Field,
		Horizon:     s.Horizon,
		Stimulus:    stim,
	}, nil
}

// DeploymentSpec selects a deployment generator. The zero value is the
// paper's connected-uniform draw. The struct is comparable on purpose: the
// experiment harness uses it inside its deployment-memoization key.
type DeploymentSpec struct {
	// Kind is one of the Deploy* constants ("" = uniform).
	Kind string `json:"kind,omitempty"`
	// Jitter is the grid positional jitter as a fraction of the cell size.
	Jitter float64 `json:"jitter,omitempty"`
	// Clusters is the cluster count for clustered deployments.
	Clusters int `json:"clusters,omitempty"`
	// Spread is the Gaussian cluster spread in metres.
	Spread float64 `json:"spread,omitempty"`
	// MinDist is the Poisson-disk minimum pairwise spacing in metres
	// (0 = 70% of the mean uniform spacing sqrt(area/n)).
	MinDist float64 `json:"minDist,omitempty"`
}

func (d DeploymentSpec) validate() error {
	switch d.Kind {
	case "", DeployUniform, DeployGrid, DeployClustered, DeployPoisson:
	default:
		return fmt.Errorf("unknown deployment kind %q", d.Kind)
	}
	switch {
	case d.Jitter < 0 || d.Jitter > 0.49:
		return fmt.Errorf("grid jitter %g outside [0, 0.49]", d.Jitter)
	case d.Clusters < 0:
		return fmt.Errorf("negative cluster count %d", d.Clusters)
	case d.Spread < 0:
		return fmt.Errorf("negative cluster spread %g", d.Spread)
	case d.MinDist < 0:
		return fmt.Errorf("negative poisson spacing %g", d.MinDist)
	}
	return nil
}

// Generate draws the deployment for the spec, with its defaults
// materialized first. The uniform kind rejects disconnected layouts exactly
// as the paper harness always has (and panics when maxAttempts draws cannot
// connect); the structured kinds are connected by construction (grid) or
// intentionally clumpy (clustered, poisson) and are used as-is.
func (d DeploymentSpec) Generate(st *rng.Stream, field geom.Rect, n int, radius float64, maxAttempts int) *deploy.Deployment {
	d = d.Normalized(field, n)
	switch d.Kind {
	case DeployUniform:
		return deploy.ConnectedUniform(st, field, n, radius, maxAttempts)
	case DeployGrid:
		// Lattice dimensions follow the field aspect ratio so cells stay
		// near-square; the lattice covers at least n cells and the surplus
		// positions (at the row-major tail) are dropped.
		aspect := field.Width() / field.Height()
		nx := int(math.Ceil(math.Sqrt(float64(n) * aspect)))
		if nx < 1 {
			nx = 1
		}
		ny := (n + nx - 1) / nx
		dep := deploy.Grid(st, field, nx, ny, d.Jitter)
		dep.Positions = dep.Positions[:n]
		return dep
	case DeployClustered:
		per := (n + d.Clusters - 1) / d.Clusters
		dep := deploy.Clustered(st, field, d.Clusters, per, d.Spread)
		dep.Positions = dep.Positions[:n]
		return dep
	case DeployPoisson:
		dep := deploy.PoissonDisk(st, field, n, d.MinDist)
		if dep.N() < n {
			// The scenario declares n nodes; silently simulating a thinner
			// network would misreport every per-node metric. Saturation is a
			// spec bug, handled like ConnectedUniform infeasibility.
			panic(fmt.Sprintf("scenario: poisson deployment saturated at %d of %d nodes (minDist %g over %v); enlarge the field or shrink minDist",
				dep.N(), n, d.MinDist, field))
		}
		return dep
	default:
		panic(fmt.Sprintf("scenario: unknown deployment kind %q", d.Kind))
	}
}

// RadioSpec describes the channel: transmission range, loss model and MAC
// options.
type RadioSpec struct {
	// Range is the transmission range in metres.
	Range float64 `json:"range"`
	// Loss is one of the Loss* constants ("" = unit disk).
	Loss string `json:"loss,omitempty"`
	// LossProb is the per-packet drop probability of the lossy model.
	LossProb float64 `json:"lossProb,omitempty"`
	// Reliable is the falloff model's perfect inner radius
	// (0 = 60% of Range).
	Reliable float64 `json:"reliable,omitempty"`
	// Collisions enables destructive-collision modelling.
	Collisions bool `json:"collisions,omitempty"`
	// CSMA enables carrier sensing with the default backoff parameters.
	CSMA bool `json:"csma,omitempty"`
}

func (r RadioSpec) validate() error {
	switch {
	case r.Range <= 0:
		return fmt.Errorf("radio range %g must be positive", r.Range)
	case r.LossProb < 0 || r.LossProb >= 1:
		return fmt.Errorf("loss probability %g outside [0, 1)", r.LossProb)
	case r.Reliable < 0 || r.Reliable > r.Range:
		return fmt.Errorf("falloff reliable radius %g outside [0, range]", r.Reliable)
	}
	switch r.Loss {
	case "", LossUnit, LossLossy, LossFalloff:
		return nil
	default:
		return fmt.Errorf("unknown loss model %q", r.Loss)
	}
}

// Model builds the channel loss model of the spec, with its defaults
// materialized first.
func (r RadioSpec) Model() (radio.LossModel, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	switch r = r.normalized(); r.Loss {
	case LossUnit:
		return radio.UnitDisk{Range: r.Range}, nil
	case LossLossy:
		return radio.LossyDisk{Range: r.Range, LossProb: r.LossProb}, nil
	default: // LossFalloff
		return radio.DistanceFalloff{Reliable: r.Reliable, Max: r.Range}, nil
	}
}

// ProtocolSpec optionally pins the protocol and its headline tunables; zero
// fields defer to the run configuration (which the CLIs and experiments
// control). It deliberately exposes only the knobs the paper sweeps — full
// control remains available through the core/sas config types.
type ProtocolSpec struct {
	// Name is "pas", "sas", "ns" or "duty" ("" = caller's choice).
	Name string `json:"name,omitempty"`
	// MaxSleep caps the sleep ramp; the increment follows as MaxSleep/5
	// unless SleepIncrement is set.
	MaxSleep       float64 `json:"maxSleep,omitempty"`
	SleepIncrement float64 `json:"sleepIncrement,omitempty"`
	// AlertThreshold is the PAS alert time T_alert.
	AlertThreshold float64 `json:"alertThreshold,omitempty"`
	// Liveness enables the sink-side liveness tracker (suspect after
	// MissK silent intervals, backoff re-probes, then declare dead).
	Liveness *fault.LivenessConfig `json:"liveness,omitempty"`
	// Predictor selects the arrival-prediction model the PAS agent runs
	// (nil or kind "paper" = the §3.3 estimator, byte-identical to every
	// pre-predictor release). Its tolerance must be finite: the canonical
	// encoding is JSON, which cannot carry +Inf (the +Inf "never report"
	// setting remains available programmatically through core.Config).
	Predictor *predict.Spec `json:"predictor,omitempty"`
}

func (p ProtocolSpec) validate() error {
	switch p.Name {
	case "", "pas", "sas", "ns", "duty":
	default:
		return fmt.Errorf("unknown protocol %q", p.Name)
	}
	if p.MaxSleep < 0 || p.SleepIncrement < 0 || p.AlertThreshold < 0 {
		return fmt.Errorf("negative protocol tunable in %+v", p)
	}
	if p.Liveness != nil {
		if err := p.Liveness.Validate(); err != nil {
			return err
		}
	}
	if p.Predictor != nil {
		if math.IsInf(p.Predictor.Tolerance, 1) {
			return fmt.Errorf("predictor tolerance +Inf is not JSON-encodable; set it through core.Config instead")
		}
		return p.Predictor.Validate()
	}
	return nil
}
