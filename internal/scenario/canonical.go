package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/predict"
)

// Canonical renders the spec as canonical JSON: validated, defaults
// materialized, fields irrelevant to the selected kinds zeroed (so they drop
// from the encoding), object keys sorted, and numbers in Go's shortest-float
// form. Two specs that compile to the same simulation — e.g. deployment kind
// "" vs "uniform", or a falloff radio with Reliable 0 vs the materialized
// 0.6×Range — canonicalize to the same bytes, which is what makes the result
// a sound content-address: the serve layer keys its cache on Canonical, so
// equivalent requests collapse onto one cached simulation.
//
// Canonical output is itself a valid spec: Decode(Canonical(s)) succeeds and
// re-canonicalizes to byte-identical output (pinned by tests and by
// FuzzScenarioJSON).
func Canonical(s Scenario) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	raw, err := json.Marshal(s.Normalized())
	if err != nil {
		return nil, fmt.Errorf("scenario: canonicalizing %s: %w", s.Name, err)
	}
	// Re-marshal through an untyped tree: maps encode with sorted keys, and
	// json.Number preserves the literal the struct marshal chose, so the
	// float formatting stays Go's canonical shortest form.
	var tree any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&tree); err != nil {
		return nil, fmt.Errorf("scenario: canonicalizing %s: %w", s.Name, err)
	}
	out, err := json.Marshal(tree)
	if err != nil {
		return nil, fmt.Errorf("scenario: canonicalizing %s: %w", s.Name, err)
	}
	return out, nil
}

// Hash returns the hex SHA-256 of the spec's canonical encoding — the
// content address of the workload. Semantically equal specs hash equal.
func Hash(s Scenario) (string, error) {
	c, err := Canonical(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// Normalized returns the spec with every build-time default materialized and
// every field the selected kinds ignore reset to zero; s must be valid. It
// preserves behaviour exactly — for any seed, the normalized spec compiles
// to the identical simulation — and is idempotent. Each section's defaults
// are set by one function that its build path calls too (Generate and Model
// normalize first; the failure, liveness and predictor sections normalize
// in the fault and predict packages), and the run path compiles this form
// (experiment.FromScenario), so a spec runs exactly what Canonical hashes.
func (s Scenario) Normalized() Scenario {
	s.Deployment = s.Deployment.Normalized(s.Field, s.Nodes)
	s.Radio = s.Radio.normalized()
	s.Stimulus = s.Stimulus.normalized()
	s.Failures = s.Failures.Normalized(s.Horizon)
	s.Protocol = s.Protocol.normalized()
	return s
}

// Normalized keeps only the fields the kind consumes, with their defaults
// for n nodes over field filled in: 5 clusters (at most n) spread over 10%
// of the shorter field side, and a Poisson-disk spacing of 70% of the mean
// uniform spacing sqrt(area/n). Specs that draw the same deployment
// normalize equal.
func (d DeploymentSpec) Normalized(field geom.Rect, n int) DeploymentSpec {
	switch d.Kind {
	case "", DeployUniform:
		return DeploymentSpec{Kind: DeployUniform}
	case DeployGrid:
		return DeploymentSpec{Kind: DeployGrid, Jitter: d.Jitter}
	case DeployClustered:
		clusters := d.Clusters
		if clusters <= 0 {
			clusters = 5
		}
		if clusters > n {
			clusters = n
		}
		spread := d.Spread
		if spread <= 0 {
			spread = 0.1 * math.Min(field.Width(), field.Height())
		}
		return DeploymentSpec{Kind: DeployClustered, Clusters: clusters, Spread: spread}
	case DeployPoisson:
		minDist := d.MinDist
		if minDist <= 0 {
			minDist = 0.7 * math.Sqrt(field.Area()/float64(n))
		}
		return DeploymentSpec{Kind: DeployPoisson, MinDist: minDist}
	default:
		return d // invalid kinds never reach here (Canonical validates first)
	}
}

// normalized keeps only the fields the loss model reads, with the falloff
// model's reliable radius defaulting to 60% of the range. Lossy with
// LossProb 0 is NOT collapsed onto the unit disk: the lossy model still
// draws channel randomness per delivery, so the two specs simulate
// differently downstream of any collision/CSMA draw.
func (r RadioSpec) normalized() RadioSpec {
	out := RadioSpec{Range: r.Range, Collisions: r.Collisions, CSMA: r.CSMA}
	switch r.Loss {
	case "", LossUnit:
		out.Loss = LossUnit
	case LossLossy:
		out.Loss = LossLossy
		out.LossProb = r.LossProb
	case LossFalloff:
		out.Loss = LossFalloff
		out.Reliable = r.Reliable
		if out.Reliable <= 0 {
			out.Reliable = 0.6 * r.Range
		}
	default:
		return r
	}
	return out
}

// normalized keeps only the fields the kind's Build branch reads, with the
// anisotropic irregularity and harmonic count clamped as
// diffusion.RandomAnisotropicFront clamps them.
func (s StimulusSpec) normalized() StimulusSpec {
	out := StimulusSpec{Kind: s.Kind, Dwell: s.Dwell}
	switch s.Kind {
	case StimRadial:
		out.Origin, out.Speed, out.Start = s.Origin, s.Speed, s.Start
	case StimAdvected:
		out.Origin, out.Speed, out.Start, out.Drift = s.Origin, s.Speed, s.Start, s.Drift
	case StimAnisotropic:
		out.Origin, out.Speed, out.Start = s.Origin, s.Speed, s.Start
		out.Irregularity = math.Min(s.Irregularity, 0.95)
		out.Harmonics = s.Harmonics
		if out.Harmonics < 1 {
			out.Harmonics = 1
		}
	case StimMulti:
		out.Sources = make([]StimulusSpec, len(s.Sources))
		for i, sub := range s.Sources {
			out.Sources[i] = sub.normalized()
		}
	case StimPlume:
		out.Plume = s.Plume
	case StimEikonal:
		out.Eikonal = s.Eikonal
	default:
		return s
	}
	return out
}

// normalized fills in the MaxSleep/5 sleep ramp when a spec pins the cap but
// not the increment, drops a disabled liveness section and materializes an
// enabled one's defaults (fault.LivenessConfig.WithDefaults), and puts the
// predictor section in predict.Spec.Canonical form — dropping a paper-kind
// section so pre-predictor content addresses are preserved — so a spec that
// spells out the defaults hashes equal to one that omits them.
func (p ProtocolSpec) normalized() ProtocolSpec {
	if p.MaxSleep > 0 && p.SleepIncrement == 0 {
		p.SleepIncrement = p.MaxSleep / 5
	}
	if l := p.Liveness; l != nil {
		p.Liveness = nil
		if l.Enabled() {
			v := l.WithDefaults()
			p.Liveness = &v
		}
	}
	if pr := p.Predictor; pr != nil {
		p.Predictor = nil
		if c := pr.Canonical(); c.Kind != predict.KindPaper {
			p.Predictor = &c
		}
	}
	return p
}
