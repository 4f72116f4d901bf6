package scenario

import (
	"fmt"

	"repro/internal/diffusion"
	"repro/internal/geom"
	"repro/internal/rng"
)

// StimulusSpec declaratively describes a diffusion stimulus. Exactly the
// fields of the selected Kind are meaningful; the rest stay zero. Dwell > 0
// wraps any kind in a receding front (coverage ends after the dwell), which
// drives covered→safe transitions.
type StimulusSpec struct {
	// Kind is one of the Stim* constants.
	Kind string `json:"kind"`
	// Origin is the release point (radial, advected, anisotropic).
	Origin geom.Vec2 `json:"origin,omitzero"`
	// Speed is the spreading speed in m/s (radial, anisotropic) or the
	// growth speed (advected).
	Speed float64 `json:"speed,omitempty"`
	// Start is the virtual release time.
	Start float64 `json:"start,omitempty"`
	// Drift is the advection velocity (advected).
	Drift geom.Vec2 `json:"drift,omitzero"`
	// Irregularity in [0, 1) and Harmonics parameterize the anisotropic
	// front's random speed profile, drawn from the run seed.
	Irregularity float64 `json:"irregularity,omitempty"`
	Harmonics    int     `json:"harmonics,omitempty"`
	// Dwell > 0 makes coverage recede after that many seconds.
	Dwell float64 `json:"dwell,omitempty"`
	// Sources are the component stimuli of a multi-source union.
	Sources []StimulusSpec `json:"sources,omitempty"`
	// Plume configures the advection–diffusion PDE stimulus.
	Plume *diffusion.PlumeConfig `json:"plume,omitempty"`
	// Eikonal configures the heterogeneous-terrain (fast-marching) front.
	Eikonal *EikonalSpec `json:"eikonal,omitempty"`
}

// EikonalSpec is the JSON-friendly form of diffusion.TerrainConfig: the speed
// map is a base speed plus rectangular patches instead of an arbitrary
// function.
type EikonalSpec struct {
	// NX, NY are the fast-marching grid resolution over the field.
	NX int `json:"nx"`
	NY int `json:"ny"`
	// Bounds is the solved area (usually the scenario field).
	Bounds geom.Rect `json:"bounds"`
	// BaseSpeed is the background spreading speed in m/s.
	BaseSpeed float64 `json:"baseSpeed"`
	// Patches override the speed inside their rectangles, in order (later
	// patches win). Speed <= 0 marks an impassable barrier.
	Patches []SpeedPatch `json:"patches,omitempty"`
	// Source and Start locate the release.
	Source geom.Vec2 `json:"source"`
	Start  float64   `json:"start,omitempty"`
	// Horizon bounds the contouring times (usually the scenario horizon).
	Horizon float64 `json:"horizon"`
}

// SpeedPatch is one rectangular speed override of an eikonal speed map.
type SpeedPatch struct {
	Rect  geom.Rect `json:"rect"`
	Speed float64   `json:"speed"`
}

// dropEmptySlices nils out empty slices a JSON "[]" literal decodes to:
// omitempty drops them on re-encode, so a non-nil empty slice would break the
// decode → encode → decode identity the codec guarantees.
func (s *StimulusSpec) dropEmptySlices() {
	if len(s.Sources) == 0 {
		s.Sources = nil
	}
	for i := range s.Sources {
		s.Sources[i].dropEmptySlices()
	}
	if s.Eikonal != nil && len(s.Eikonal.Patches) == 0 {
		s.Eikonal.Patches = nil
	}
}

func (s StimulusSpec) validate() error {
	if s.Dwell < 0 {
		return fmt.Errorf("negative stimulus dwell %g", s.Dwell)
	}
	switch s.Kind {
	case StimRadial, StimAdvected:
		if s.Speed <= 0 {
			return fmt.Errorf("%s stimulus speed %g must be positive", s.Kind, s.Speed)
		}
	case StimAnisotropic:
		if s.Speed <= 0 {
			return fmt.Errorf("anisotropic base speed %g must be positive", s.Speed)
		}
		if s.Irregularity < 0 || s.Irregularity >= 1 {
			return fmt.Errorf("anisotropic irregularity %g outside [0, 1)", s.Irregularity)
		}
	case StimMulti:
		if len(s.Sources) == 0 {
			return fmt.Errorf("multi stimulus needs at least one source")
		}
		for i, sub := range s.Sources {
			if sub.Kind == StimMulti {
				return fmt.Errorf("multi stimulus source %d: nesting multi is not supported", i)
			}
			if err := sub.validate(); err != nil {
				return fmt.Errorf("multi stimulus source %d: %w", i, err)
			}
		}
	case StimPlume:
		if s.Plume == nil {
			return fmt.Errorf("plume stimulus needs the plume section")
		}
		if err := s.Plume.Validate(); err != nil {
			return err
		}
	case StimEikonal:
		if s.Eikonal == nil {
			return fmt.Errorf("eikonal stimulus needs the eikonal section")
		}
		if err := s.Eikonal.terrainConfig().Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown stimulus kind %q", s.Kind)
	}
	return nil
}

// terrainConfig lowers the declarative speed map to diffusion.TerrainConfig.
func (e EikonalSpec) terrainConfig() diffusion.TerrainConfig {
	patches := e.Patches
	base := e.BaseSpeed
	return diffusion.TerrainConfig{
		Bounds: e.Bounds,
		NX:     e.NX,
		NY:     e.NY,
		Speed: func(p geom.Vec2) float64 {
			v := base
			for _, patch := range patches {
				if patch.Rect.Contains(p) {
					v = patch.Speed
				}
			}
			return v
		},
		Source:  e.Source,
		Start:   e.Start,
		Horizon: e.Horizon,
	}
}

// Build compiles the spec into a queryable front model. Only the anisotropic
// kind consumes randomness; it draws its harmonics from the seed's dedicated
// "anisotropic-front" stream.
func (s StimulusSpec) Build(seed int64) (diffusion.FrontModel, error) {
	return s.build(seed, -1)
}

// build is Build with a multi-source slot: source i of a multi stimulus draws
// from the i-th numbered variant of the anisotropic stream (slot < 0 = the
// unnumbered top-level stream), so sibling stochastic sources are independent
// instead of perfectly correlated copies.
func (s StimulusSpec) build(seed int64, slot int) (diffusion.FrontModel, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	var front diffusion.FrontModel
	var err error
	switch s.Kind {
	case StimRadial:
		front = diffusion.NewRadialFront(s.Origin, s.Speed, s.Start)
	case StimAdvected:
		front = diffusion.NewAdvectedFront(s.Origin, s.Speed, s.Drift, s.Start)
	case StimAnisotropic:
		src := rng.NewSource(seed)
		st := src.Stream("anisotropic-front")
		if slot >= 0 {
			st = src.StreamN("anisotropic-front", slot)
		}
		front = diffusion.RandomAnisotropicFront(st, s.Origin, s.Speed, s.Start, s.Irregularity, s.Harmonics)
	case StimMulti:
		subs := make([]diffusion.FrontModel, len(s.Sources))
		for i, sub := range s.Sources {
			if subs[i], err = sub.build(seed, i); err != nil {
				return nil, err
			}
		}
		front = diffusion.NewMultiSource(subs...)
	case StimPlume:
		if front, err = diffusion.NewGridPlume(*s.Plume); err != nil {
			return nil, err
		}
	case StimEikonal:
		if front, err = diffusion.NewTerrainFront(s.Eikonal.terrainConfig()); err != nil {
			return nil, err
		}
	}
	if s.Dwell > 0 {
		front = diffusion.NewReceding(front, s.Dwell)
	}
	return front, nil
}
