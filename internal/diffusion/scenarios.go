package diffusion

import "repro/internal/geom"

// Scenario is a compiled workload: a stimulus with the field and horizon it
// is designed for. The scenario registry's declarative specs compile into it
// (scenario.Scenario.BuildStimulus), and a run config carries it.
type Scenario struct {
	Name        string
	Description string
	Field       geom.Rect
	Horizon     float64
	Stimulus    FrontModel
}
