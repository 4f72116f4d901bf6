// Package diffusion models the diffusion stimulus (DS) that the PAS paper's
// sensor network monitors: a phenomenon such as a liquid pollutant or noxious
// gas that spreads outward from a source across a 2-D field.
//
// Two families of models are provided. The analytic fronts (RadialFront,
// AnisotropicFront, AdvectedFront) have closed-form arrival times and are
// used for the paper's main experiments, where ground truth must be exact.
// GridPlume integrates the advection–diffusion PDE on a grid and extracts the
// front as a concentration contour; it produces the irregular boundaries of
// the paper's Fig. 1/2 and backs the pollutant/gas example scenarios.
//
// A protocol only ever observes a stimulus through two questions — "is my
// position covered at the current time?" (sensing) and, for ground-truth
// metrics, "when does the stimulus truly arrive here?" — so the Stimulus
// interface is exactly those two queries.
package diffusion

import (
	"math"

	"repro/internal/geom"
)

// Never is the arrival time reported for points the stimulus never reaches.
func Never() float64 { return math.Inf(1) }

// Stimulus is the minimal interface a sensor field needs: ground-truth
// arrival time and point-coverage queries.
type Stimulus interface {
	// ArrivalTime returns the first virtual time at which the stimulus
	// covers p, or +Inf if it never does.
	ArrivalTime(p geom.Vec2) float64
	// Covered reports whether p is covered by the stimulus at time t. For
	// monotonically growing stimuli this is ArrivalTime(p) <= t; receding
	// stimuli may uncover points again.
	Covered(p geom.Vec2, t float64) bool
}

// FrontModel extends Stimulus with boundary geometry and ground-truth front
// velocity, used by the visualizer and by estimator-accuracy tests.
type FrontModel interface {
	Stimulus
	// FrontVelocity returns the local spreading velocity of the front in
	// the neighbourhood of p at time t (direction = spreading direction,
	// magnitude = speed). The zero vector means "no information".
	FrontVelocity(p geom.Vec2, t float64) geom.Vec2
	// Boundary returns n points approximating the stimulus boundary at
	// time t; nil when the stimulus has no extent yet.
	Boundary(t float64, n int) []geom.Vec2
}

// grownCovered is the shared Covered implementation for monotonically
// growing stimuli.
func grownCovered(s Stimulus, p geom.Vec2, t float64) bool {
	return s.ArrivalTime(p) <= t
}
