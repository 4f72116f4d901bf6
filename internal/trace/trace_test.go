package trace

import (
	"math"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/diffusion"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/radio"
	"repro/internal/scenario"
)

func buildPASNet(t *testing.T) (*node.Network, diffusion.Scenario) {
	t.Helper()
	sc := paperScenario(t)
	dep := deploy.Grid(nil, sc.Field, 5, 5, 0)
	nw := node.BuildNetwork(node.NetworkConfig{
		Deployment: dep,
		Stimulus:   sc.Stimulus,
		Profile:    energy.Telos(),
		Loss:       radio.UnitDisk{Range: 10},
		Agents:     func(radio.NodeID) node.Agent { return core.New(core.DefaultConfig()) },
	})
	return nw, sc
}

func TestRenderFieldGlyphs(t *testing.T) {
	nw, sc := buildPASNet(t)
	nw.Run(60)
	out := RenderField(sc.Field, sc.Stimulus, nw.Nodes, 60, 40, 20)
	if !strings.Contains(out, "t=60.0s") {
		t.Error("missing timestamp")
	}
	if !strings.ContainsRune(out, GlyphStim) {
		t.Error("no stimulus texture at t=60")
	}
	if !strings.ContainsRune(out, GlyphCovered) {
		t.Error("no covered nodes rendered")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 21 { // header + 20 rows
		t.Fatalf("rows = %d", len(lines))
	}
	for _, l := range lines[1:] {
		if len(l) != 40 {
			t.Fatalf("row width = %d", len(l))
		}
	}
}

func TestRenderFieldBeforeStimulus(t *testing.T) {
	nw, sc := buildPASNet(t)
	nw.Run(5) // stimulus starts at t=10
	out := RenderField(sc.Field, sc.Stimulus, nw.Nodes, 5, 30, 15)
	if strings.ContainsRune(out, GlyphStim) {
		t.Error("stimulus rendered before start")
	}
	// Minimum dimensions clamp instead of breaking.
	tiny := RenderField(sc.Field, sc.Stimulus, nw.Nodes, 5, 1, 1)
	if !strings.Contains(tiny, "t=5.0s") {
		t.Error("tiny render broken")
	}
}

func TestRenderFailedGlyph(t *testing.T) {
	nw, sc := buildPASNet(t)
	nw.Nodes[0].FailAt(1)
	nw.Run(10)
	out := RenderField(sc.Field, sc.Stimulus, nw.Nodes, 10, 40, 20)
	if !strings.ContainsRune(out, GlyphFailed) {
		t.Error("failed node not rendered as x")
	}
}

func TestStateLog(t *testing.T) {
	nw, sc := buildPASNet(t)
	var log StateLog
	log.Attach(nw.Nodes)
	nw.Run(sc.Horizon)
	if len(log.Transitions) == 0 {
		t.Fatal("no transitions recorded")
	}
	if log.CountTo(node.StateCovered) == 0 {
		t.Error("no covered transitions")
	}
	first := log.FirstTo(node.StateCovered)
	if math.IsInf(first, 1) || first < 10 {
		t.Errorf("first covered at %v", first)
	}
	if log.FirstTo(node.State(9)) != math.Inf(1) {
		t.Error("bogus state has a first time")
	}
	sum := log.Summary()
	if !strings.Contains(sum, "transitions") || !strings.Contains(sum, "covered") {
		t.Errorf("summary = %q", sum)
	}
	tl := log.Timeline(5)
	if got := strings.Count(tl, "\n"); got != 5 {
		t.Errorf("timeline rows = %d", got)
	}
	all := log.Timeline(0)
	if strings.Count(all, "\n") != len(log.Transitions) {
		t.Error("full timeline truncated")
	}
}

func TestGlyphForBaseline(t *testing.T) {
	// NS nodes are awake and safe before the front: glyph 's'.
	sc := paperScenario(t)
	dep := deploy.Grid(nil, sc.Field, 2, 2, 0)
	nw := node.BuildNetwork(node.NetworkConfig{
		Deployment: dep,
		Stimulus:   sc.Stimulus,
		Profile:    energy.Telos(),
		Loss:       radio.UnitDisk{Range: 10},
		Agents:     func(radio.NodeID) node.Agent { return baseline.NewNS() },
	})
	nw.Run(5)
	out := RenderField(sc.Field, sc.Stimulus, nw.Nodes, 5, 30, 10)
	if !strings.ContainsRune(out, GlyphSafe) {
		t.Error("awake safe nodes not rendered")
	}
	_ = geom.Vec2{}
}

// paperScenario builds the registry's paper workload (Figs. 4-7).
func paperScenario(t *testing.T) diffusion.Scenario {
	t.Helper()
	sp, _ := scenario.Lookup("paper")
	sc, err := sp.BuildStimulus(1)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}
