package fault

import (
	"math"
	"testing"

	"repro/internal/diffusion"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sim"
)

// nopAgent satisfies node.Agent with no protocol behaviour — fault tests
// exercise failure scheduling, not the protocols.
type nopAgent struct{}

func (nopAgent) Init(*node.Node)                                    {}
func (nopAgent) OnWake(*node.Node)                                  {}
func (nopAgent) OnDetect(*node.Node)                                {}
func (nopAgent) OnStimulusGone(*node.Node)                          {}
func (nopAgent) OnMessage(*node.Node, radio.NodeID, radio.Envelope) {}

// rig builds n nodes on a line, 5 m apart, with a far-away radial front.
func rig(t *testing.T, n int) (*sim.Kernel, []*node.Node) {
	t.Helper()
	k := sim.NewKernel()
	stim := diffusion.NewRadialFront(geom.V(-1e6, 0), 0.001, 0)
	m := radio.NewMedium(k, geom.R(0, 0, float64(5*n), 10), energy.Telos(),
		radio.UnitDisk{Range: 12}, rng.NewSource(1).Stream("channel"))
	nodes := make([]*node.Node, n)
	for i := range nodes {
		nodes[i] = node.New(node.Config{
			ID: radio.NodeID(i), Pos: geom.V(float64(5*i), 5),
			Kernel: k, Medium: m, Stimulus: stim,
			Profile: energy.Telos(), Agent: nopAgent{},
		})
	}
	return k, nodes
}

func failedSet(nodes []*node.Node) map[int]bool {
	f := make(map[int]bool)
	for i, n := range nodes {
		if n.Failed() {
			f[i] = true
		}
	}
	return f
}

// failTime reconstructs a still-failed node's crash instant from its
// open-tail downtime accounting.
func failTime(n *node.Node, horizon float64) float64 {
	return horizon - n.DownDuring(horizon)
}

func TestCompileMaterializesWindows(t *testing.T) {
	p := Compile(FailureSpec{Fraction: 0.2}, 100)
	if p.Spec.By != 100 {
		t.Errorf("crash deadline = %g, want the horizon", p.Spec.By)
	}
	p = Compile(FailureSpec{
		Churn: &ChurnSpec{Fraction: 0.3, MeanDown: 10},
		Radio: &DegradationSpec{Loss: 0.2, Start: 25},
	}, 100)
	if p.Spec.Fraction != 0 {
		t.Error("no crash section, but a crash plan compiled")
	}
	if p.Spec.Churn.By != 100 || p.Spec.Radio.End != 100 {
		t.Errorf("window ends not defaulted to the horizon: churn %g, degrade %g", p.Spec.Churn.By, p.Spec.Radio.End)
	}
	// Disabled (zero-fraction / zero-loss) sections compile to nothing, and
	// a crash window without a crash fraction drops.
	p = Compile(FailureSpec{
		From:   5,
		Churn:  &ChurnSpec{MeanDown: 10},
		Sensor: &SensorSpec{Drift: 3},
		Radio:  &DegradationSpec{Start: 1, End: 2},
	}, 100)
	if p.Spec != (FailureSpec{}) {
		t.Errorf("disabled sections compiled: %+v", p.Spec)
	}
	if !(FailureSpec{From: 5, Fraction: 0.1}).Extended() {
		t.Error("windowed crash not classified extended")
	}
	if (FailureSpec{Fraction: 0.1, By: 50}).Extended() {
		t.Error("legacy crash classified extended")
	}
	// The plan owns its sub-specs: editing the compiled spec afterwards
	// cannot change it.
	f := FailureSpec{Churn: &ChurnSpec{Fraction: 0.3}}
	p = Compile(f, 100)
	f.Churn.Fraction = 0.9
	if p.Spec.Churn.Fraction != 0.3 {
		t.Error("plan aliases the spec's churn section")
	}
	if n := p.Spec.Normalized(100); n.Churn.By != 100 || n.Churn.Fraction != 0.3 {
		t.Errorf("normalizing a normalized spec changed it: %+v", n.Churn)
	}
}

func TestApplyLegacyCrashIsDeterministic(t *testing.T) {
	plan := Compile(FailureSpec{Fraction: 0.3}, 100)
	run := func() (map[int]bool, []float64) {
		k, nodes := rig(t, 20)
		plan.Apply(rng.NewSource(9), nodes)
		k.RunUntil(100)
		var times []float64
		for _, n := range nodes {
			if n.Failed() {
				times = append(times, failTime(n, 100))
			}
		}
		return failedSet(nodes), times
	}
	setA, timesA := run()
	setB, timesB := run()
	if len(setA) != 6 { // round(0.3 × 20)
		t.Fatalf("%d nodes failed, want 6", len(setA))
	}
	if len(setB) != len(setA) || len(timesA) != len(timesB) {
		t.Fatal("reapplication diverged")
	}
	for i := range setA {
		if !setB[i] {
			t.Fatalf("victim sets diverged at node %d", i)
		}
	}
	for i := range timesA {
		if timesA[i] != timesB[i] {
			t.Fatal("crash instants diverged across identical applications")
		}
		if timesA[i] < 0 || timesA[i] > 100 {
			t.Errorf("crash at %g outside [0, horizon]", timesA[i])
		}
	}
}

func TestApplyWindowedCrash(t *testing.T) {
	plan := Compile(FailureSpec{Fraction: 0.5, From: 40, By: 60}, 100)
	k, nodes := rig(t, 10)
	plan.Apply(rng.NewSource(3), nodes)
	k.RunUntil(100)
	failed := 0
	for _, n := range nodes {
		if !n.Failed() {
			continue
		}
		failed++
		if ft := failTime(n, 100); ft < 40 || ft > 60 {
			t.Errorf("crash at %g outside the [40, 60] window", ft)
		}
	}
	if failed != 5 {
		t.Errorf("%d nodes failed, want 5", failed)
	}
}

func TestApplyClusteredCrashIsSpatial(t *testing.T) {
	// Nodes sit on a line 5 m apart; a 7 m cluster radius admits at most the
	// epicentre and its two immediate neighbours, so the victims must be
	// contiguous — a uniform draw of 3 of 20 would almost surely not be.
	plan := Compile(FailureSpec{Fraction: 0.6, ClusterRadius: 7}, 100)
	k, nodes := rig(t, 20)
	plan.Apply(rng.NewSource(5), nodes)
	k.RunUntil(100)
	var victims []int
	for i, n := range nodes {
		if n.Failed() {
			victims = append(victims, i)
		}
	}
	if len(victims) == 0 || len(victims) > 3 {
		t.Fatalf("clustered kill hit %d nodes, want 1–3 (radius-limited below the 12-node fraction)", len(victims))
	}
	for i := 1; i < len(victims); i++ {
		if victims[i] != victims[i-1]+1 {
			t.Errorf("victims %v not spatially contiguous", victims)
		}
	}
}

func TestApplyChurnFailsAndRecovers(t *testing.T) {
	plan := Compile(FailureSpec{
		Churn: &ChurnSpec{Fraction: 0.4, MeanDown: 5, MinDown: 2, Start: 10, By: 50},
	}, 200)
	k, nodes := rig(t, 10)
	plan.Apply(rng.NewSource(11), nodes)
	k.RunUntil(200)
	churned := 0
	for _, n := range nodes {
		downs := n.Downtimes()
		if len(downs) == 0 {
			continue
		}
		churned++
		if n.Failed() {
			t.Error("churned node still failed long after its window")
		}
		d := downs[0]
		if d.Start < 10 || d.Start > 50 {
			t.Errorf("outage start %g outside the [10, 50] window", d.Start)
		}
		if d.End-d.Start < 2 {
			t.Errorf("outage %g s shorter than MinDown 2", d.End-d.Start)
		}
	}
	if churned != 4 {
		t.Errorf("%d nodes churned, want 4", churned)
	}
}

func TestApplySensorInstallsModels(t *testing.T) {
	plan := Compile(FailureSpec{
		Sensor: &SensorSpec{Fraction: 0.5, Drift: 3},
	}, 100)
	k, nodes := rig(t, 10)
	plan.Apply(rng.NewSource(2), nodes)
	miscal := 0
	for _, n := range nodes {
		if n.Sensor() != nil {
			miscal++
		}
	}
	if miscal != 5 {
		t.Errorf("%d nodes miscalibrated, want 5", miscal)
	}
	k.RunUntil(100)
}

func TestFractionRounding(t *testing.T) {
	for _, c := range []struct {
		f    float64
		n, k int
	}{{0, 10, 0}, {0.04, 10, 0}, {0.05, 10, 1}, {0.5, 10, 5}, {1, 10, 10}, {1.5, 10, 10}} {
		if got := fraction(c.f, c.n); got != c.k {
			t.Errorf("fraction(%g, %d) = %d, want %d", c.f, c.n, got, c.k)
		}
	}
}

// --- sensor model ---

func TestSensorDrift(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 0), 1, 0) // arrives at x=10 at t=10
	pos := geom.V(10, 0)
	s := &SensorState{drift: 3}
	if s.Reading(stim, pos, 11) {
		t.Error("drifted sensor detected before its perceived arrival")
	}
	if !s.Reading(stim, pos, 13.5) {
		t.Error("drifted sensor never detected")
	}
	ts := s.SenseTimes(stim, pos)
	if len(ts) != 1 || ts[0] != 13 {
		t.Errorf("SenseTimes = %v, want [13] (true arrival 10 + drift 3)", ts)
	}
}

func TestSensorStuck(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 0), 1, 0)
	pos := geom.V(10, 0)
	// Sticks at t=5, before the t=10 arrival: latched at "uncovered" forever.
	s := &SensorState{stuck: true, stuckAt: 5}
	if s.Reading(stim, pos, 20) || s.Reading(stim, pos, 1000) {
		t.Error("pre-arrival stuck sensor detected anyway")
	}
	if ts := s.SenseTimes(stim, pos); len(ts) != 1 || ts[0] != 5 {
		t.Errorf("SenseTimes = %v, want [5]", ts)
	}
	// Sticks after arrival: latched at "covered".
	s = &SensorState{stuck: true, stuckAt: 15}
	if !s.Reading(stim, pos, 20) {
		t.Error("post-arrival stuck sensor lost its latched detection")
	}
	// Before the onset the sensor reads normally.
	s = &SensorState{stuck: true, stuckAt: 50}
	if s.Reading(stim, pos, 5) {
		t.Error("not-yet-stuck sensor misread")
	}
	if !s.Reading(stim, pos, 12) {
		t.Error("not-yet-stuck sensor missed the front")
	}
}

func TestSensorBursts(t *testing.T) {
	stim := diffusion.NewRadialFront(geom.V(0, 0), 1, 0)
	pos := geom.V(1000, 0) // front arrives at t=1000: never during this test
	s := &SensorState{bursts: []burst{{start: 5, end: 7}, {start: 20, end: 21}}}
	probes := []struct {
		t    float64
		want bool
	}{{1, false}, {5, true}, {6.9, true}, {7, false}, {19, false}, {20.5, true}, {30, false}}
	for _, p := range probes { // non-decreasing, as the contract requires
		if got := s.Reading(stim, pos, p.t); got != p.want {
			t.Errorf("Reading at %g = %v, want %v", p.t, got, p.want)
		}
	}
	ts := s.SenseTimes(stim, pos)
	if len(ts) != 2 || ts[0] != 5 || ts[1] != 20 {
		t.Errorf("SenseTimes = %v, want the burst onsets [5 20]", ts)
	}
}

func TestNewSensorStateDrawsAreDeterministic(t *testing.T) {
	p := SensorSpec{Fraction: 1, Drift: 2, Stuck: 0.5, BurstRate: 3, BurstLen: 1}
	a := NewSensorState(p, 100, rng.NewSource(7).StreamN("fault/sensor", 4))
	b := NewSensorState(p, 100, rng.NewSource(7).StreamN("fault/sensor", 4))
	if a.stuck != b.stuck || a.stuckAt != b.stuckAt || len(a.bursts) != len(b.bursts) {
		t.Fatal("identical streams drew different sensor states")
	}
	for i := range a.bursts {
		if a.bursts[i] != b.bursts[i] {
			t.Fatal("burst schedules diverged")
		}
		if a.bursts[i].start >= 100 {
			t.Errorf("burst %d starts at %g, past the horizon", i, a.bursts[i].start)
		}
		if i > 0 && a.bursts[i].start < a.bursts[i-1].end {
			t.Errorf("bursts overlap: %+v", a.bursts)
		}
	}
	other := NewSensorState(p, 100, rng.NewSource(7).StreamN("fault/sensor", 5))
	if a.stuck == other.stuck && a.stuckAt == other.stuckAt && len(a.bursts) == len(other.bursts) {
		t.Error("distinct per-node streams drew identical sensor states")
	}
}

// --- degraded loss ---

type countingLoss struct {
	rangeM float64
	calls  int
}

func (c *countingLoss) Delivers(float64, *rng.Stream) bool { c.calls++; return true }
func (c *countingLoss) MaxRange() float64                  { return c.rangeM }

func TestDegradedLossWindow(t *testing.T) {
	k := sim.NewKernel()
	base := &countingLoss{rangeM: 12}
	d := NewDegradedLoss(base, DegradationSpec{Start: 10, End: 20, Loss: 1}, rng.NewSource(1).Stream("fault/degrade"))
	d.Bind(k)
	st := rng.NewSource(2).Stream("x")
	if !d.Delivers(1, st) {
		t.Error("dropped outside the window (t=0)")
	}
	k.ScheduleAt(15, func(*sim.Kernel) {
		if d.Delivers(1, st) {
			t.Error("Loss=1 delivered inside the window")
		}
	})
	k.ScheduleAt(20, func(*sim.Kernel) {
		if !d.Delivers(1, st) {
			t.Error("dropped at the window end (End is exclusive)")
		}
	})
	k.Run()
	if base.calls != 3 {
		t.Errorf("base model consulted %d times, want every delivery (3)", base.calls)
	}
	if d.MaxRange() != 12 {
		t.Errorf("MaxRange = %g, want the base model's 12 (degradation never widens range)", d.MaxRange())
	}
}

func TestDegradedLossBaseDropWins(t *testing.T) {
	k := sim.NewKernel()
	d := NewDegradedLoss(radio.UnitDisk{Range: 10}, DegradationSpec{Start: 0, End: 100, Loss: 0},
		rng.NewSource(1).Stream("fault/degrade"))
	d.Bind(k)
	if d.Delivers(11, rng.NewSource(2).Stream("x")) {
		t.Error("out-of-range delivery passed through the wrapper")
	}
}

func TestDegradedLossPanicsUnbound(t *testing.T) {
	d := NewDegradedLoss(&countingLoss{rangeM: 10}, DegradationSpec{End: 10, Loss: 0.5},
		rng.NewSource(1).Stream("fault/degrade"))
	defer func() {
		if recover() == nil {
			t.Error("unbound DegradedLoss did not panic on use")
		}
	}()
	d.Delivers(1, rng.NewSource(2).Stream("x"))
}

// --- liveness config ---

func TestLivenessConfig(t *testing.T) {
	var zero LivenessConfig
	if zero.Enabled() {
		t.Error("zero config enabled")
	}
	if got := zero.WithDefaults(); got != zero {
		t.Errorf("WithDefaults on a disabled config changed it: %+v", got)
	}
	c := LivenessConfig{MissK: 3, Interval: 5}.WithDefaults()
	want := LivenessConfig{MissK: 3, Interval: 5, BackoffInit: 5, BackoffMax: 40, MaxProbes: 3}
	if c != want {
		t.Errorf("WithDefaults = %+v, want %+v", c, want)
	}
	explicit := LivenessConfig{MissK: 2, Interval: 4, BackoffInit: 1, BackoffMax: 9, MaxProbes: 5}
	if got := explicit.WithDefaults(); got != explicit {
		t.Errorf("WithDefaults overwrote explicit values: %+v", got)
	}
	for _, bad := range []LivenessConfig{
		{MissK: -1},
		{MissK: 3},
		{MissK: 3, Interval: -1},
		{MissK: 3, Interval: 5, BackoffInit: -1},
		{MissK: 3, Interval: 5, BackoffMax: -2},
		{MissK: 3, Interval: 5, MaxProbes: -1},
		{MissK: 3, Interval: 5, BackoffInit: 9, BackoffMax: 4},
	} {
		if bad.Validate() == nil {
			t.Errorf("config %+v validated", bad)
		}
	}
	if err := want.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// --- liveness tracker ---

func TestLivenessSuspectProbeDeclare(t *testing.T) {
	l := NewLiveness(LivenessConfig{MissK: 3, Interval: 5, BackoffInit: 2, BackoffMax: 16, MaxProbes: 3})
	l.Observe(1, 0)
	l.Observe(2, 0)

	// Peer 2 keeps reporting; peer 1 goes silent after t=0.
	if l.Tick(15) { // 15 == 3×5: not yet strictly over the window
		t.Error("probe at exactly the window edge")
	}
	l.Observe(2, 15)
	if !l.Tick(16) { // silent > 15 s: suspect, probe 1
		t.Error("no probe when the miss window expired")
	}
	if l.Tick(17) { // backoff 2 s: not due until 18
		t.Error("probe before the backoff expired")
	}
	if !l.Tick(18.5) { // probe 2, next backoff 4 s
		t.Error("no re-probe after backoff")
	}
	if !l.Tick(23) { // probe 3 (the last of MaxProbes), next due at 23+8
		t.Error("no final probe")
	}
	if l.Tick(28) { // final backoff (8 s) still running
		t.Error("probed past MaxProbes")
	}
	l.Observe(2, 28)
	if l.Tick(31.5) { // final backoff expired with probes exhausted: declare
		t.Error("declaration tick asked for another probe")
	}
	st := l.Stats()
	if st.Peers != 2 || st.Probes != 3 {
		t.Errorf("stats = %+v, want 2 peers / 3 probe rounds", st)
	}
	if len(st.Declared) != 1 || st.Declared[0].ID != 1 || st.Declared[0].LastHeard != 0 {
		t.Fatalf("declarations = %+v, want peer 1 last heard at 0", st.Declared)
	}
	if st.Declared[0].At != 31.5 {
		t.Errorf("declared at %g, want 31.5", st.Declared[0].At)
	}
	// Dead peers are skipped by further ticks (peer 2, heard at 28, is
	// still inside its miss window here).
	if l.Tick(40) {
		t.Error("dead peer probed again")
	}
}

func TestLivenessResurrect(t *testing.T) {
	l := NewLiveness(LivenessConfig{MissK: 1, Interval: 1, BackoffInit: 1, BackoffMax: 1, MaxProbes: 1})
	l.Observe(7, 0)
	l.Tick(2)  // suspect + probe 1
	l.Tick(10) // MaxProbes exhausted: declared dead
	if n := len(l.Stats().Declared); n != 1 {
		t.Fatalf("%d declarations, want 1", n)
	}
	l.Observe(7, 12) // churn rejoin
	if !l.Tick(14) { // silent > 1 s again: fresh suspicion cycle
		t.Error("resurrected peer not re-tracked")
	}
	if n := len(l.Stats().Declared); n != 1 {
		t.Errorf("resurrection erased or duplicated the declaration history: %d", n)
	}
}

func TestLivenessOneBroadcastServesManyPeers(t *testing.T) {
	l := NewLiveness(LivenessConfig{MissK: 1, Interval: 1, BackoffInit: 100, BackoffMax: 100, MaxProbes: 3})
	for id := 10; id >= 1; id-- { // reverse insertion: the peer list must sort
		l.Observe(radio.NodeID(id), 0)
	}
	if !l.Tick(5) { // all 10 turn suspect in one tick
		t.Error("no probe")
	}
	if st := l.Stats(); st.Probes != 1 {
		t.Errorf("%d probe rounds for one tick, want 1 (probes are broadcasts)", st.Probes)
	}
	l.AddProbeEnergy(0.25)
	l.AddProbeEnergy(0.5)
	if j := l.Stats().ProbeJ; math.Abs(j-0.75) > 1e-12 {
		t.Errorf("ProbeJ = %g, want 0.75", j)
	}
}

func TestLivenessDeclarationOrderIsSortedByID(t *testing.T) {
	l := NewLiveness(LivenessConfig{MissK: 1, Interval: 1, BackoffInit: 1, BackoffMax: 1, MaxProbes: 1})
	for _, id := range []radio.NodeID{9, 3, 14, 1} {
		l.Observe(id, 0)
	}
	l.Tick(3)  // all suspect
	l.Tick(10) // all declared in one tick
	decls := l.Stats().Declared
	if len(decls) != 4 {
		t.Fatalf("%d declarations, want 4", len(decls))
	}
	for i := 1; i < len(decls); i++ {
		if decls[i].ID <= decls[i-1].ID {
			t.Fatalf("declaration order %v not ID-sorted (determinism)", decls)
		}
	}
}

func TestLivenessDisabledIsInert(t *testing.T) {
	l := NewLiveness(LivenessConfig{})
	l.Observe(1, 0)
	if l.Tick(1e9) {
		t.Error("disabled tracker asked for a probe")
	}
	if len(l.Stats().Declared) != 0 {
		t.Error("disabled tracker declared a death")
	}
}

func TestLivenessBackoffCaps(t *testing.T) {
	l := NewLiveness(LivenessConfig{MissK: 1, Interval: 1, BackoffInit: 2, BackoffMax: 5, MaxProbes: 8})
	for k, want := range map[int]float64{1: 2, 2: 4, 3: 5, 7: 5} {
		if got := l.backoff(k); got != want {
			t.Errorf("backoff(%d) = %g, want %g", k, got, want)
		}
	}
}
