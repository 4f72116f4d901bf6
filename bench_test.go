// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4). Each BenchmarkFigN/BenchmarkTableN target runs the corresponding
// experiment at reduced replication and reports the headline numbers as
// custom metrics, so `go test -bench=.` both times the harness and prints
// the reproduced values. Micro-benchmarks for the simulation substrate
// follow at the end.
package pas_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	pas "repro"
	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/energy"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/predict"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/store"
)

// benchOpts runs experiments small enough for iterated benchmarking while
// keeping the qualitative shape.
func benchOpts() pas.ExperimentOptions {
	return pas.ExperimentOptions{Quick: true, Seeds: pas.Seeds(2)}
}

// lastY returns the y value of a curve at its largest x.
func lastY(res pas.ExperimentResult, name string) float64 {
	c, ok := res.Curve(name)
	if !ok || len(c.Points) == 0 {
		return -1
	}
	return c.Points[len(c.Points)-1].Y
}

func firstY(res pas.ExperimentResult, name string) float64 {
	c, ok := res.Curve(name)
	if !ok || len(c.Points) == 0 {
		return -1
	}
	return c.Points[0].Y
}

func BenchmarkTable1Profile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := energy.Telos()
		m := energy.NewMeter(p, 0, energy.ModeActive)
		for t := 1.0; t <= 128; t *= 2 {
			m.SetMode(t, energy.ModeSleep)
			m.SetMode(t+0.5, energy.ModeActive)
			m.ChargeTxBytes(64)
		}
		m.Close(256)
		if m.TotalJ() <= 0 {
			b.Fatal("no energy accounted")
		}
	}
}

func BenchmarkFig4DelayVsMaxSleep(b *testing.B) {
	var res pas.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.Fig4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastY(res, "PAS"), "pas-delay-s")
	b.ReportMetric(lastY(res, "SAS"), "sas-delay-s")
	b.ReportMetric(lastY(res, "NS"), "ns-delay-s")
}

func BenchmarkFig5DelayVsAlertTime(b *testing.B) {
	var res pas.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.Fig5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(firstY(res, "PAS"), "delay-at-T10-s")
	b.ReportMetric(lastY(res, "PAS"), "delay-at-T30-s")
}

func BenchmarkFig6EnergyVsMaxSleep(b *testing.B) {
	var res pas.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastY(res, "PAS"), "pas-energy-J")
	b.ReportMetric(lastY(res, "SAS"), "sas-energy-J")
	b.ReportMetric(lastY(res, "NS"), "ns-energy-J")
}

func BenchmarkFig7EnergyVsAlertTime(b *testing.B) {
	var res pas.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(firstY(res, "PAS"), "energy-at-T10-J")
	b.ReportMetric(lastY(res, "PAS"), "energy-at-T30-J")
}

func BenchmarkExtFailures(b *testing.B) {
	var res pas.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.ExtFailures(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastY(res, "pas"), "pas-delay-at-30pct-s")
}

func BenchmarkExtLossyChannel(b *testing.B) {
	var res pas.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.ExtLossy(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastY(res, "pas"), "pas-delay-at-50pct-loss-s")
}

func BenchmarkExtDegenerateSAS(b *testing.B) {
	var res pas.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.ExtDegenerate(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastY(res, "PAS (T→0)"), "degenerate-delay-s")
	b.ReportMetric(lastY(res, "SAS"), "sas-delay-s")
}

func BenchmarkExtEstimatorAblation(b *testing.B) {
	var res pas.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.ExtEstimator(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastY(res, "min (paper)"), "min-delay-s")
	b.ReportMetric(lastY(res, "mean"), "mean-delay-s")
}

func BenchmarkExtPlume(b *testing.B) {
	// The PDE integration dominates; build the scenario once and bench the
	// protocol runs over it.
	sc, err := pas.ScenarioByName("plume", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rep pas.RunReport
	for i := 0; i < b.N; i++ {
		rep, err = pas.Run(pas.RunConfig{Scenario: sc, Protocol: pas.ProtoPAS, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.AvgDelay, "pas-delay-s")
	b.ReportMetric(rep.AvgEnergyJ, "pas-energy-J")
}

func BenchmarkExtDensity(b *testing.B) {
	var res pas.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.ExtDensity(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastY(res, "PAS delay"), "delay-at-max-density-s")
}

func BenchmarkExtLifetime(b *testing.B) {
	var res pas.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.ExtLifetime(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastY(res, "ns"), "ns-first-death-s")
	b.ReportMetric(lastY(res, "pas"), "pas-first-death-s")
}

func BenchmarkExtCollisions(b *testing.B) {
	var res pas.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.ExtCollisions(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastY(res, "pas (collisions)"), "delay-with-collisions-s")
}

func BenchmarkExtContour(b *testing.B) {
	var res pas.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.ExtContour(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastY(res, "ns"), "ns-area-err")
	b.ReportMetric(lastY(res, "pas"), "pas-area-err")
}

func BenchmarkExtTerrain(b *testing.B) {
	// Fast marching dominates construction; build once, bench protocol runs.
	sc, err := pas.ScenarioByName("terrain", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rep pas.RunReport
	for i := 0; i < b.N; i++ {
		rep, err = pas.Run(pas.RunConfig{Scenario: sc, Protocol: pas.ProtoPAS, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.AvgDelay, "pas-delay-s")
}

func BenchmarkFastMarching(b *testing.B) {
	cfg := diffusion.TerrainConfig{
		Bounds:  geom.R(0, 0, 40, 40),
		NX:      64,
		NY:      64,
		Speed:   func(geom.Vec2) float64 { return 0.5 },
		Source:  geom.V(20, 20),
		Horizon: 200,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diffusion.NewTerrainFront(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- parallel replication engine ---

// benchmarkReplicate times one multi-replication PAS cell at the given
// parallelism; the Serial/Parallel pair below measures the worker pool's
// wall-clock speedup rather than claiming it.
func benchmarkReplicate(b *testing.B, parallelism int) {
	rc := pas.RunConfig{Protocol: pas.ProtoPAS}
	seeds := pas.Seeds(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pas.ReplicateParallel(rc, seeds, parallelism); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplicate8Serial(b *testing.B) { benchmarkReplicate(b, 1) }

func BenchmarkReplicate8Parallel(b *testing.B) { benchmarkReplicate(b, runtime.GOMAXPROCS(0)) }

// benchmarkFig4At regenerates Fig. 4 end-to-end (a 3-protocol × 2-point
// Quick sweep replicated over 4 seeds) at the given parallelism.
func benchmarkFig4At(b *testing.B, parallelism int) {
	opts := pas.ExperimentOptions{Quick: true, Seeds: pas.Seeds(4), Parallelism: parallelism}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig4(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Serial(b *testing.B) { benchmarkFig4At(b, 1) }

func BenchmarkFig4Parallel(b *testing.B) { benchmarkFig4At(b, runtime.GOMAXPROCS(0)) }

// --- substrate micro-benchmarks ---

func BenchmarkKernelEventThroughput(b *testing.B) {
	k := sim.NewKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(1, func(*sim.Kernel) {})
		k.Step()
	}
}

// BenchmarkKernelScheduleCancel exercises the O(1) stamp-check Cancel with
// lazy heap removal: a deep queue where half the events die before popping.
func BenchmarkKernelScheduleCancel(b *testing.B) {
	k := sim.NewKernel()
	h := func(*sim.Kernel) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := k.Schedule(2, h)
		k.Schedule(1, h)
		k.Cancel(id)
		k.Step()
	}
	b.StopTimer()
	k.Run()
}

// benchSink is an allocation-free receiver for the broadcast benchmark.
type benchSink struct{ delivered int }

func (s *benchSink) Deliver(radio.NodeID, radio.Envelope) { s.delivered++ }

// BenchmarkBroadcastDeliver times one full broadcast→delivery cycle of a
// RESPONSE envelope to 8 in-range receivers on the pooled batched path; the
// acceptance bar is 0 allocs/op.
func BenchmarkBroadcastDeliver(b *testing.B) {
	k := sim.NewKernel()
	st := rng.NewSource(1).Stream("channel")
	m := radio.NewMedium(k, geom.R(0, 0, 100, 100), energy.Telos(), radio.UnitDisk{Range: 15}, st)
	sinks := make([]*benchSink, 9)
	positions := []geom.Vec2{
		geom.V(50, 50),
		geom.V(55, 50), geom.V(45, 50), geom.V(50, 55), geom.V(50, 45),
		geom.V(57, 57), geom.V(43, 43), geom.V(57, 43), geom.V(43, 57),
	}
	for i, pos := range positions {
		sinks[i] = &benchSink{}
		m.AddNode(radio.NodeID(i), pos, sinks[i], energy.NewMeter(energy.Telos(), 0, energy.ModeActive))
	}
	env := core.Response{
		Pos: geom.V(50, 50), Velocity: geom.V(1, 0), HasVelocity: true, HasDirection: true,
		PredictedArrival: 42, DetectedAt: 40, Detected: true,
	}.Envelope()
	// Warm the kernel arena, neighbour scratch and delivery pool.
	for i := 0; i < 16; i++ {
		m.Broadcast(0, env)
		k.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Broadcast(0, env)
		k.Run()
	}
	b.StopTimer()
	if sinks[1].delivered == 0 {
		b.Fatal("no deliveries")
	}
}

func BenchmarkPASSingleRun(b *testing.B) {
	sc, err := pas.ScenarioByName("paper", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pas.Run(pas.RunConfig{Scenario: sc, Protocol: pas.ProtoPAS, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScale10k times one full 10 000-node PAS run on the scale-10k grid
// scenario — the production-scale point of the ext-scale sweep. The fixed
// seed lets the deployment memoization engage after the first iteration, so
// the number tracks the simulation itself (stimulus, kernel, radio, metrics)
// rather than the deployment draw.
func BenchmarkScale10k(b *testing.B) {
	sp, ok := pas.LookupScenario("scale-10k")
	if !ok {
		b.Fatal("scale-10k missing from the registry")
	}
	cfg, err := pas.RunConfigFromScenario(sp, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Protocol = pas.ProtoPAS
	var rep pas.RunReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, err = pas.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rep.Detected != 10000 {
		b.Fatalf("detected %d/10000", rep.Detected)
	}
	b.ReportMetric(rep.AvgDelay, "pas-delay-s")
}

// BenchmarkNetworkConstruction times building (not running) a 1000-node
// network: kernel, medium, slab-allocated nodes/endpoints/agents and the
// adopted precompiled topology. The fixed seed lets the deployment and
// topology memoization engage after the first iteration, so the number
// tracks the wiring cost the CSR/slab overhaul targets, separately from
// steady-state simulation.
func BenchmarkNetworkConstruction(b *testing.B) {
	sp, ok := pas.LookupScenario("scale-1k")
	if !ok {
		b.Fatal("scale-1k missing from the registry")
	}
	cfg, err := pas.RunConfigFromScenario(sp, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Protocol = pas.ProtoPAS
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw, _, err := experiment.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(nw.Nodes) != 1000 {
			b.Fatalf("built %d nodes", len(nw.Nodes))
		}
	}
}

// BenchmarkScale10kColdStart is BenchmarkScale10k without the memoized
// deployment/topology: every iteration uses a fresh seed, so the grid draw,
// the CSR compilation and the stimulus build all run cold. The gap between
// this and BenchmarkScale10k is what the experiment-level memoization saves
// per cell.
func BenchmarkScale10kColdStart(b *testing.B) {
	sp, ok := pas.LookupScenario("scale-10k")
	if !ok {
		b.Fatal("scale-10k missing from the registry")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, err := pas.RunConfigFromScenario(sp, int64(100+i)) // unique seed → no cache reuse
		if err != nil {
			b.Fatal(err)
		}
		cfg.Protocol = pas.ProtoPAS
		rep, err := pas.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Detected != 10000 {
			b.Fatalf("detected %d/10000", rep.Detected)
		}
	}
}

// BenchmarkScale100k times one full 100 000-node PAS run on four spatially
// sharded kernels — the headline workload of the sharded event kernel. The
// output is bit-identical to the serial run (pinned by the byte-identity
// tests); this number tracks the wall-clock the sharding buys. On a 4+ core
// runner it should sit well under the serial BenchmarkScale100kSerial; on a
// starved runner the two converge (the barrier degrades to yields, not
// spins). The fixed seed keeps the memoized deployment/topology engaged.
func BenchmarkScale100k(b *testing.B) {
	benchScale100k(b, 4)
}

// BenchmarkScale100kSerial is the 1-shard comparison point for
// BenchmarkScale100k: the same workload on one kernel, which is serial
// execution (no goroutine, no barrier). The gap between the two is the
// speedup.
func BenchmarkScale100kSerial(b *testing.B) {
	benchScale100k(b, 1)
}

func benchScale100k(b *testing.B, shards int) {
	sp, ok := pas.LookupScenario("scale-100k")
	if !ok {
		b.Fatal("scale-100k missing from the registry")
	}
	cfg, err := pas.RunConfigFromScenario(sp, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Protocol = pas.ProtoPAS
	cfg.Shards = shards
	var rep pas.RunReport
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, err = pas.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rep.Detected != 100000 {
		b.Fatalf("detected %d/100000", rep.Detected)
	}
	b.ReportMetric(rep.AvgDelay, "pas-delay-s")
}

// BenchmarkFaultChurn times a 10 000-node PAS run with 20% crash-recovery
// churn and the sink-side liveness tracker on — the fault-injection worst
// case: Fail/Recover events, deaf-window bookkeeping, per-suspect backoff
// timers and the graceful-degradation metrics pass all ride on top of the
// BenchmarkScale10k workload. The gap against BenchmarkScale10k is the total
// cost of the fault subsystem at scale; the fixed seed keeps the memoized
// deployment/topology engaged, and the frozen CSR topology must survive the
// churn (rejoin is a radio-state change, never a recompile).
func BenchmarkFaultChurn(b *testing.B) {
	sp, ok := pas.LookupScenario("scale-10k")
	if !ok {
		b.Fatal("scale-10k missing from the registry")
	}
	sp.Failures = pas.FailureSpec{Churn: &pas.ChurnSpec{Fraction: 0.2, MeanDown: 20, MinDown: 5}}
	sp.Protocol.Liveness = &pas.LivenessConfig{MissK: 3, Interval: 5}
	cfg, err := pas.RunConfigFromScenario(sp, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Protocol = pas.ProtoPAS
	var rep pas.RunReport
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, err = pas.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rep.LiveFraction >= 1 || rep.LiveFraction <= 0 {
		b.Fatalf("live fraction %g: churn did not engage", rep.LiveFraction)
	}
	b.ReportMetric(rep.LiveFraction, "live-frac")
}

func BenchmarkSASSingleRun(b *testing.B) {
	sc, err := pas.ScenarioByName("paper", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pas.Run(pas.RunConfig{Scenario: sc, Protocol: pas.ProtoSAS, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimatorMinETA(b *testing.B) {
	reports := make([]predict.Report, 12)
	for i := range reports {
		reports[i] = predict.Report{
			ID:  pas.NodeID(i),
			Pos: geom.V(float64(i), float64(i%3)),
			State: func() node.State {
				if i%2 == 0 {
					return node.StateCovered
				}
				return node.StateAlert
			}(),
			Velocity: geom.V(0.5, 0.1), HasVelocity: true, HasDirection: true,
			PredictedArrival: float64(20 + i), DetectedAt: float64(10 + i), Detected: i%2 == 0,
			ReceivedAt: float64(15 + i),
		}
	}
	x := geom.V(20, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predict.MinETA(x, 30, reports, 45)
	}
}

// BenchmarkPredictorStep times one Refresh+Announce cycle through every
// registered predictor kind over a small report snapshot — the per-wakeup
// cost a PAS agent pays for its prediction subsystem. The acceptance bar is
// 0 allocs/op: the filters run on fixed-size in-struct state.
func BenchmarkPredictorStep(b *testing.B) {
	reports := make([]predict.Report, 4)
	for i := range reports {
		reports[i] = predict.Report{
			ID:  pas.NodeID(i),
			Pos: geom.V(float64(i), float64(i%3)),
			State: func() node.State {
				if i%2 == 0 {
					return node.StateCovered
				}
				return node.StateAlert
			}(),
			Velocity: geom.V(0.5, 0.1), HasVelocity: true, HasDirection: true,
			PredictedArrival: float64(20 + i), DetectedAt: float64(10 + i), Detected: i%2 == 0,
			ReceivedAt: float64(15 + i),
		}
	}
	for _, k := range predict.Kinds() {
		b.Run(k, func(b *testing.B) {
			var m predict.Model
			m.Init(predict.Spec{Kind: k}, predict.EstimatorConfig{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := 30 + 0.1*float64(i%100)
				m.Refresh(predict.Input{Pos: geom.V(20, 1), Now: now, Reports: reports})
				m.Announce(0.1, now)
			}
		})
	}
}

func BenchmarkExtPredictors(b *testing.B) {
	var res pas.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.ExtPredictors(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastY(res, "radial"), "radial-delay-s")
	b.ReportMetric(lastY(res, "radial rmse (s)"), "radial-rmse-s")
}

func BenchmarkPlumeBuild(b *testing.B) {
	cfg := diffusion.PlumeConfig{
		Bounds:      geom.R(0, 0, 20, 20),
		NX:          32,
		NY:          32,
		Diffusivity: 1.5,
		Source:      geom.V(10, 10),
		Rate:        30,
		Threshold:   0.05,
		Horizon:     30,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diffusion.NewGridPlume(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreDiskHit measures the durable tier's read path: one CRC-
// verified record read from the disk-backed content-addressed store. This is
// the added cost of a restart-surviving cache hit over a memory hit — it must
// stay in the tens of microseconds for the two-tier design to make sense.
func BenchmarkStoreDiskHit(b *testing.B) {
	s, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	body := bytes.Repeat([]byte(`{"k":"v"}`), 40) // ~360 B, a typical response
	if err := s.Put(key, body); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, ok := s.Get(key)
		if !ok || len(got) != len(body) {
			b.Fatal("disk hit failed")
		}
	}
}

// BenchmarkJobSubmit measures the async-job acknowledgment path end to end:
// decode, canonicalize, key, journal append with its fsync (the durability
// price of the 202 promise), and the instant completion of already-stored
// work. Each iteration resubmits the same finished request, so the simulation
// itself is absorbed by the store and the fsync dominates.
func BenchmarkJobSubmit(b *testing.B) {
	srv, err := pas.NewServer(pas.ServeConfig{Version: "bench", StoreDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	body := `{"name":"paper","seed":1}`
	waitDone := func() string {
		for {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
			if rec.Code != http.StatusAccepted {
				b.Fatalf("submit status %d: %s", rec.Code, rec.Body)
			}
			var acc struct {
				ID string `json:"id"`
			}
			json.Unmarshal(rec.Body.Bytes(), &acc)
			for {
				st := httptest.NewRecorder()
				srv.ServeHTTP(st, httptest.NewRequest("GET", "/v1/jobs/"+acc.ID, nil))
				s := st.Body.String()
				if strings.Contains(s, `"state":"done"`) {
					return acc.ID
				}
				if strings.Contains(s, `"state":"failed"`) {
					b.Fatalf("job failed: %s", s)
				}
				// The completion fsync takes milliseconds; pacing the poll
				// keeps the measured allocations stable instead of counting
				// however many hot-spin polls fit into the fsync.
				time.Sleep(500 * time.Microsecond)
			}
		}
	}
	waitDone() // warm: first submission actually simulates
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		waitDone()
	}
}

func BenchmarkResponseCodec(b *testing.B) {
	r := core.Response{
		Pos: geom.V(1, 2), State: node.StateAlert,
		Velocity: geom.V(0.5, 0.25), HasVelocity: true, HasDirection: true,
		PredictedArrival: 42, DetectedAt: 40, Detected: true,
	}
	buf := r.Encode() // pre-grow the reused buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = r.AppendEncode(buf[:0])
		if _, err := core.DecodeResponse(buf); err != nil {
			b.Fatal(err)
		}
	}
}
