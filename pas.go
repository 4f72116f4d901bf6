// Package pas is the public API of the PAS reproduction: Prediction-based
// Adaptive Sleeping for environment-monitoring wireless sensor networks
// (Yang, Xu, Dai, Gu — ICPP Workshops 2007), together with the full
// simulation substrate the paper's evaluation needs (discrete-event kernel,
// Telos energy model, broadcast radio with loss models, diffusion-stimulus
// front models including an advection–diffusion PDE plume, deployment
// generators, the SAS and no-sleeping baselines, and a replicated-experiment
// harness that regenerates every table and figure of the paper).
//
// # Quick start
//
//	sc, _ := pas.ScenarioByName("paper", 1)
//	report, err := pas.Run(pas.RunConfig{
//		Scenario: sc,
//		Protocol: pas.ProtoPAS,
//		Seed:     1,
//	})
//	if err != nil { ... }
//	fmt.Println(report)        // delay/energy/duty summary
//	fmt.Println(report.Table()) // per-node breakdown
//
// # Regenerating the paper
//
//	for _, e := range pas.Experiments() {
//		res, err := e.Run(pas.ExperimentOptions{})
//		...
//		fmt.Println(res.Render())
//	}
//
// # Scenarios
//
// Workloads are declarative: a ScenarioSpec composes a deployment kind
// (uniform / grid / clustered / poisson), field size, node count, radio
// range and loss model, stimulus model (radial / advected / anisotropic /
// multi-source / PDE plume / eikonal terrain), failure injection and
// protocol parameters, and serializes to JSON (Encode/DecodeScenario).
// Scenarios() is the named registry — the paper's Figs. 4–7 workload is its
// first entry, followed by the extension workloads and the production-scale
// grid deployments scale-100 / scale-1k / scale-10k (ScaleScenario(n) for
// arbitrary sizes). RunConfigFromScenario compiles a spec into a RunConfig:
//
//	sp, _ := pas.LookupScenario("scale-10k")
//	cfg, err := pas.RunConfigFromScenario(sp, 1)
//	cfg.Protocol = pas.ProtoPAS
//	report, err := pas.Run(cfg)
//
// The CLIs select specs with -scenario: passim runs one (passim -scenario
// poisson), pasbench sweeps one (pasbench -scenario scale-1k), and the
// ext-scale experiment sweeps the deployment size across 100/1k/10k nodes.
// The 10 000-node runs complete in a fraction of a second: deployment
// generation uses the spatial hash, broadcast delivery walks a frozen CSR
// topology compiled once per deployment (nothing on the run path is O(n²)
// in the node count, or even re-derives per-link geometry per broadcast),
// and BenchmarkScale10k / BenchmarkScale10kColdStart time the warm and cold
// cost.
//
// # Parallel replication
//
// Every (experiment × sweep-point × protocol × seed) cell of the evaluation
// is an independent simulation, and the harness fans cells out across a
// worker pool (internal/runner). ExperimentOptions.Parallelism caps the
// number of runs in flight: 0 (the default) uses one worker per CPU, 1
// reproduces the serial path. Results are merged in cell order, never in
// completion order, so output is bit-identical at any parallelism. The same
// knob is exposed as -parallel on the pasbench and passim CLIs, and as
// ReplicateParallel in this package.
//
// # Serving
//
// cmd/passerve runs the reproduction as a long-lived simulation service: an
// HTTP/JSON daemon (internal/serve, exported here as Server/NewServer) that
// schedules runs on a bounded worker pool and answers repeated questions
// from a content-addressed result store. Determinism is what makes the store
// sound: the same canonical spec and seed always produce byte-identical
// output, so results are keyed by SHA-256 over (code version, endpoint mode,
// canonical spec JSON, seed list) and every spelling of the same workload —
// registry name, inline spec, defaults spelled out — shares one cache line.
// CanonicalScenario produces that canonical encoding (sorted keys, defaults
// materialized, kind-irrelevant fields zeroed) and ScenarioHash its content
// hash. Sync requests and async jobs take one execution path: a store
// lookup, then a by-key index of in-flight computations, so concurrent
// requests for one key — sync or async — share one simulation, which runs
// until its last waiter leaves. Only a new computation takes one of the
// bounded admission slots, and a request or job needing one beyond them is
// rejected with 429; a sync request waits under its deadline (504 on
// expiry). Every 4xx/5xx body is {"code","error"} with a small stable code
// vocabulary (bad_request, not_found, saturated, deadline, panic, internal,
// not_ready, job_failed, draining) so callers branch on codes, never on
// message text:
//
//	POST /v1/runs          {"name":"paper","seed":1}         one simulation
//	POST /v1/replicate     {"name":"paper","seeds":[1,2,3]}  seed aggregate
//	POST /v1/jobs          {"mode":"run","name":...}         202 + job id
//	GET  /v1/jobs/{id}     (?stream=1 for NDJSON progress)   state + progress
//	GET  /v1/jobs/{id}/result                                completed body
//	GET  /v1/scenarios                                       registry + hashes
//	GET  /v1/stats                                           hits, p50/p99, durability
//	GET  /v1/healthz                                         liveness
//
// With ServeConfig.StoreDir set the store is durable: results live in a
// disk-backed content-addressed store under the in-memory LRU (X-Cache says
// hit-mem, hit-disk or miss), written atomically (temp file, fsync, rename)
// in a CRC-framed record format, and a restart's recovery scan adopts intact
// records and quarantines torn ones. Async jobs are journaled: POST /v1/jobs
// fsyncs a submit entry to a write-ahead journal before the 202 is sent, so
// an acknowledged job survives a crash — on restart the journal replays and
// incomplete jobs re-execute, and determinism guarantees the recovered body
// is byte-identical to what the crashed process would have served. A
// SIGTERM'd daemon drains instead: in-flight jobs finish, terminal entries
// and the store are fsynced, and the restarted daemon has nothing to replay.
// Graceful shutdown degrades to crash recovery, never to lost work.
//
// The Go client for all of this is exported as Client/NewClient (internal/
// client): typed APIError with the server's code vocabulary, per-attempt
// timeouts, capped exponential backoff with full jitter that honors
// Retry-After, idempotency-keyed job submission (retrying a submit cannot
// double-run work), a consecutive-failure circuit breaker, and job helpers
// (SubmitJob/WaitJob/JobResult, or RunJob for the whole round trip).
//
// Cancellation plumbs all the way into the event kernel: RunContext,
// ReplicateContext and ReplicateParallelContext stop after the window in
// which their context dies — a 128th of the horizon on one kernel, one
// conservative window on two or more — and produce byte-identical results
// to the context-free forms when left to finish. Progress rides the same channel in
// reverse: WithRunProgress derives a context whose simulation reports
// (now, horizon) advance through virtual time — hooks fire from the run
// orchestration goroutine, never inside an event handler, so an observed run
// is byte-identical to an unobserved one. The serving layer uses it to
// stream per-window progress for queued jobs (GET /v1/jobs/{id}?stream=1).
//
// # Robustness
//
// internal/fault is a deterministic fault-injection subsystem. A
// FailureSpec declares the fault taxonomy: crash-stop kills (uniform, or
// time-windowed via From/By and spatially clustered via ClusterRadius),
// crash-recovery churn (ChurnSpec — nodes go dark and rejoin in place; the
// frozen CSR topology is reused, never recompiled, and a rebooting radio
// stays deaf to transmissions begun while it was down), sensor
// miscalibration (SensorSpec — additive detection drift, stuck-at readings
// frozen at a random onset, burst noise forcing spurious detections) and
// radio degradation windows (DegradationSpec — a time-bounded extra drop
// probability layered over the channel model without disturbing its own
// draws). FailureSpec.Normalized materializes its window defaults and drops
// disabled models; it is the one definition both the scenario canonical form
// and CompileFaults (which turns a spec into the FaultPlan of
// RunConfig.Faults) use. Every draw comes from named rng streams ("failures"
// for the legacy uniform kill — byte-compatible with the pre-fault harness —
// plus fault/crash, fault/churn, fault/sensor and fault/degrade), so faulted
// runs stay byte-identical serial vs parallel. A spec using only
// Fraction/By takes the exact legacy code path and preserves old goldens.
//
// The PAS/SAS agents embed an optional sink-side liveness tracker
// (Config.Liveness, a LivenessConfig, which is also the type of a scenario's
// protocol.liveness section): a peer silent for MissK report intervals
// turns suspect and is re-probed with capped exponential backoff
// (BackoffInit doubling up to BackoffMax) until MaxProbes probes go
// unanswered, then it is declared dead; a later message resurrects it.
// Metrics gains the graceful-degradation measures (live coverage fraction,
// stale-read age at declaration, false-dead declarations, re-probe count and
// energy) and the ext-faults experiment sweeps a combined churn ×
// miscalibration × degradation severity against NS/PAS/SAS. Its golden
// trace regenerates like the others:
//
//	go test ./internal/experiment -run 'TestGoldenTraces/ext-faults' -update
//
// # Prediction
//
// The PAS agent's arrival prediction is a plugin (internal/predict): the
// agent embeds a predict.Model by value and delegates velocity tracking, ETA
// estimation and the report gate to it, so the prediction model is selectable
// per run without touching protocol code. The registry ships six kinds:
//
//   - "paper" (the default) publishes the raw §3.3 estimator reading —
//     byte-identical to every pre-predictor release; all goldens pin this.
//   - "lms" adapts a two-tap normalized LMS linear predictor (step size Mu)
//     over successive arrival readings.
//   - "ewma" exponentially smooths the reading (weight Alpha).
//   - "ar" fits an AR(k) model (Order ≤ 4) over a sliding window by
//     ridge-stabilized least squares.
//   - "kalman" runs a scalar random-walk Kalman filter (ProcessVar,
//     MeasureVar).
//   - "switching" runs the whole portfolio and publishes the arm with the
//     best exponentially discounted one-step error — and implements the
//     dual-prediction scheme: a report is suppressed while the model's
//     prediction stays within Tolerance of the raw reading, since neighbours
//     running the same model reconstruct it on their own (+Inf tolerance
//     suppresses every report).
//
// Every predictor is zero-alloc on the step path (fixed-size ring buffers,
// state embedded in the agent slab; the predict alloc tests pin 0
// allocs/op). Selection is scenario-addressable — ProtocolSpec's predictor
// section is a PredictorConfig, the type PASConfig.Predictor takes too
// (-predictor on passim/pasbench) — and canonicalization-aware: a spec
// without a predictor section, or with an explicit default one, keeps its
// pre-predictor content hash. Metrics gains the prediction-quality measures
// (arrival RMSE over detecting nodes, report suppressions, max staleness)
// and ext-predictors sweeps the portfolio inside PAS against the NS/SAS
// brackets on both the analytic radial front and the PDE plume.
//
// # Performance
//
// The run path is engineered for zero steady-state allocations and no
// re-derived geometry, because kernel and channel overhead tax every cell
// the replication engine fans out:
//
//   - internal/sim is an arena-based discrete-event kernel: events live in a
//     flat slice recycled through a freelist, the priority queue is a 4-ary
//     heap of 16-byte {time, slot} entries (no container/heap interface
//     boxing; a sift compares times inside the heap array and reads an
//     event's sequence number only on an exact time tie), and EventIDs are
//     generation-tagged so Cancel is an O(1) stamp check with lazy removal
//     at pop. Events can carry an argument (ScheduleArgAt), so
//     batched subsystems schedule one long-lived handler against pooled
//     records instead of a closure per event; sim.Timer re-arms through a
//     shared trampoline (and ResetArg makes re-arms entirely closure-free).
//     Steady-state Schedule/Step/Cancel and Timer re-arms allocate nothing;
//     regression tests pin 0 allocs/op.
//   - internal/radio freezes the topology: deployments are static, so on
//     the first broadcast the medium compiles its spatial hash into a CSR
//     adjacency (radio.Topology — per node, the in-range receivers in
//     ascending ID order with precomputed link distances) and every
//     broadcast walks one flat row instead of scanning hash buckets.
//     Delivery is batched: each broadcast is ONE kernel event fanning out
//     from a pooled delivery record sized exactly to its CSR row, and every
//     message travels as a value-dispatch radio.Envelope (a small
//     pointer-free tagged union). A full broadcast→delivery cycle —
//     including a nested rebroadcast from inside a delivery — allocates
//     nothing (the radio alloc tests pin 0 allocs/op). AddNode after the
//     freeze recompiles the topology on the next broadcast. The medium keeps
//     its endpoints in one table indexed by node ID, and each endpoint
//     carries a listening bit that the node sets whenever it sleeps, wakes,
//     fails or recovers, so a fan-out target that is asleep (the common case
//     under PAS) costs one load, not a call into the node.
//   - Construction is slab-allocated: the network builder carves nodes,
//     radio endpoints and protocol agents from per-network slabs, meters
//     and timers are embedded by value, and protocol callbacks are
//     package-level arg handlers bound to the agent, so building a
//     1 000-node network costs about 38 allocations in all, not one per
//     node (BenchmarkNetworkConstruction tracks the build-only cost). A
//     random stream's generator is built and seeded on its first draw, so a
//     run pays nothing for a stream it never draws from (a unit-disk channel
//     without CSMA).
//   - Each PAS or SAS agent keeps its neighbour reports in one
//     predict.Table, sorted by ID, and hands it to the predictor as is:
//     a RESPONSE replaces its sender's entry in place, and a refresh reads
//     the table with no map, copy or sort. The §3.3 arrival estimate takes
//     |v_I| and |I→X| once each per report and derives cos θ from them.
//   - internal/experiment memoizes deployments AND their compiled
//     topologies: every cell sharing (seed, field, nodes, range, loss
//     range) reuses one immutable deployment and one CSR compilation
//     instead of re-deriving both per protocol × seed
//     (BenchmarkScale10kColdStart measures the memoization-free worst
//     case).
//   - The event kernel shards across cores without changing a single output
//     bit, through the one builder and run loop every run takes (a serial
//     run is a one-shard run: one kernel, one medium, no goroutine and no
//     barrier): RunConfig.Shards ≥ 2 (passim -shards N) partitions the
//     deployment into contiguous spatial strips over the frozen CSR
//     topology, gives each strip its own arena kernel and medium, and
//     advances all shards in lockstep conservative windows. The per-hop
//     lookahead is W = TxTime(minWire), the shortest possible on-air
//     transmission: an event at a node c radio hops inside its strip cannot
//     influence another shard sooner than (c+1)·W after it, so a window
//     ends at the earliest such instant over all pending events (the hop
//     classes come from one breadth-first search over the frozen topology).
//     PAS keeps nodes far from the front asleep, so most events sit many
//     hops from a strip edge: scale-10k on two shards runs about 14 events
//     per window instead of under three at a flat W. The calling goroutine
//     runs shard 0 itself and one goroutine runs each other shard.
//     Cross-shard deliveries are staged as boundary events and exchanged at
//     window barriers, and a per-window sequence merge
//     (internal/sim.ShardGroup) reconstructs the exact serial event order,
//     so a sharded run is bit-identical to the serial kernel at ANY shard
//     count — same RunReport, same per-node table, same golden traces (the
//     byte-identity tests pin 1, 2, 3, 4 and 8 shards against serial on a
//     full scale-1k run). One shard runs every config; two or more require
//     the deterministic transmit path: exact unit-disk loss, no collisions,
//     no CSMA, no fault plan (experiment.Shardable gates, with a clear
//     error).
//     scale-100k and scale-1m join the scenario registry as the workloads
//     this enables; BenchmarkScale100k (4 shards) times the headline, with
//     BenchmarkScale100kSerial as its 1-shard speedup reference.
//
// Determinism is pinned by golden-trace snapshots
// (internal/experiment/testdata/golden): fresh serial and 8-way-parallel
// runs of fig4, ext-plume, ext-lifetime, ext-lossy-csma (the
// imperfect-channel + collisions + CSMA workload, so every consumer of
// channel randomness is trace-pinned against the frozen CSR rows), ext-faults
// (churn, miscalibration, degradation and liveness probing) and
// ext-predictors (every filter arm's numerics) must match the committed
// output byte-for-byte; regenerate intentionally with
// `go test ./internal/experiment -run TestGoldenTraces -update`.
//
// To profile a hot path, run the harness under pprof directly:
//
//	pasbench -exp fig4 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
//
// Scale is bounded by int32 indexing in the hot structures — CSR point and
// edge counts (internal/geom) and kernel arena slots (internal/sim) — and
// each bound is enforced by a loud panic at the exact overflow point rather
// than silent wraparound; capacity-guard tests pin every guard path. A
// scale-1m run fits comfortably (~1M nodes, ~30M directed CSR edges against
// the 2^31 ceilings).
//
// Allocation counts are gated by ordinary tests, which fail on a
// regression: AllocsPerRun tests in each package pin the 0-alloc paths
// (kernel dispatch, radio fan-out, predictor step, codecs) exactly, and the
// root package's alloc_test.go holds the end-to-end paths (PAS, SAS and
// churn runs, a 1k-node build, a scale-10k run, the runner pool, a served
// cache hit, a store read) to ceilings. `go test -run Allocs ./...` runs
// them all. Timing belongs to the repository benchmark in perfbench/ (its
// workloads are listed in BENCHMARK.json), which reports wall time scaled to
// a fixed host speed; the Benchmark* functions remain as pprof entry points.
//
// # Module layout
//
// The module is named repro. The public API lives in this root package;
// cmd/passim (single runs), cmd/pasbench (figure regeneration), cmd/pasviz
// (ASCII animation) and cmd/passerve (the simulation service) are the CLIs;
// examples/ holds runnable walkthroughs, and perfbench/ is the repository
// benchmark, a nested module of its own. The simulation substrate is under
// internal/: sim (event kernel), node/radio/energy (the mote model),
// core/sas/baseline (the protocols), diffusion/geom (stimulus front models),
// deploy, rng, metrics, stats, contour, trace, runner (the parallel
// replication engine) and serve (the HTTP service) — experiment ties them
// into the replicated harness.
//
// # Local verification
//
// CI (.github/workflows/ci.yml) runs exactly these commands; run them
// locally before sending a change:
//
//	go build ./...
//	go vet ./...
//	gofmt -l .          # must print nothing
//	go test -run Allocs ./...   # allocation ceilings (compiled out under -race)
//	go test -race ./...
//	go test -run '^$' -bench=. -benchtime=1x ./...   # quick bench smoke
//
// Lower-level building blocks (custom stimuli, hand-wired networks, custom
// agents) are exposed through the type aliases below; see the examples/
// directory for runnable walkthroughs.
package pas

import (
	"context"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/client"
	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/diffusion"
	"repro/internal/energy"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/predict"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sas"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Protocol identifiers accepted by RunConfig.Protocol.
const (
	ProtoPAS  = experiment.ProtoPAS
	ProtoSAS  = experiment.ProtoSAS
	ProtoNS   = experiment.ProtoNS
	ProtoDuty = experiment.ProtoDuty
)

// Core geometry and scenario types.
type (
	// Vec2 is a 2-D point/vector in metres.
	Vec2 = geom.Vec2
	// Rect is an axis-aligned field rectangle.
	Rect = geom.Rect
	// Scenario bundles a stimulus with its field and horizon.
	Scenario = diffusion.Scenario
	// Stimulus is the phenomenon interface (coverage + ground truth).
	Stimulus = diffusion.Stimulus
	// FrontModel adds boundary/velocity queries to a stimulus.
	FrontModel = diffusion.FrontModel
)

// V constructs a Vec2.
func V(x, y float64) Vec2 { return geom.V(x, y) }

// R constructs a Rect from two corners.
func R(x0, y0, x1, y1 float64) Rect { return geom.R(x0, y0, x1, y1) }

// Protocol configuration types.
type (
	// PASConfig holds the PAS tunables (alert threshold, sleep ramp, ...).
	PASConfig = core.Config
	// SASConfig holds the SAS baseline tunables.
	SASConfig = sas.Config
	// EnergyProfile is the hardware power model (paper Table 1).
	EnergyProfile = energy.Profile
)

// DefaultPASConfig returns the reproduction's PAS defaults.
func DefaultPASConfig() PASConfig { return core.DefaultConfig() }

// DefaultSASConfig returns the SAS defaults (mirroring PAS where shared).
func DefaultSASConfig() SASConfig { return sas.DefaultConfig() }

// Telos returns the Telos mote power profile of the paper's Table 1.
func Telos() EnergyProfile { return energy.Telos() }

// Simulation-running types.
type (
	// RunConfig describes one simulation run (scenario, protocol, seed,
	// channel model, failure injection).
	RunConfig = experiment.RunConfig
	// RunReport is the collected outcome of one run.
	RunReport = metrics.RunReport
	// NodeReport is the per-node slice of a RunReport.
	NodeReport = metrics.NodeReport
	// Aggregate accumulates headline metrics across replicated runs.
	Aggregate = metrics.Aggregate
)

// Run executes one simulation and returns its metrics.
func Run(cfg RunConfig) (RunReport, error) { return experiment.RunOnce(cfg) }

// RunContext is Run with cooperative cancellation: the context is checked
// before the network builds and after every window while the simulation
// runs, so a cancelled or expired context stops the run within a fraction of
// its horizon. A run left to complete is byte-identical to Run.
func RunContext(ctx context.Context, cfg RunConfig) (RunReport, error) {
	return experiment.RunOnceContext(ctx, cfg)
}

// Replicate runs cfg once per seed and aggregates the headline metrics.
// Replication is serial; ReplicateParallel fans the runs out.
func Replicate(cfg RunConfig, seeds []int64) (Aggregate, error) {
	return experiment.Replicate(cfg, seeds)
}

// ReplicateContext is Replicate with cooperative cancellation between (and
// inside) the per-seed runs.
func ReplicateContext(ctx context.Context, cfg RunConfig, seeds []int64) (Aggregate, error) {
	return experiment.ReplicateContext(ctx, cfg, seeds)
}

// ReplicateParallel runs cfg once per seed across a worker pool
// (parallelism <= 0 means one worker per CPU, 1 is serial) and folds the
// reports in seed order, so the aggregate is bit-identical to Replicate at
// any parallelism.
func ReplicateParallel(cfg RunConfig, seeds []int64, parallelism int) (Aggregate, error) {
	return experiment.ReplicateParallel(cfg, seeds, parallelism)
}

// ReplicateParallelContext is ReplicateParallel with cooperative
// cancellation: the pool stops claiming seeds once ctx dies and in-flight
// runs stop after their current window.
func ReplicateParallelContext(ctx context.Context, cfg RunConfig, seeds []int64, parallelism int) (Aggregate, error) {
	return experiment.ReplicateParallelContext(ctx, cfg, seeds, parallelism)
}

// Seeds returns n deterministic replication seeds (1..n).
func Seeds(n int) []int64 { return experiment.DefaultSeeds(n) }

// Experiment-harness types.
type (
	// Experiment is one regenerable paper table/figure or extension.
	Experiment = experiment.Experiment
	// ExperimentOptions tunes replication and sweep size.
	ExperimentOptions = experiment.Options
	// ExperimentResult is a regenerated figure: curves + notes.
	ExperimentResult = experiment.Result
)

// Experiments returns the full registry (paper figures + extensions).
func Experiments() []Experiment { return experiment.All() }

// LookupExperiment finds a registry entry by ID (e.g. "fig4").
func LookupExperiment(id string) (Experiment, bool) { return experiment.Lookup(id) }

// Declarative scenario specs (the scenario registry).
type (
	// ScenarioSpec is a declarative, JSON-serializable workload: deployment
	// kind, field, node count, radio range and loss model, stimulus model,
	// failure injection and protocol parameters. Scenarios() lists the named
	// registry; RunConfigFromScenario compiles a spec into a RunConfig.
	ScenarioSpec = scenario.Scenario
	// DeploymentSpec selects a deployment generator (uniform, grid,
	// clustered, poisson); the zero value is the paper's connected-uniform
	// draw.
	DeploymentSpec = scenario.DeploymentSpec
	// RadioSpec describes the channel (range, loss model, collisions, CSMA).
	RadioSpec = scenario.RadioSpec
	// StimulusSpec declaratively describes a stimulus (radial, advected,
	// anisotropic, multi-source, PDE plume, eikonal terrain).
	StimulusSpec = scenario.StimulusSpec
	// FailureSpec declares fault injection: the legacy uniform crash-stop
	// kill (Fraction/By), time-windowed and spatially-clustered kills
	// (From/ClusterRadius), and the extended models below.
	FailureSpec = fault.FailureSpec
	// ChurnSpec takes nodes dark for a while and rejoins them in place
	// (crash-recovery churn).
	ChurnSpec = fault.ChurnSpec
	// SensorSpec miscalibrates sensors: additive detection drift, stuck-at
	// readings and burst noise.
	SensorSpec = fault.SensorSpec
	// DegradationSpec layers a time-bounded extra loss probability on the
	// radio channel.
	DegradationSpec = fault.DegradationSpec
	// ProtocolSpec optionally pins the protocol and its headline tunables;
	// its liveness section is a LivenessConfig and its predictor section a
	// PredictorConfig.
	ProtocolSpec = scenario.ProtocolSpec
)

// Arrival prediction (internal/predict).
type (
	// PredictorConfig selects and tunes the PAS arrival predictor
	// (PASConfig.Predictor, or a scenario's protocol.predictor section); the
	// zero value is the paper estimator. Kinds: "paper", "lms", "ewma",
	// "ar", "kalman", "switching".
	PredictorConfig = predict.Spec
	// PredictionStats snapshots a predictor's per-run quality counters
	// (squared arrival error, report suppressions, staleness).
	PredictionStats = predict.Stats
)

// PredictorKinds lists the registered predictor kinds in registry order
// ("paper" first).
func PredictorKinds() []string { return predict.Kinds() }

// DescribePredictor returns a one-line summary of a predictor kind ("" means
// the default) and whether the kind is known.
func DescribePredictor(kind string) (string, bool) { return predict.Describe(kind) }

// Fault injection (internal/fault).
type (
	// FaultPlan is a compiled fault schedule: pure data shared across
	// replicated runs, applied to a built network with per-run randomness.
	FaultPlan = fault.Plan
	// LivenessConfig tunes the sink-side peer liveness tracker embedded in
	// the PAS/SAS configs (Config.Liveness, or a scenario's
	// protocol.liveness section); the zero value disables it.
	LivenessConfig = fault.LivenessConfig
	// LivenessStats snapshots a tracker: probe count, probe energy and the
	// death declarations.
	LivenessStats = fault.LivenessStats
)

// CompileFaults normalizes a FailureSpec into a FaultPlan against the
// given horizon; assign it to RunConfig.Faults. RunConfigFromScenario does
// this for scenario specs with extended fault models.
func CompileFaults(f FailureSpec, horizon float64) *FaultPlan {
	return fault.Compile(f, horizon)
}

// Scenarios returns the named scenario registry: the paper's Figs. 4–7
// workload first, then the extension workloads, the structured-deployment
// showcases and the production-scale (scale-100/1k/10k) deployments.
func Scenarios() []ScenarioSpec { return scenario.All() }

// LookupScenario finds a registry scenario by name (e.g. "paper",
// "scale-10k").
func LookupScenario(name string) (ScenarioSpec, bool) { return scenario.Lookup(name) }

// ScaleScenario returns the production-scale grid scenario with n nodes at
// the paper's deployment density.
func ScaleScenario(n int) ScenarioSpec { return scenario.Scale(n) }

// DecodeScenario parses and validates a JSON scenario spec (the format
// written by ScenarioSpec.Encode); unknown fields are rejected.
func DecodeScenario(data []byte) (ScenarioSpec, error) { return scenario.Decode(data) }

// RunConfigFromScenario compiles a scenario spec into a run config; seed
// parameterizes the stochastic stimuli and the deployment draw. Protocol and
// tunables may still be overridden on the result.
func RunConfigFromScenario(sp ScenarioSpec, seed int64) (RunConfig, error) {
	return experiment.FromScenario(sp, seed)
}

// ScenarioSweepExperiment builds an on-the-fly experiment running the
// standard maximum-sleep sweep (NS/PAS/SAS, delay and energy) over a named
// registry scenario — the engine behind `pasbench -scenario`.
func ScenarioSweepExperiment(name string) (Experiment, error) {
	return experiment.ScenarioSweep(name)
}

// ScenarioSweepPredictorExperiment is ScenarioSweepExperiment with the PAS
// arrival predictor pinned to the named kind ("" keeps the scenario's own) —
// the engine behind `pasbench -scenario -predictor`.
func ScenarioSweepPredictorExperiment(name, predictor string) (Experiment, error) {
	return experiment.ScenarioSweepPredictor(name, predictor)
}

// CanonicalScenario returns the spec's canonical JSON encoding: validated,
// defaults materialized, kind-irrelevant fields zeroed, keys sorted. Two
// specs describing the same simulation canonicalize to identical bytes —
// the basis of the serving layer's content-addressed result store.
func CanonicalScenario(sp ScenarioSpec) ([]byte, error) { return scenario.Canonical(sp) }

// ScenarioHash returns the hex SHA-256 of the spec's canonical encoding —
// the content hash GET /v1/scenarios lists and the run/replicate cache keys
// build on.
func ScenarioHash(sp ScenarioSpec) (string, error) { return scenario.Hash(sp) }

// ScenarioNames lists the registry scenarios accepted by ScenarioByName and
// the CLIs' -scenario flags.
func ScenarioNames() []string { return scenario.Names() }

// ScenarioByName resolves a registry scenario by name and builds its
// stimulus; seed parameterizes the stochastic ones (irregular). The empty
// name means "paper". Callers that also want the scenario's deployment,
// channel and protocol sections should use LookupScenario +
// RunConfigFromScenario instead.
func ScenarioByName(name string, seed int64) (Scenario, error) {
	if name == "" {
		name = "paper"
	}
	sp, ok := scenario.Lookup(name)
	if !ok {
		return Scenario{}, fmt.Errorf("pas: unknown scenario %q (one of %v)", name, ScenarioNames())
	}
	return sp.BuildStimulus(seed)
}

// Stimulus constructors for custom scenarios.

// NewRadialFront grows a disc from origin at speed (m/s) starting at start.
func NewRadialFront(origin Vec2, speed, start float64) FrontModel {
	return diffusion.NewRadialFront(origin, speed, start)
}

// NewAdvectedFront grows a disc that also drifts with the wind.
func NewAdvectedFront(origin Vec2, growth float64, drift Vec2, start float64) FrontModel {
	return diffusion.NewAdvectedFront(origin, growth, drift, start)
}

// TerrainFrontConfig parameterizes a heterogeneous-terrain front: a speed
// map sampled per grid cell, solved for first arrivals with fast marching.
type TerrainFrontConfig = diffusion.TerrainConfig

// NewTerrainFront solves the eikonal equation over the config's speed map
// and returns the queryable front (speeds ≤ 0 are impassable barriers).
func NewTerrainFront(cfg TerrainFrontConfig) (FrontModel, error) {
	return diffusion.NewTerrainFront(cfg)
}

// Low-level network types for hand-wired simulations and custom agents.
type (
	// Network is a wired, runnable sensor field.
	Network = node.Network
	// NetworkConfig assembles a network from a deployment and agents.
	NetworkConfig = node.NetworkConfig
	// Node is one simulated mote.
	Node = node.Node
	// Agent is the protocol personality plugged into a node.
	Agent = node.Agent
	// NodeState is the protocol state (safe/alert/covered).
	NodeState = node.State
	// NodeID identifies a node on the radio medium.
	NodeID = radio.NodeID
	// Deployment is a set of node positions over a field.
	Deployment = deploy.Deployment
	// LossModel decides per-link packet delivery.
	LossModel = radio.LossModel
	// UnitDisk is the paper's channel model.
	UnitDisk = radio.UnitDisk
	// LossyDisk drops packets uniformly at random within range.
	LossyDisk = radio.LossyDisk
	// DistanceFalloff models the transitional reception region.
	DistanceFalloff = radio.DistanceFalloff
)

// Node states.
const (
	StateSafe    = node.StateSafe
	StateAlert   = node.StateAlert
	StateCovered = node.StateCovered
)

// BuildNetwork wires a deployment, stimulus and agents into a runnable
// network.
func BuildNetwork(cfg NetworkConfig) *Network { return node.BuildNetwork(cfg) }

// NewPASAgent constructs a PAS protocol agent.
func NewPASAgent(cfg PASConfig) Agent { return core.New(cfg) }

// NewSASAgent constructs a SAS baseline agent.
func NewSASAgent(cfg SASConfig) Agent { return sas.New(cfg) }

// NewNSAgent constructs the always-on baseline agent.
func NewNSAgent() Agent { return baseline.NewNS() }

// NewDutyCycleAgent constructs the fixed duty-cycling strawman.
func NewDutyCycleAgent(period, onTime float64) Agent {
	return baseline.NewDutyCycle(period, onTime)
}

// CollectMetrics builds a RunReport from a finished network.
func CollectMetrics(nodes []*Node, horizon float64) RunReport {
	return metrics.Collect(nodes, horizon)
}

// UniformDeployment draws a connected uniform deployment (panics when the
// field/range/count combination cannot connect within maxAttempts).
func UniformDeployment(seed int64, field Rect, n int, radioRange float64, maxAttempts int) *Deployment {
	st := rng.NewSource(seed).Stream("deploy")
	return deploy.ConnectedUniform(st, field, n, radioRange, maxAttempts)
}

// GridDeployment places nodes on a jittered lattice.
func GridDeployment(seed int64, field Rect, nx, ny int, jitter float64) *Deployment {
	st := rng.NewSource(seed).Stream("deploy")
	return deploy.Grid(st, field, nx, ny, jitter)
}

// RenderField draws a Fig. 2-style ASCII snapshot of the field at time t.
func RenderField(field Rect, stim Stimulus, nodes []*Node, t float64, w, h int) string {
	return trace.RenderField(field, stim, nodes, t, w, h)
}

// StateLog records node state transitions for post-run inspection.
type StateLog = trace.StateLog

// Covered-area estimation (the monitoring system's deliverable).
type (
	// ContourEstimator aggregates detection reports into covered-area
	// estimates (attach it to a network's nodes before running).
	ContourEstimator = contour.Estimator
	// AreaReport scores an area estimate against ground truth.
	AreaReport = contour.AreaReport
)

// ContourAreaError Monte-Carlo-scores an estimated hull against the true
// coverage at time t (seed drives the sampling).
func ContourAreaError(est *ContourEstimator, stim Stimulus, field Rect, t float64, samples int, seed int64) AreaReport {
	st := rng.NewSource(seed).Stream("contour-mc")
	return contour.AreaError(est.EstimateHull(t), stim, field, t, samples, st)
}

// Simulation service (cmd/passerve).
type (
	// ServeConfig tunes the simulation service (workers, queue depth,
	// deadlines, result-store capacity); the zero value serves with
	// defaults.
	ServeConfig = serve.Config
	// Server is the simulation-service HTTP handler: a bounded worker pool
	// over the experiment harness with a content-addressed result store.
	Server = serve.Server
	// ServeStats is the wire shape of GET /v1/stats.
	ServeStats = serve.Stats
)

// NewServer builds the simulation-service handler; mount it on any
// http.Server (cmd/passerve wires listening and graceful shutdown). With
// cfg.StoreDir set the error covers the durable store's recovery scan and
// the job journal replay.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// Streaming run progress (internal/node).
//
// ProgressFunc observes a running simulation's advance through virtual time.
// Hooks fire from the run orchestration goroutine, never from inside an
// event handler, so a progress-observed run is byte-identical to an
// unobserved one.
type ProgressFunc = node.ProgressFunc

// WithRunProgress derives a context whose simulations report progress to fn;
// pass it to RunContext / ReplicateContext (the serving layer uses the same
// hook to stream async-job progress).
func WithRunProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return node.WithProgress(ctx, fn)
}

// Simulation-service client (internal/client).
type (
	// Client is the retrying HTTP client for the simulation service:
	// per-attempt timeouts, capped exponential backoff with full jitter
	// (honoring Retry-After), idempotency-keyed job submission and a
	// consecutive-failure circuit breaker.
	Client = client.Client
	// ClientConfig tunes the client; the zero value (plus BaseURL) is a
	// sensible production client.
	ClientConfig = client.Config
	// APIError is a typed service error carrying the HTTP status and the
	// stable wire code; Transient reports whether a retry can help.
	APIError = client.APIError
	// RunRequest selects a workload by registry name or inline spec, with a
	// seed (runs) or seed list (replicates) and an optional shard hint.
	RunRequest = client.RunRequest
	// JobAccepted is the 202 acknowledgment for an async job.
	JobAccepted = client.JobAccepted
	// JobState reports an async job's state, progress and error code.
	JobState = client.JobStatus
)

// ErrBreakerOpen is returned by Client calls refused locally while its
// circuit breaker cools down.
var ErrBreakerOpen = client.ErrBreakerOpen

// NewClient builds a Client with default retry policy against baseURL; use
// NewClientWithConfig to tune it.
func NewClient(baseURL string) *Client { return client.New(baseURL) }

// NewClientWithConfig builds a Client from an explicit configuration.
func NewClientWithConfig(cfg ClientConfig) *Client { return client.NewWithConfig(cfg) }
