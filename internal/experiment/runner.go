// Package experiment is the reproduction harness: it wires scenarios,
// deployments and protocol agents into replicated simulation runs and
// regenerates every table and figure of the paper's evaluation (§4) plus the
// extension experiments; All lists them. Named workloads come from the
// scenario registry, their one definition.
package experiment

import (
	"context"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sas"
	"repro/internal/scenario"
)

// Protocol names accepted by RunConfig.
const (
	ProtoPAS  = "pas"
	ProtoSAS  = "sas"
	ProtoNS   = "ns"
	ProtoDuty = "duty"
)

// RunConfig describes one simulation run.
type RunConfig struct {
	// Scenario supplies the field, stimulus and horizon.
	Scenario diffusion.Scenario
	// Nodes is the deployment size (0 = the paper's 30). Build rejects a
	// negative count.
	Nodes int
	// Range is the transmission range in metres (the paper uses 10).
	Range float64
	// Deploy selects the deployment generator; the zero value is the
	// paper's connected-uniform draw.
	Deploy scenario.DeploymentSpec
	// Protocol selects the sleeping strategy: pas, sas, ns or duty.
	Protocol string
	// PAS/SAS hold the protocol tunables when the respective protocol runs.
	PAS core.Config
	SAS sas.Config
	// DutyPeriod/DutyOn parameterize the duty-cycling strawman.
	DutyPeriod, DutyOn float64
	// Seed drives deployment, channel and failure randomness.
	Seed int64
	// Loss overrides the channel model (default: unit disk at Range).
	Loss radio.LossModel
	// Collisions enables destructive collision modelling.
	Collisions bool
	// CSMA, when non-nil, enables carrier-sense multiple access.
	CSMA *radio.CSMAConfig
	// FailFraction kills that fraction of nodes at random times in
	// [0, FailBy] (FailBy 0 = the horizon). Build rejects a fraction
	// outside [0, 1] and a negative FailBy.
	FailFraction float64
	FailBy       float64
	// Faults, when non-nil, is a compiled extended fault plan (churn, sensor
	// miscalibration, clustered/windowed crashes, radio degradation) applied
	// after network construction. Nil keeps the exact fault-free (or legacy
	// FailFraction) code path.
	Faults *fault.Plan
	// BatteryJ, when positive, gives every node a finite energy budget in
	// joules; nodes die when they exhaust it (the lifetime experiments).
	BatteryJ float64
	// Shards is how many spatially partitioned kernels run the simulation
	// (see node.BuildShardedNetwork); 0 and 1 both mean one kernel, which is
	// serial execution and accepts every config. Two or more advance under
	// conservative time windows and require a deterministic transmit path —
	// exact unit-disk loss, no collisions, no CSMA, no extended fault plan —
	// or return an error (Shardable reports why), as does a negative count.
	// Output is bit-identical at any shard count; only wall-clock time
	// changes.
	Shards int
}

// Defaults fills zero fields with the paper's §4.2 setup (30 nodes, 10 m
// range, Telos power model, PAS defaults).
func (rc RunConfig) Defaults() RunConfig {
	if rc.Nodes == 0 {
		rc.Nodes = 30
	}
	if rc.Range == 0 {
		rc.Range = 10
	}
	if rc.Protocol == "" {
		rc.Protocol = ProtoPAS
	}
	if rc.PAS == (core.Config{}) {
		rc.PAS = core.DefaultConfig()
	}
	if rc.SAS == (sas.Config{}) {
		rc.SAS = sas.DefaultConfig()
	}
	if rc.DutyPeriod == 0 {
		rc.DutyPeriod = 10
	}
	if rc.DutyOn == 0 {
		rc.DutyOn = 1
	}
	if rc.Scenario.Stimulus == nil {
		rc.Scenario = registryScenario("paper")
	}
	return rc
}

// registryScenario builds the stimulus of a named registry workload, the one
// definition of every named scenario. Only a registry bug can make the build
// fail (the scenario tests build every entry), so it panics.
func registryScenario(name string) diffusion.Scenario {
	sp, _ := scenario.Lookup(name)
	sc, err := sp.BuildStimulus(0)
	if err != nil {
		panic(fmt.Sprintf("experiment: registry scenario %q: %v", name, err))
	}
	return sc
}

// agents returns the per-node agent factory for the configured protocol.
// The PAS/SAS factories carve agents from one slab sized to the deployment,
// so a 10k-node network costs one agent allocation instead of 10k.
func (rc RunConfig) agents() (func(radio.NodeID) node.Agent, error) {
	switch rc.Protocol {
	case ProtoPAS:
		slab := core.NewSlab(rc.PAS, rc.Nodes)
		return func(radio.NodeID) node.Agent { return slab() }, nil
	case ProtoSAS:
		slab := sas.NewSlab(rc.SAS, rc.Nodes)
		return func(radio.NodeID) node.Agent { return slab() }, nil
	case ProtoNS:
		return func(radio.NodeID) node.Agent { return baseline.NewNS() }, nil
	case ProtoDuty:
		period, on := rc.DutyPeriod, rc.DutyOn
		return func(radio.NodeID) node.Agent { return baseline.NewDutyCycle(period, on) }, nil
	default:
		return nil, fmt.Errorf("experiment: unknown protocol %q", rc.Protocol)
	}
}

// Build assembles the network for a run config on max(rc.Shards, 1) kernels
// without running it, so callers can attach observers (contour estimators,
// state logs) before the simulation starts. It returns the network and the
// defaulted config. The construction-time draws below (failures, fault
// plans) happen in global node order before the run starts, so the shard
// count cannot change them.
func Build(rc RunConfig) (*node.Network, RunConfig, error) {
	rc = rc.Defaults()
	if rc.Nodes < 0 {
		return nil, rc, fmt.Errorf("experiment: negative node count %d", rc.Nodes)
	}
	if err := Shardable(rc); err != nil {
		return nil, rc, err
	}
	failures := fault.FailureSpec{Fraction: rc.FailFraction, By: rc.FailBy}
	if err := failures.Validate(); err != nil {
		return nil, rc, fmt.Errorf("experiment: %w", err)
	}
	agents, err := rc.agents()
	if err != nil {
		return nil, rc, err
	}
	src := rng.NewSource(rc.Seed)
	// Deployments are memoized: every cell sharing (seed, field, nodes,
	// range, deployment spec) reuses one immutable deployment instead of
	// re-running the generator (see depcache.go).
	dep := cachedDeployment(rc.Seed, rc.Scenario.Field, rc.Nodes, rc.Range, rc.Deploy, 2000)
	loss := rc.Loss
	if loss == nil {
		loss = radio.UnitDisk{Range: rc.Range}
	}
	// Radio degradation wraps the loss model per run (the wrapper holds a
	// per-run stream and clock); MaxRange delegates to the base model, so the
	// memoized topology below is shared with undegraded cells.
	var degraded *fault.DegradedLoss
	if rc.Faults != nil && rc.Faults.Spec.Radio != nil {
		degraded = fault.NewDegradedLoss(loss, *rc.Faults.Spec.Radio, src.Stream("fault/degrade"))
		loss = degraded
	}
	// The CSR connectivity is memoized alongside the deployment: every cell
	// sharing (deployment, loss range) hands the medium one precompiled
	// topology instead of re-freezing it per protocol × seed (see
	// depcache.go).
	topo := cachedTopology(dep, loss.MaxRange())
	nw := node.BuildShardedNetwork(node.NetworkConfig{
		Deployment:    dep,
		Stimulus:      rc.Scenario.Stimulus,
		Profile:       energy.Telos(),
		Loss:          loss,
		Agents:        agents,
		ChannelStream: src.Stream("channel"),
		Collisions:    rc.Collisions,
		CSMA:          rc.CSMA,
		Topology:      topo,
	}, max(rc.Shards, 1), minWireBytes)
	if rc.BatteryJ > 0 {
		for _, n := range nw.Nodes {
			n.SetBattery(rc.BatteryJ)
		}
	}
	if rc.FailFraction > 0 {
		// The legacy uniform kill: the crash plan's "failures" stream.
		fault.Compile(failures, rc.Scenario.Horizon).Apply(src, nw.Nodes)
	}
	if degraded != nil {
		degraded.Bind(nw.Kernel)
	}
	if rc.Faults != nil {
		rc.Faults.Apply(src, nw.Nodes)
	}
	return nw, rc, nil
}

// RunOnce executes one simulation and collects its metrics.
func RunOnce(rc RunConfig) (metrics.RunReport, error) {
	return RunOnceContext(context.Background(), rc)
}

// RunOnceContext is RunOnce with cooperative cancellation: the context is
// checked before the network is built and after every window while the
// simulation runs (node.Network.RunContext), so a cancelled or expired
// request stops within a fraction of the run instead of completing it. A
// run left to finish is byte-identical to RunOnce.
func RunOnceContext(ctx context.Context, rc RunConfig) (metrics.RunReport, error) {
	if err := ctx.Err(); err != nil {
		return metrics.RunReport{}, err
	}
	nw, rc, err := Build(rc)
	if err != nil {
		return metrics.RunReport{}, err
	}
	if _, err := nw.RunContext(ctx, rc.Scenario.Horizon); err != nil {
		return metrics.RunReport{}, err
	}
	return metrics.Collect(nw.Nodes, rc.Scenario.Horizon), nil
}

// Replicate runs the config once per seed and aggregates the headline
// metrics. Replication is serial; ReplicateParallel fans the runs out.
func Replicate(rc RunConfig, seeds []int64) (metrics.Aggregate, error) {
	return ReplicateParallel(rc, seeds, 1)
}

// ReplicateContext is Replicate with cooperative cancellation between (and
// inside) the per-seed runs.
func ReplicateContext(ctx context.Context, rc RunConfig, seeds []int64) (metrics.Aggregate, error) {
	return ReplicateParallelContext(ctx, rc, seeds, 1)
}

// ReplicateParallel runs the config once per seed across a pool of
// parallelism workers (non-positive means one per CPU) and folds the
// reports in seed order, so the aggregate is bit-identical to a serial
// replication at any parallelism.
func ReplicateParallel(rc RunConfig, seeds []int64, parallelism int) (metrics.Aggregate, error) {
	return ReplicateParallelContext(context.Background(), rc, seeds, parallelism)
}

// ReplicateParallelContext is ReplicateParallel with cooperative
// cancellation: the pool stops claiming seeds once ctx is done and in-flight
// runs stop after their current window, so the call returns promptly with
// ctx's error instead of a partial aggregate.
func ReplicateParallelContext(ctx context.Context, rc RunConfig, seeds []int64, parallelism int) (metrics.Aggregate, error) {
	var agg metrics.Aggregate
	reports, err := runner.MapContext(ctx, parallelism, len(seeds),
		func(ctx context.Context, i int) (metrics.RunReport, error) {
			rc := rc
			rc.Seed = seeds[i]
			return RunOnceContext(ctx, rc)
		})
	if err != nil {
		return agg, err
	}
	for _, rep := range reports {
		agg.Add(rep)
	}
	return agg, nil
}

// DefaultSeeds returns n deterministic replication seeds.
func DefaultSeeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// lossyAt builds the lossy-disk channel used by the imperfect-channel
// experiments and tests.
func lossyAt(r, p float64) radio.LossyDisk {
	return radio.LossyDisk{Range: r, LossProb: p}
}
