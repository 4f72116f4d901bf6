package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/energy"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sas"
	"repro/internal/scenario"
)

// workers is the load of the paper sweep's replication pool: the two
// processors of the reference box.
const workers = 2

// sweepBlock is the number of fresh seeds one Fig. 4 sweep replicates over.
const sweepBlock = 128

// warmBlock is the seed block of the paper sweep's set-up warm-up.
const warmBlock = 8

// fig4MaxSleep is the x axis of the paper's Fig. 4.
var fig4MaxSleep = []float64{5, 10, 15, 20, 25, 30}

// seedBlock returns n consecutive simulation seeds starting at first.
func seedBlock(first int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = first + int64(i)
	}
	return out
}

// paperSweep times full Fig. 4 sweeps, each over a block of fresh seeds.
func paperSweep(r *run) error {
	base := seedBase(r.seed)
	sweep := func(seeds []int64) (experiment.Result, error) {
		exp, ok := experiment.Lookup("fig4")
		if !ok {
			return experiment.Result{}, fmt.Errorf("experiment fig4 is not registered")
		}
		return exp.Run(experiment.Options{Seeds: seeds, Parallelism: workers})
	}
	for k := 0; k < r.setups; k++ {
		if err := r.timeSetup(func() error {
			_, err := sweep(seedBlock(base+int64(k*warmBlock), warmBlock))
			return err
		}); err != nil {
			return err
		}
	}
	first := base + int64(r.setups*warmBlock)
	var res0 experiment.Result
	var ratios []float64
	for i := 0; i < r.ops; i++ {
		var res experiment.Result
		err := r.timeOp(func() (err error) {
			res, err = sweep(seedBlock(first+int64(i*sweepBlock), sweepBlock))
			return err
		})
		if err != nil {
			return err
		}
		if i == 0 {
			res0 = res
		}
		ratios = append(ratios, checkFig4(r, res))
	}
	if !r.trace {
		return nil
	}
	r.layer["paper.pas_sas_ratio_5s"] = median(ratios)
	rec := newRecorder()
	r.rec = rec
	return r.traceMem(func() error {
		curves, root, err := traceSweep(r.ctx, rec, seedBlock(first, sweepBlock), r.layer)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(curves, res0.Curves) {
			r.problem("traced Fig. 4 curves differ from the untraced sweep on the same seeds")
		}
		r.traceOverhead(float64(rec.snapshot()[root].dur())/1e6, median(r.lat))
		return nil
	})
}

// checkFig4 applies the paper's Fig. 4 shape to one sweep and returns the
// PAS ÷ SAS delay ratio at the smallest sleep cap, which is reported, not
// asserted.
func checkFig4(r *run, res experiment.Result) float64 {
	ns, _ := res.Curve("NS")
	pas, _ := res.Curve("PAS")
	sas, _ := res.Curve("SAS")
	if len(ns.Points) != len(fig4MaxSleep) || len(pas.Points) != len(fig4MaxSleep) || len(sas.Points) != len(fig4MaxSleep) {
		r.problem("fig4: want %d points per curve, got NS %d, PAS %d, SAS %d",
			len(fig4MaxSleep), len(ns.Points), len(pas.Points), len(sas.Points))
		return math.NaN()
	}
	for i, p := range ns.Points {
		if p.Y != 0 {
			r.problem("fig4: NS delay %g at maxSleep %g, want 0", p.Y, p.X)
		}
		if i == 0 {
			continue
		}
		for _, c := range []experiment.Curve{pas, sas} {
			if c.Points[i].Y < c.Points[i-1].Y {
				r.problem("fig4: %s delay falls from %g to %g as maxSleep grows to %g",
					c.Name, c.Points[i-1].Y, c.Points[i].Y, c.Points[i].X)
			}
		}
	}
	for i := len(pas.Points) - 2; i < len(pas.Points); i++ {
		if !(pas.Points[i].Y < sas.Points[i].Y) {
			r.problem("fig4: PAS delay %g not below SAS %g at maxSleep %g",
				pas.Points[i].Y, sas.Points[i].Y, pas.Points[i].X)
		}
	}
	return pas.Points[0].Y / sas.Points[0].Y
}

// fig4Cell is the run config of one Fig. 4 cell: the paper defaults with the
// sleep cap at maxSleep and the conventional ramp of a fifth of it.
func fig4Cell(protocol string, maxSleep float64) experiment.RunConfig {
	rc := experiment.RunConfig{Protocol: protocol}.Defaults()
	rc.PAS.SleepMax, rc.PAS.SleepIncrement = maxSleep, maxSleep/5
	rc.SAS.SleepMax, rc.SAS.SleepIncrement = maxSleep, maxSleep/5
	return rc
}

// traceSweep runs the Fig. 4 sweep over seeds by calling each layer
// directly, fanned over the runner pool like the experiment harness: one
// deployment and topology per seed, shared by the 18 cells. It returns the
// curves, which must equal the untraced sweep's, and the sweep span.
func traceSweep(ctx context.Context, rec *recorder, seeds []int64, layer map[string]float64) ([]experiment.Curve, int, error) {
	protos := []string{experiment.ProtoNS, experiment.ProtoPAS, experiment.ProtoSAS}
	names := []string{"NS", "PAS", "SAS"} // the harness's curve names
	var cells []experiment.RunConfig
	for _, p := range protos {
		for _, x := range fig4MaxSleep {
			cells = append(cells, fig4Cell(p, x))
		}
	}
	type shared struct {
		once sync.Once
		dep  *deploy.Deployment
		topo *radio.Topology
	}
	per := make([]shared, len(seeds))
	type result struct {
		rep metrics.RunReport
		c   simCounters
	}
	root := rec.begin("sweep", -1, -1)
	out, err := runner.MapContext(ctx, workers, len(cells)*len(seeds),
		func(ctx context.Context, i int) (result, error) {
			job := rec.begin("runner.job", int64(i), root)
			defer rec.end(job)
			rc := cells[i/len(seeds)]
			rc.Seed = seeds[i%len(seeds)]
			sh := &per[i%len(seeds)]
			sh.once.Do(func() { sh.dep, sh.topo = tracedTopology(rec, int64(i), job, rc) })
			rep, c, err := tracedSim(ctx, rec, int64(i), job, rc, sh.dep, sh.topo, 0)
			return result{rep, c}, err
		})
	rec.end(root)
	if err != nil {
		return nil, root, err
	}
	var total simCounters
	curves := make([]experiment.Curve, len(protos))
	for pi := range protos {
		curves[pi].Name = names[pi]
		for xi, x := range fig4MaxSleep {
			var agg metrics.Aggregate
			for s := range seeds {
				o := out[(pi*len(fig4MaxSleep)+xi)*len(seeds)+s]
				agg.Add(o.rep)
				total.add(o.c)
			}
			curves[pi].Points = append(curves[pi].Points, experiment.Point{X: x, Y: agg.Delay.Mean(), CI: agg.Delay.CI95()})
		}
	}
	spans := rec.snapshot()
	jobs := durations(spans, "runner.job")
	layer["runner.jobs"] = float64(len(jobs))
	layer["runner.busy_frac"] = sum(jobs) / (workers * float64(spans[root].dur()) / 1e6)
	simLayers(layer, spans, total)
	layer["trace.cover_frac"] = coverage(spans, root)
	return curves, root, nil
}

// serialCheckEvery spaces the serial runs that sharded reports are checked
// against: each costs a third of a sharded run.
const serialCheckEvery = 4

// scaleRuns times full runs of the scale-10k registry entry, FromScenario
// through Collect, each on a fresh seed so that each pays its own
// deployment and topology. shards > 0 runs them sharded and checks every
// serialCheckEvery-th report against a serial run of the same seed.
func scaleRuns(r *run, shards int) error {
	sp, ok := scenario.Lookup("scale-10k")
	if !ok {
		return fmt.Errorf("scenario scale-10k is not registered")
	}
	one := func(seed int64, shards int) (metrics.RunReport, error) {
		rc, err := experiment.FromScenario(sp, seed)
		if err != nil {
			return metrics.RunReport{}, err
		}
		rc.Shards = shards
		return experiment.RunOnceContext(r.ctx, rc)
	}
	base := seedBase(r.seed)
	for k := 0; k < r.setups; k++ {
		if err := r.timeSetup(func() error {
			_, err := one(base+int64(k), shards)
			return err
		}); err != nil {
			return err
		}
	}
	first := base + int64(r.setups)
	var rep0 metrics.RunReport
	for i := 0; i < r.ops; i++ {
		seed := first + int64(i)
		var rep metrics.RunReport
		err := r.timeOp(func() (err error) {
			rep, err = one(seed, shards)
			return err
		})
		if err != nil {
			return err
		}
		if i == 0 {
			rep0 = rep
		}
		if rep.Detected == 0 || rep.AvgEnergyJ <= 0 || math.IsNaN(rep.AvgDelay) || math.IsInf(rep.AvgDelay, 0) {
			r.problem("scale-10k seed %d: implausible report (detected %d, energy %g J, delay %g s)",
				seed, rep.Detected, rep.AvgEnergyJ, rep.AvgDelay)
		}
		if shards > 0 && i%serialCheckEvery == 0 {
			// The sharded run's garbage would otherwise raise the check's
			// peak memory, and with it peak_rss_mb, on some runs only.
			runtime.GC()
			serial, err := one(seed, 0)
			if err != nil {
				return err
			}
			if !sameReport(rep, serial) {
				r.problem("scale-10k seed %d: %d-shard report differs from the serial one", seed, shards)
			}
		}
	}
	if !r.trace {
		return nil
	}
	rec := newRecorder()
	r.rec = rec
	var rep metrics.RunReport
	var c simCounters
	var root int
	if err := r.traceMem(func() (err error) {
		rep, c, root, err = traceScaleRun(r.ctx, rec, sp, first, shards)
		return err
	}); err != nil {
		return err
	}
	if !sameReport(rep, rep0) {
		r.problem("traced scale-10k run differs from the untraced run of seed %d", first)
	}
	spans := rec.snapshot()
	r.traceOverhead(float64(spans[root].dur())/1e6, median(r.lat))
	simLayers(r.layer, spans, c)
	r.layer["experiment.compile_us"] = median(durations(spans, "experiment.compile")) * 1e3
	cover := coverage(spans, root)
	r.layer["trace.cover_frac"] = cover
	if shards == 0 {
		if cover < 0.95 {
			r.problem("trace accounting: layer self times cover %.1f%% of the traced run, want at least 95%%", 100*cover)
		}
		return nil
	}
	// The slowdown compares node.run of the sharded run above with a
	// serial run of the same seed, traced the same way.
	rep, _, sroot, err := traceScaleRun(r.ctx, rec, sp, first, 0)
	if err != nil {
		return err
	}
	if !sameReport(rep, rep0) {
		r.problem("traced serial scale-10k run differs from the sharded run of seed %d", first)
	}
	spans = rec.snapshot()
	r.layer["sim.shard.slowdown"] = float64(childDur(spans, root, "node.run")) / float64(childDur(spans, sroot, "node.run"))
	return nil
}

// childDur is the duration of parent's child span named name.
func childDur(spans []span, parent int, name string) int64 {
	for _, s := range spans {
		if s.Parent == parent && s.Name == name {
			return s.dur()
		}
	}
	return 0
}

// traceScaleRun runs one scale-10k simulation by calling each layer
// directly under one root span, and returns the report, the layer
// counters and the root span.
func traceScaleRun(ctx context.Context, rec *recorder, sp scenario.Scenario, seed int64, shards int) (metrics.RunReport, simCounters, int, error) {
	root := rec.begin("run", seed, -1)
	defer rec.end(root)
	var rc experiment.RunConfig
	var err error
	rec.timed("experiment.compile", seed, root, func() { rc, err = experiment.FromScenario(sp, seed) })
	if err != nil {
		return metrics.RunReport{}, simCounters{}, root, err
	}
	dep, topo := tracedTopology(rec, seed, root, rc)
	rep, c, err := tracedSim(ctx, rec, seed, root, rc, dep, topo, shards)
	return rep, c, root, err
}

// simCounters are the counters read from the layers after direct runs.
type simCounters struct {
	radio   radio.Stats
	events  []uint64 // kernel events per shard (one entry when serial)
	windows int
	edges   []int // CSR edges per compiled topology
}

func (c *simCounters) add(o simCounters) {
	addRadio(&c.radio, o.radio)
	for i, e := range o.events {
		if i == len(c.events) {
			c.events = append(c.events, 0)
		}
		c.events[i] += e
	}
	c.windows += o.windows
	c.edges = append(c.edges, o.edges...)
}

func addRadio(dst *radio.Stats, s radio.Stats) {
	dst.Broadcasts += s.Broadcasts
	dst.Delivered += s.Delivered
	dst.DroppedLoss += s.DroppedLoss
	dst.DroppedSleeping += s.DroppedSleeping
	dst.DroppedCollision += s.DroppedCollision
}

// lossModel is the channel the harness builds for rc.
func lossModel(rc experiment.RunConfig) radio.LossModel {
	if rc.Loss != nil {
		return rc.Loss
	}
	return radio.UnitDisk{Range: rc.Range}
}

// tracedTopology draws the deployment and compiles its topology exactly as
// the harness's memo does on a miss, one span per call.
func tracedTopology(rec *recorder, trace int64, parent int, rc experiment.RunConfig) (*deploy.Deployment, *radio.Topology) {
	var dep *deploy.Deployment
	rec.timed("deploy.gen", trace, parent, func() {
		dep = rc.Deploy.Generate(rng.NewSource(rc.Seed).Stream("deploy"), rc.Scenario.Field, rc.Nodes, rc.Range, 2000)
	})
	var topo *radio.Topology
	rec.timed("radio.compile", trace, parent, func() {
		topo = radio.CompileTopology(dep.Field, dep.Positions, lossModel(rc).MaxRange())
	})
	return dep, topo
}

// agents is the per-node agent factory the harness builds for rc.
func agents(rc experiment.RunConfig) (func(radio.NodeID) node.Agent, error) {
	switch rc.Protocol {
	case experiment.ProtoPAS:
		slab := core.NewSlab(rc.PAS, rc.Nodes)
		return func(radio.NodeID) node.Agent { return slab() }, nil
	case experiment.ProtoSAS:
		slab := sas.NewSlab(rc.SAS, rc.Nodes)
		return func(radio.NodeID) node.Agent { return slab() }, nil
	case experiment.ProtoNS:
		return func(radio.NodeID) node.Agent { return baseline.NewNS() }, nil
	}
	return nil, fmt.Errorf("direct runs do not support protocol %q", rc.Protocol)
}

// tracedSim builds, runs and collects one simulation on a prepared
// deployment and topology, one span per layer call. Only the fault-free
// unit-disk configurations the workloads use are supported.
func tracedSim(ctx context.Context, rec *recorder, trace int64, parent int, rc experiment.RunConfig,
	dep *deploy.Deployment, topo *radio.Topology, shards int) (metrics.RunReport, simCounters, error) {
	var c simCounters
	if _, unit := lossModel(rc).(radio.UnitDisk); !unit || rc.Faults != nil || rc.FailFraction > 0 ||
		rc.BatteryJ > 0 || rc.Collisions || rc.CSMA != nil {
		return metrics.RunReport{}, c, fmt.Errorf("direct runs support only fault-free unit-disk configs")
	}
	ag, err := agents(rc)
	if err != nil {
		return metrics.RunReport{}, c, err
	}
	c.edges = []int{topo.Edges()}
	cfg := node.NetworkConfig{
		Deployment: dep,
		Stimulus:   rc.Scenario.Stimulus,
		Profile:    energy.Telos(),
		Loss:       lossModel(rc),
		Agents:     ag,
		Topology:   topo,
	}
	horizon := rc.Scenario.Horizon
	var nodes []*node.Node
	if shards == 0 {
		cfg.ChannelStream = rng.NewSource(rc.Seed).Stream("channel")
		var nw *node.Network
		rec.timed("node.build", trace, parent, func() { nw = node.BuildNetwork(cfg) })
		rec.timed("node.run", trace, parent, func() { _, err = nw.RunContext(ctx, horizon) })
		nodes = nw.Nodes
		c.radio = nw.Medium.Stats()
		c.events = []uint64{nw.Kernel.Processed()}
	} else {
		var nw *node.ShardedNetwork
		rec.timed("node.build", trace, parent, func() {
			nw = node.BuildShardedNetwork(cfg, shards, core.Request{}.Size())
		})
		// The hook fires once per conservative window, from the run's
		// orchestration goroutine.
		wctx := node.WithProgress(ctx, func(float64, float64) { c.windows++ })
		rec.timed("node.run", trace, parent, func() { _, err = nw.RunContext(wctx, horizon) })
		nodes = nw.Nodes
		for i, m := range nw.Media {
			addRadio(&c.radio, m.Stats())
			c.events = append(c.events, nw.Group.Shard(i).Processed())
		}
	}
	if err != nil {
		return metrics.RunReport{}, c, err
	}
	var rep metrics.RunReport
	rec.timed("metrics.collect", trace, parent, func() { rep = metrics.Collect(nodes, horizon) })
	return rep, c, nil
}

// simLayers derives the simulation layers' metrics from the spans and
// counters of a traced operation.
func simLayers(layer map[string]float64, spans []span, c simCounters) {
	layer["deploy.gen_ms"] = median(durations(spans, "deploy.gen"))
	layer["radio.compile_ms"] = median(durations(spans, "radio.compile"))
	edges := make([]float64, len(c.edges))
	for i, e := range c.edges {
		edges[i] = float64(e)
	}
	layer["radio.csr_edges"] = median(edges)
	layer["radio.broadcasts"] = float64(c.radio.Broadcasts)
	layer["radio.delivered"] = float64(c.radio.Delivered)
	layer["radio.dropped_sleeping"] = float64(c.radio.DroppedSleeping)
	attempts := c.radio.Delivered + c.radio.DroppedLoss + c.radio.DroppedSleeping + c.radio.DroppedCollision
	layer["radio.useful_frac"] = float64(c.radio.Delivered) / float64(max(attempts, 1))
	layer["node.build_ms"] = median(durations(spans, "node.build"))
	run := durations(spans, "node.run")
	layer["node.run_ms"] = median(run)
	layer["metrics.collect_ms"] = median(durations(spans, "metrics.collect"))
	var events, most uint64
	for _, e := range c.events {
		events += e
		most = max(most, e)
	}
	layer["sim.events"] = float64(events)
	layer["sim.ns_per_event"] = sum(run) * 1e6 / float64(max(events, 1))
	layer["sim.shard.windows"] = float64(c.windows)
	if len(c.events) > 1 {
		layer["sim.shard.imbalance"] = float64(most) / (float64(events) / float64(len(c.events)))
	}
}

// sameReport reports whether two run reports are identical, comparing
// their complete printed form so that NaN and ±Inf fields compare equal to
// themselves.
func sameReport(a, b metrics.RunReport) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}
