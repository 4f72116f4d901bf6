package node

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/deploy"
	"repro/internal/diffusion"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sim"
)

// NetworkConfig assembles a full simulated sensor field.
type NetworkConfig struct {
	// Deployment fixes node positions and the field bounds.
	Deployment *deploy.Deployment
	// Stimulus is the phenomenon being monitored.
	Stimulus diffusion.Stimulus
	// Profile is the hardware energy model (energy.Telos() for the paper).
	Profile energy.Profile
	// Loss is the channel model (radio.UnitDisk{Range: 10} for the paper).
	Loss radio.LossModel
	// Agents constructs the protocol agent for each node.
	Agents func(id radio.NodeID) Agent
	// ChannelStream drives loss randomness; nil uses a fixed default.
	ChannelStream *rng.Stream
	// Collisions enables destructive-collision modelling.
	Collisions bool
	// CSMA, when non-nil, enables carrier-sense multiple access with the
	// given backoff parameters.
	CSMA *radio.CSMAConfig
	// Topology, when non-nil, is a connectivity graph precompiled with
	// radio.CompileTopology over exactly Deployment.Positions at the loss
	// model's MaxRange; the medium adopts it instead of compiling its own,
	// so runs sharing one deployment share one compilation (the experiment
	// harness memoizes these). The medium re-checks node count and range at
	// freeze time and recompiles on mismatch.
	Topology *radio.Topology
}

// Network is a wired, runnable sensor field on one or more spatial shards.
type Network struct {
	// Kernel and Medium are shard 0's: on one shard, the whole network.
	Kernel *sim.Kernel
	Medium *radio.Medium
	Group  *sim.ShardGroup
	Media  []*radio.Medium
	// Nodes in global ID order at any shard count — metrics collection
	// iterates this slice and must observe the serial iteration order.
	Nodes []*Node
	// Window is the per-hop lookahead W on two or more shards: the
	// transmission time of the smallest legal message, i.e. the minimum delay
	// after which an event on a strip's boundary can influence another shard
	// (one c hops further in needs (c+1)·W). A window ends where the earliest
	// pending event could first do so (sim.ShardGroup.WindowEnd). Zero on one
	// shard, where nothing crosses a boundary.
	Window float64
}

// ShardedNetwork is the former name of Network, kept for existing callers.
type ShardedNetwork = Network

// BuildNetwork constructs cfg on one shard: serial execution.
func BuildNetwork(cfg NetworkConfig) *Network { return BuildShardedNetwork(cfg, 1, 0) }

// shardAssignment partitions n node positions into contiguous equal-count
// strips: nodes sorted by (x, y, index), strip k owning ranks
// [k·n/shards, (k+1)·n/shards). Strips of a spatially sorted order keep
// neighbourhoods together, so most CSR rows stay within one shard and only
// boundary rows produce cross-shard traffic.
func shardAssignment(positions []geom.Vec2, shards int) []int32 {
	n := len(positions)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := positions[idx[a]], positions[idx[b]]
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
		return idx[a] < idx[b]
	})
	owner := make([]int32, n)
	for rank, i := range idx {
		owner[i] = int32(rank * shards / n)
	}
	return owner
}

// BuildShardedNetwork constructs the kernels, media and all nodes of cfg on
// the given number of spatial shards (clamped to the node count). One shard
// is an ordinary kernel and medium with the channel stream, collisions and
// CSMA. Two or more split the deployment into strips over one shared frozen
// topology; minWire, the smallest on-air message size (bytes) any protocol
// in the run transmits, fixes their per-hop lookahead, and the radio panics
// on configurations whose transmit path cannot shard (non-UnitDisk loss,
// collisions, CSMA) — the experiment layer gates those with a clear error.
func BuildShardedNetwork(cfg NetworkConfig, shards, minWire int) *Network {
	if cfg.Deployment == nil || cfg.Deployment.N() == 0 {
		panic("node: network needs a non-empty deployment")
	}
	if cfg.Stimulus == nil || cfg.Loss == nil || cfg.Agents == nil {
		panic("node: incomplete network config")
	}
	if shards < 1 {
		panic(fmt.Sprintf("node: shard count must be positive, got %d", shards))
	}
	n := cfg.Deployment.N()
	shards = min(shards, n)
	group := sim.NewShardGroup(shards)
	nw := &Network{Group: group}
	var owner []int32 // nil on one shard: node i lives on shard 0
	if shards == 1 {
		stream := cfg.ChannelStream
		if stream == nil {
			stream = rng.NewSource(0).Stream("channel")
		}
		m := radio.NewMedium(group.Shard(0), cfg.Deployment.Field, cfg.Profile, cfg.Loss, stream)
		m.Reserve(n)
		if cfg.Topology != nil {
			m.SetTopology(cfg.Topology)
		}
		nw.Media = []*radio.Medium{m}
	} else {
		topo := cfg.Topology
		if topo == nil {
			topo = radio.CompileTopology(cfg.Deployment.Field, cfg.Deployment.Positions, cfg.Loss.MaxRange())
		}
		owner = shardAssignment(cfg.Deployment.Positions, shards)
		nw.Media = radio.NewShardedMedia(group, cfg.Deployment.Field, cfg.Profile, cfg.Loss, topo, owner, minWire)
		counts := make([]int, shards)
		for _, s := range owner {
			counts[s]++
		}
		for i, m := range nw.Media {
			m.Reserve(counts[i])
		}
		nw.Window = cfg.Profile.TxTime(minWire)
	}
	for _, m := range nw.Media {
		if cfg.Collisions {
			m.EnableCollisions()
		}
		if cfg.CSMA != nil {
			m.EnableCSMA(*cfg.CSMA)
		}
	}
	nw.Kernel, nw.Medium = group.Shard(0), nw.Media[0]
	// Nodes come from one slab (and register into the media's reserved
	// endpoint slabs), so a 10k-node network costs O(1) allocations here
	// rather than O(n). They are constructed in GLOBAL ID order at any shard
	// count: the group is in direct mode, so every construction-time
	// schedule call draws the serial sequence number a one-kernel build
	// would.
	nw.Nodes = make([]*Node, n)
	slab := make([]Node, n)
	for i, pos := range cfg.Deployment.Positions {
		id := radio.NodeID(i)
		s := 0
		if owner != nil {
			s = int(owner[i])
		}
		nd := &slab[i]
		nd.init(Config{
			ID:       id,
			Pos:      pos,
			Kernel:   group.Shard(s),
			Medium:   nw.Media[s],
			Stimulus: cfg.Stimulus,
			Profile:  cfg.Profile,
			Agent:    cfg.Agents(id),
		})
		nw.Nodes[i] = nd
	}
	return nw
}

// Run starts every agent, executes the simulation to the horizon and closes
// all meters at it. It returns the horizon for convenience.
func (nw *Network) Run(horizon float64) float64 {
	h, _ := nw.RunContext(context.Background(), horizon) // Background never cancels
	return h
}

// oneShardWindows is how many windows a one-shard run divides its horizon
// into. Nothing crosses a boundary on one shard, so the window only bounds
// how late cancellation and progress reports come.
const oneShardWindows = 128

// barrierSpins is how long a goroutine spins on the window barrier before
// yielding the processor. A window is tens of microseconds of wall clock, so
// parking on a channel or mutex per window would dominate the run; spinning
// keeps the barrier tens of nanoseconds while every shard has a processor,
// and the periodic yield keeps co-scheduled work from starving.
const barrierSpins = 4096

// advance runs one shard through a window, or to the horizon inclusive on
// the final stretch.
func advance(k *sim.Kernel, end float64, final bool) {
	if final {
		k.RunUntil(end)
	} else {
		k.RunWindow(end)
	}
}

// RunContext is Run with cooperative cancellation. The run advances one
// window at a time. On one shard a window is horizon/128 from the earliest
// pending event. On two or more it ends at sim.ShardGroup.WindowEnd(Window):
// the earliest instant any pending event could reach another shard, at least
// W after the earliest event and (c+1)·W after an event c radio hops inside
// its strip. After every window a node.WithProgress hook on ctx is called
// with (window end, horizon) and ctx is polled without blocking; once ctx is
// done the run stops and returns the virtual time reached and ctx's error.
// Meters are only closed — and the network only collectable — on a complete
// run, which returns (horizon, nil) byte-identical at any shard count: no
// handler runs between windows, so neither the windows nor the hook can
// change one output bit.
//
// The calling goroutine runs shard 0 and orchestrates: it releases one
// goroutine for each other shard per window, runs its own shard, waits at
// the barrier, then merges the sequence logs and flushes boundary
// deliveries; the hook is called at the barrier, when no shard is executing.
// One shard starts no goroutine.
func (nw *Network) RunContext(ctx context.Context, horizon float64) (float64, error) {
	if horizon <= 0 {
		panic(fmt.Sprintf("node: horizon must be positive, got %g", horizon))
	}
	progress := ProgressFromContext(ctx)
	// Agent starts are construction-time work: global ID order, direct mode.
	for _, n := range nw.Nodes {
		n.Start()
	}
	nw.Group.BeginWindows()

	s := nw.Group.Shards()
	var b *barrier // nil on one shard, which starts no goroutine
	if s > 1 {
		b = startBarrier(nw.Group, s)
	}
	// step advances every shard to end and returns at the barrier.
	step := func(end float64, final bool) {
		if b != nil {
			b.release(end, final)
		}
		advance(nw.Kernel, end, final)
		if b != nil {
			b.wait()
		}
	}
	shutdown := func() {
		if b != nil {
			b.stop()
		}
	}

	for {
		next := math.Inf(1)
		if s > 1 {
			next = nw.Group.WindowEnd(nw.Window)
		} else if at, ok := nw.Kernel.NextEventTime(); ok {
			next = at + horizon/oneShardWindows
		}
		if next > horizon {
			break
		}
		step(next, false)
		if s > 1 {
			nw.Group.EndWindow()
			for _, m := range nw.Media {
				m.FlushBoundary()
			}
		}
		if progress != nil {
			progress(next, horizon)
		}
		select {
		case <-ctx.Done():
			shutdown()
			return nw.Kernel.Now(), ctx.Err()
		default:
		}
	}
	// Final stretch: every remaining event up to and including the horizon.
	// No event pending here can influence another shard at or before the
	// horizon, so the shards are causally independent to the end: no more
	// barriers, and the serial-inclusive RunUntil semantics apply.
	step(horizon, true)
	shutdown()

	for _, n := range nw.Nodes {
		n.Finish(horizon)
	}
	if progress != nil {
		progress(horizon, horizon)
	}
	return horizon, nil
}

// barrier releases the goroutines of shards 1..s−1 into each window and
// waits for them at its end; the calling goroutine runs shard 0.
type barrier struct {
	phase   atomic.Uint64 // incremented to release the workers
	pending atomic.Int64  // workers still inside the current window
	stopped atomic.Bool
	// end/final are plain fields published by the phase increment (the
	// atomic store/load pair orders them) and stable until all workers check
	// in through pending.
	end       float64
	final     bool
	workers   int64
	spinLimit int
	wg        sync.WaitGroup
}

// startBarrier starts one goroutine per shard after the first.
func startBarrier(g *sim.ShardGroup, s int) *barrier {
	b := &barrier{workers: int64(s - 1), spinLimit: barrierSpins}
	// Spinning assumes every shard's goroutine owns a CPU; with fewer
	// processors or CPUs than shards (GOMAXPROCS can exceed the CPUs), yield
	// at once instead of burning the timeslice a shard still inside its
	// window needs.
	if min(runtime.GOMAXPROCS(0), runtime.NumCPU()) < s {
		b.spinLimit = 1
	}
	for i := 1; i < s; i++ {
		b.wg.Add(1)
		go b.work(g.Shard(i))
	}
	return b
}

// work runs one shard through every released window until stop.
func (b *barrier) work(k *sim.Kernel) {
	defer b.wg.Done()
	for seen := uint64(0); ; {
		for spins := 0; b.phase.Load() == seen; {
			if spins++; spins >= b.spinLimit {
				runtime.Gosched()
				spins = 0
			}
		}
		seen++
		if b.stopped.Load() {
			return
		}
		advance(k, b.end, b.final)
		b.pending.Add(-1)
	}
}

// release starts the workers on the window ending at end.
func (b *barrier) release(end float64, final bool) {
	b.end, b.final = end, final
	b.pending.Store(b.workers)
	b.phase.Add(1)
}

// wait returns once every worker has finished the released window.
func (b *barrier) wait() {
	for spins := 0; b.pending.Load() != 0; {
		if spins++; spins >= b.spinLimit {
			runtime.Gosched()
			spins = 0
		}
	}
}

// stop ends the workers and waits for them to exit.
func (b *barrier) stop() {
	b.stopped.Store(true)
	b.phase.Add(1)
	b.wg.Wait()
}
