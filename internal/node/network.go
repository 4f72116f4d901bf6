package node

import (
	"context"
	"fmt"
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
	// Window is the conservative window length W on two or more shards: the
	// transmission time of the smallest legal message, i.e. the minimum delay
	// after which an event on one shard can influence another. Zero on one
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
// in the run transmits, fixes their window length, and the radio panics on
// configurations whose transmit path cannot shard (non-UnitDisk loss,
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

// barrierSpins is how long a shard goroutine spins on the window barrier
// before yielding the processor. Windows are microseconds of wall-clock, so
// parking on a channel or mutex per window would dominate the run; spinning
// with periodic yields keeps the barrier tens of nanoseconds in the common
// case without starving co-scheduled work.
const barrierSpins = 4096

// RunContext is Run with cooperative cancellation. The run advances one
// window at a time from the earliest pending event, so idle spans are
// skipped in one hop; a window is W on two or more shards and horizon/128
// on one. After every window a node.WithProgress hook on ctx is called with
// (window end, horizon) and ctx is polled without blocking; once ctx is done
// the run stops and returns the virtual time reached and ctx's error.
// Meters are only closed — and the network only collectable — on a complete
// run, which returns (horizon, nil) byte-identical at any shard count: no
// handler runs between windows, so neither the windows nor the hook can
// change one output bit.
//
// One shard runs on the calling goroutine. Two or more run one goroutine
// per shard while this one orchestrates the barriers, the sequence merge
// and the boundary flushes; the hook is called at the barrier, when no
// shard is executing.
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
	window := nw.Window
	if s == 1 {
		window = horizon / oneShardWindows
	}
	// Spinning assumes every shard goroutine owns a processor; when the
	// runtime has fewer, yield immediately instead of burning the only
	// timeslice the peer needs to finish the window.
	spinLimit := barrierSpins
	if runtime.GOMAXPROCS(0) <= s {
		spinLimit = 1
	}
	var (
		phase   atomic.Uint64 // incremented to release the workers
		pending atomic.Int64  // workers still inside the current window
		stopped atomic.Bool
		// end/final are plain fields published by the phase increment (the
		// atomic store/load pair orders them) and stable until all workers
		// check in through pending.
		end   float64
		final bool
		wg    sync.WaitGroup
	)
	for i := 0; s > 1 && i < s; i++ { // one shard runs on this goroutine
		k := nw.Group.Shard(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seen := uint64(0); ; {
				for spins := 0; phase.Load() == seen; {
					if spins++; spins >= spinLimit {
						runtime.Gosched()
						spins = 0
					}
				}
				seen++
				if stopped.Load() {
					pending.Add(-1)
					return
				}
				if final {
					k.RunUntil(end)
				} else {
					k.RunWindow(end)
				}
				pending.Add(-1)
			}
		}()
	}
	release := func() {
		pending.Store(int64(s))
		phase.Add(1)
		for spins := 0; pending.Load() != 0; {
			if spins++; spins >= spinLimit {
				runtime.Gosched()
				spins = 0
			}
		}
	}
	shutdown := func() {
		if s > 1 {
			stopped.Store(true)
			release()
			wg.Wait()
		}
	}

	for {
		minAt, any := 0.0, false
		for i := 0; i < s; i++ {
			if at, ok := nw.Group.Shard(i).NextEventTime(); ok && (!any || at < minAt) {
				minAt, any = at, true
			}
		}
		if !any || minAt+window > horizon {
			break
		}
		end, final = minAt+window, false
		if s == 1 {
			nw.Kernel.RunWindow(end)
		} else {
			release()
			nw.Group.EndWindow()
			for _, m := range nw.Media {
				m.FlushBoundary()
			}
		}
		if progress != nil {
			progress(end, horizon)
		}
		select {
		case <-ctx.Done():
			shutdown()
			return nw.Kernel.Now(), ctx.Err()
		default:
		}
	}
	// Final stretch: every remaining event up to and including the horizon.
	// An event here influences other shards no earlier than minAt + W >
	// horizon, so the shards are causally independent to the end — no more
	// barriers, and the serial-inclusive RunUntil semantics apply.
	end, final = horizon, true
	if s == 1 {
		nw.Kernel.RunUntil(horizon)
	} else {
		release()
	}
	shutdown()

	for _, n := range nw.Nodes {
		n.Finish(horizon)
	}
	if progress != nil {
		progress(horizon, horizon)
	}
	return horizon, nil
}
