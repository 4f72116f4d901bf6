package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/radio"
)

// minWireBytes is the smallest on-air frame any protocol in this repository
// transmits: the payload-less PAS REQUEST. Its transmission time is the
// per-hop lookahead of the sharded windows — the minimum delay after which
// a node can influence its neighbours, and so another shard — so every
// broadcast must be at least this large (the sharded medium enforces it with
// a panic).
var minWireBytes = core.Request{}.Size()

// Shardable reports whether the (defaulted) config can run on rc.Shards
// kernels, and the first reason it cannot. A negative count is an error.
// One shard (Shards 0 or 1) is serial execution and accepts every config.
// Two or more require a transmit path free of shared randomness and
// cross-shard receiver state at transmit time: exact unit-disk loss, no
// collision modelling, no CSMA, no extended fault plan. Battery budgets and
// legacy FailFraction crashes are fine — both are construction-time effects
// that draw their randomness before the shards start running.
func Shardable(rc RunConfig) error {
	if rc.Shards < 0 {
		return fmt.Errorf("experiment: negative shard count %d", rc.Shards)
	}
	if rc.Shards < 2 {
		return nil
	}
	rc = rc.Defaults()
	loss := rc.Loss
	if loss == nil {
		loss = radio.UnitDisk{Range: rc.Range}
	}
	if _, ok := loss.(radio.UnitDisk); !ok {
		return fmt.Errorf("experiment: sharded runs require unit-disk loss, got %T", loss)
	}
	if rc.Collisions {
		return fmt.Errorf("experiment: collision modelling cannot run sharded")
	}
	if rc.CSMA != nil {
		return fmt.Errorf("experiment: CSMA cannot run sharded")
	}
	if rc.Faults != nil {
		return fmt.Errorf("experiment: extended fault plans cannot run sharded")
	}
	return nil
}
