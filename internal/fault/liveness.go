package fault

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/radio"
)

// LivenessConfig tunes the sink-side peer liveness tracker; it is also the
// liveness section of a scenario's protocol spec. The zero value disables
// tracking entirely (zero cost on the fault-free path). All fields are
// scalars so the protocol config structs that embed it stay comparable.
type LivenessConfig struct {
	// MissK is the number of silent report intervals before a peer is
	// suspect (0 disables the tracker).
	MissK int `json:"missK,omitempty"`
	// Interval is the tick period and the expected report spacing in
	// seconds (0 disables the tracker).
	Interval float64 `json:"interval,omitempty"`
	// BackoffInit is the first re-probe delay (0 = Interval); each further
	// probe doubles it, capped at BackoffMax (0 = 8×Interval).
	BackoffInit float64 `json:"backoffInit,omitempty"`
	BackoffMax  float64 `json:"backoffMax,omitempty"`
	// MaxProbes is how many unanswered probes precede a death declaration
	// (0 = 3).
	MaxProbes int `json:"maxProbes,omitempty"`
}

// Enabled reports whether the tracker is on.
func (c LivenessConfig) Enabled() bool { return c.MissK > 0 && c.Interval > 0 }

// WithDefaults materializes the backoff and probe-budget defaults of an
// enabled config; a disabled one is returned unchanged.
func (c LivenessConfig) WithDefaults() LivenessConfig {
	if !c.Enabled() {
		return c
	}
	if c.BackoffInit <= 0 {
		c.BackoffInit = c.Interval
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 8 * c.Interval
	}
	if c.MaxProbes <= 0 {
		c.MaxProbes = 3
	}
	return c
}

// Validate reports the first problem with the config, or nil.
func (c LivenessConfig) Validate() error {
	switch {
	case c.MissK < 0:
		return fmt.Errorf("negative liveness missK %d", c.MissK)
	case c.MissK > 0 && c.Interval <= 0:
		return fmt.Errorf("liveness interval %g must be positive when missK is set", c.Interval)
	case c.Interval < 0 || c.BackoffInit < 0 || c.BackoffMax < 0:
		return fmt.Errorf("negative liveness tunable in %+v", c)
	case c.MaxProbes < 0:
		return fmt.Errorf("negative liveness maxProbes %d", c.MaxProbes)
	case c.BackoffMax > 0 && c.BackoffInit > c.BackoffMax:
		return fmt.Errorf("liveness backoffInit %g above backoffMax %g", c.BackoffInit, c.BackoffMax)
	}
	return nil
}

// Declaration records one death declaration: who, when, and when the peer
// was last heard (At−LastHeard is the staleness of the sink's information
// at declaration time).
type Declaration struct {
	ID        radio.NodeID
	At        float64
	LastHeard float64
}

// LivenessStats is a tracker snapshot for metrics collection.
type LivenessStats struct {
	// Peers is how many distinct peers have been observed.
	Peers int
	// Probes is how many re-probe broadcasts the tracker requested.
	Probes int
	// ProbeJ is the transmit energy those probes cost, in joules.
	ProbeJ float64
	// Declared lists the death declarations in declaration order.
	Declared []Declaration
}

// peerState tracks one observed peer.
type peerState struct {
	id        radio.NodeID
	lastHeard float64
	suspect   bool
	probes    int
	nextProbe float64
	dead      bool
}

// Liveness is one sink's peer liveness tracker. Peers enter tracking on
// their first observed message (a node that never spoke is never expected
// to speak); a peer silent for MissK×Interval is suspect and re-probed with
// capped exponential backoff until MaxProbes probes have gone unanswered,
// then declared dead. A message from a declared-dead peer (churn rejoin)
// resurrects it; the declaration stays on record as history.
//
// The peer list is kept sorted by ID, so every scan — and therefore every
// declaration order and every float accumulation downstream — is
// deterministic regardless of message arrival interleavings.
type Liveness struct {
	cfg    LivenessConfig
	peers  []peerState
	index  map[radio.NodeID]int
	probes int
	probeJ float64
	decls  []Declaration
}

// NewLiveness builds a tracker (defaults materialized).
func NewLiveness(cfg LivenessConfig) *Liveness {
	return &Liveness{cfg: cfg.WithDefaults(), index: make(map[radio.NodeID]int)}
}

// Observe records life evidence from a peer at time now: any message counts
// (reports, probes, responses — a live radio is a live node).
func (l *Liveness) Observe(from radio.NodeID, now float64) {
	if i, ok := l.index[from]; ok {
		p := &l.peers[i]
		p.lastHeard = now
		p.suspect = false
		p.probes = 0
		p.dead = false
		return
	}
	i := sort.Search(len(l.peers), func(j int) bool { return l.peers[j].id >= from })
	l.peers = append(l.peers, peerState{})
	copy(l.peers[i+1:], l.peers[i:])
	l.peers[i] = peerState{id: from, lastHeard: now}
	for j := i; j < len(l.peers); j++ {
		l.index[l.peers[j].id] = j
	}
}

// Tick advances the tracker to now and reports whether the owner should
// broadcast a probe: true when any peer newly turned suspect or a suspect
// peer's backoff expired. One broadcast serves every due peer (probes are
// broadcasts, not unicasts).
func (l *Liveness) Tick(now float64) bool {
	if !l.cfg.Enabled() {
		return false
	}
	window := float64(l.cfg.MissK) * l.cfg.Interval
	probe := false
	for i := range l.peers {
		p := &l.peers[i]
		if p.dead {
			continue
		}
		if !p.suspect {
			if now-p.lastHeard > window {
				p.suspect = true
				p.probes = 1
				p.nextProbe = now + l.backoff(1)
				probe = true
			}
			continue
		}
		if now >= p.nextProbe {
			if p.probes >= l.cfg.MaxProbes {
				p.dead = true
				l.decls = append(l.decls, Declaration{ID: p.id, At: now, LastHeard: p.lastHeard})
				continue
			}
			p.probes++
			p.nextProbe = now + l.backoff(p.probes)
			probe = true
		}
	}
	if probe {
		l.probes++
	}
	return probe
}

// backoff is the delay before probe k+1: BackoffInit doubling per probe,
// capped at BackoffMax.
func (l *Liveness) backoff(k int) float64 {
	b := l.cfg.BackoffInit * math.Pow(2, float64(k-1))
	return math.Min(b, l.cfg.BackoffMax)
}

// AddProbeEnergy attributes transmit energy to the re-probe budget.
func (l *Liveness) AddProbeEnergy(j float64) { l.probeJ += j }

// Stats snapshots the tracker. The Declared slice is owned by the tracker.
func (l *Liveness) Stats() LivenessStats {
	return LivenessStats{Peers: len(l.peers), Probes: l.probes, ProbeJ: l.probeJ, Declared: l.decls}
}
