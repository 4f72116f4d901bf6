// Package rng provides deterministic, named random-number streams for the
// simulator. Every stochastic component (deployment, channel loss, failure
// injection, stimulus irregularity) draws from its own stream derived from a
// single master seed, so changing one component's consumption pattern never
// perturbs another component's draws — a standard variance-reduction and
// reproducibility technique in discrete-event simulation.
package rng

import (
	"hash/fnv"
	"math/rand"
)

// Source is a master seed from which independent named streams are derived.
type Source struct {
	seed uint64
}

// NewSource creates a master source from seed.
func NewSource(seed int64) *Source {
	return &Source{seed: uint64(seed)}
}

// Seed returns the master seed value.
func (s *Source) Seed() int64 { return int64(s.seed) }

// Stream returns the deterministic sub-stream for the given name. Calling
// Stream twice with the same name returns independently-seeded generators in
// identical initial states.
func (s *Source) Stream(name string) *Stream {
	return &Stream{Rand: rand.New(&lazySource{seed: int64(streamState(nameHash(name), s.seed))})}
}

// StreamN returns a numbered variant of a named stream (e.g. one stream per
// node or per replication).
func (s *Source) StreamN(name string, n int) *Stream {
	return &Stream{Rand: rand.New(&lazySource{seed: int64(streamStateN(nameHash(name), s.seed, uint64(n)))})}
}

// lazySource is a math/rand source that is created and seeded on its first
// draw. The generator is a 4.9 KB table with a seeding loop, and many runs
// build streams they never draw from (a unit-disk channel without CSMA, for
// one); the draws are those of rand.NewSource(seed), Seed included.
type lazySource struct {
	seed int64
	src  rand.Source64 // nil until the first draw
}

func (l *lazySource) Int63() int64    { return l.source().Int63() }
func (l *lazySource) Uint64() uint64  { return l.source().Uint64() }
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil } // the next draw seeds afresh

func (l *lazySource) source() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

// nameHash is the FNV-64a hash of a stream name.
func nameHash(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// streamState derives the generator state of a named stream: the name hash is
// mixed with the master seed via a splitmix64 round to decorrelate similar
// names.
func streamState(nameH, seed uint64) uint64 {
	return splitmix64(nameH ^ seed)
}

// streamStateN derives the state of the n-th numbered variant of a named
// stream. The index is mixed through its own splitmix64 round before being
// folded into the fully mixed base state, which then passes through a final
// round — a bare XOR of hash, seed and index before a single round let
// distinct (name, n) pairs cancel into collisions and correlate with the
// unnumbered Stream(name) state.
func streamStateN(nameH, seed, n uint64) uint64 {
	return splitmix64(streamState(nameH, seed) + splitmix64(n))
}

// splitmix64 is the finalizing mix from the splitmix64 generator; it turns
// structured seed inputs into well-distributed states.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream is a single deterministic random stream. It embeds *rand.Rand, so
// all the standard draw methods (Float64, Intn, NormFloat64, Perm, ...) are
// available directly.
type Stream struct {
	*rand.Rand
}

// Uniform returns a uniform draw in [lo, hi).
func (st *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*st.Float64()
}

// Exponential returns an exponential draw with the given mean. A mean of 0
// or less returns 0 (degenerate distribution), which callers use to disable
// jitter.
func (st *Stream) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return st.ExpFloat64() * mean
}

// Normal returns a normal draw with the given mean and standard deviation.
func (st *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*st.NormFloat64()
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (st *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return st.Float64() < p
}

// Jitter returns a multiplicative jitter factor uniform in
// [1-amount, 1+amount]; amount is clamped to [0, 1].
func (st *Stream) Jitter(amount float64) float64 {
	if amount <= 0 {
		return 1
	}
	if amount > 1 {
		amount = 1
	}
	return 1 + st.Uniform(-amount, amount)
}
