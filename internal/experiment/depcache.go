package experiment

import (
	"sync"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// Deployment memoization. A sweep replicates every (protocol × sweep-point)
// cell over the same seeds, and every cell with the same seed, field, node
// count, radio range and deployment spec draws the identical layout —
// ConnectedUniform rejection-samples up to 2000 candidate layouts per call,
// so re-deriving it once per protocol in every sweep is pure waste (and even
// the cheap structured generators are worth sharing at 10 000 nodes). The
// cache below shares one immutable *deploy.Deployment per distinct key across
// the whole process, including the parallel worker pool. Results are
// unchanged: the generator is a pure function of the key (it consumes only
// the dedicated "deploy" stream, which is itself derived from the seed), so a
// cache hit returns byte-for-byte the deployment a miss would have computed.

// depKey identifies one deterministic deployment draw. maxAttempts is part
// of the key because it changes which draws panic vs succeed; today every
// caller passes 2000, so it never splits the cache in practice. The spec is
// comparable by design (scenario.DeploymentSpec holds only scalars).
type depKey struct {
	seed        int64
	field       geom.Rect
	nodes       int
	radius      float64
	spec        scenario.DeploymentSpec
	maxAttempts int
}

// depCacheLimit bounds the cache so pathological sweeps (many distinct
// fields/densities at many seeds) cannot grow it without bound; at the limit
// the cache resets, which only costs recomputation.
const depCacheLimit = 4096

var depCache struct {
	mu     sync.Mutex
	m      map[depKey]*deploy.Deployment
	hits   uint64
	misses uint64
}

// cachedDeployment returns the shared deployment for the key, drawing it on
// first use. Callers must treat the result as immutable — it is shared across
// concurrent simulation runs.
func cachedDeployment(seed int64, field geom.Rect, nodes int, radius float64, spec scenario.DeploymentSpec, maxAttempts int) *deploy.Deployment {
	spec = spec.Normalized(field, nodes) // every spelling of one draw shares an entry
	key := depKey{seed: seed, field: field, nodes: nodes, radius: radius, spec: spec, maxAttempts: maxAttempts}
	depCache.mu.Lock()
	if d, ok := depCache.m[key]; ok {
		depCache.hits++
		depCache.mu.Unlock()
		return d
	}
	depCache.misses++
	depCache.mu.Unlock()

	// Draw outside the lock: rejection sampling can run 2000 connectivity
	// checks, and concurrent workers should not serialize on it. Two workers
	// racing on the same key compute identical deployments; the second store
	// wins harmlessly.
	st := rng.NewSource(seed).Stream("deploy")
	d := spec.Generate(st, field, nodes, radius, maxAttempts)

	depCache.mu.Lock()
	if depCache.m == nil || len(depCache.m) >= depCacheLimit {
		depCache.m = make(map[depKey]*deploy.Deployment)
	}
	depCache.m[key] = d
	depCache.mu.Unlock()
	return d
}

// depCacheStats returns the cumulative hit/miss counters (for tests).
func depCacheStats() (hits, misses uint64) {
	depCache.mu.Lock()
	defer depCache.mu.Unlock()
	return depCache.hits, depCache.misses
}

// Topology memoization. The compiled CSR connectivity is a pure function of
// (deployment positions, loss MaxRange), and deployments are already shared
// one-per-key above — so keying on the deployment's identity is exact: the
// same pointer means the same positions. Every cell of a sweep sharing
// (seed, field, nodes, range, loss range) then reuses ONE compiled topology
// instead of rebuilding the spatial hash and re-deriving every link distance
// per protocol × seed. Topologies are immutable after compilation and safe
// to share across the worker pool; the medium re-checks the cheap adoption
// invariants (node count, range) and recompiles on mismatch, so a miskeyed
// entry can cost time but never correctness.

// topoKey identifies one compiled topology: the shared deployment instance
// plus the radius it was compiled at.
type topoKey struct {
	dep      *deploy.Deployment
	maxRange float64
}

// topoCacheLimit is far below depCacheLimit because topology entries are
// heavy — a 10k-node CSR with its float64 edge distances runs to megabytes,
// and each key also pins its deployment — while real sweeps only ever touch
// a handful of distinct (deployment, range) pairs per seed set. At the limit
// the cache resets, which only costs recompilation.
const topoCacheLimit = 256

var topoCache struct {
	mu     sync.Mutex
	m      map[topoKey]*radio.Topology
	hits   uint64
	misses uint64
}

// cachedTopology returns the shared compiled topology for the deployment at
// maxRange, compiling it on first use. Callers must treat the result as
// immutable — it is shared across concurrent simulation runs.
func cachedTopology(dep *deploy.Deployment, maxRange float64) *radio.Topology {
	key := topoKey{dep: dep, maxRange: maxRange}
	topoCache.mu.Lock()
	if t, ok := topoCache.m[key]; ok {
		topoCache.hits++
		topoCache.mu.Unlock()
		return t
	}
	topoCache.misses++
	topoCache.mu.Unlock()

	// Compile outside the lock: a 10k-node compilation walks every bucket of
	// the spatial hash, and concurrent workers should not serialize on it.
	// Two workers racing on the same key compile identical topologies; the
	// second store wins harmlessly.
	t := radio.CompileTopology(dep.Field, dep.Positions, maxRange)

	topoCache.mu.Lock()
	if topoCache.m == nil || len(topoCache.m) >= topoCacheLimit {
		topoCache.m = make(map[topoKey]*radio.Topology)
	}
	topoCache.m[key] = t
	topoCache.mu.Unlock()
	return t
}

// topoCacheStats returns the cumulative hit/miss counters (for tests).
func topoCacheStats() (hits, misses uint64) {
	topoCache.mu.Lock()
	defer topoCache.mu.Unlock()
	return topoCache.hits, topoCache.misses
}
