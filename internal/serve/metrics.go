package serve

import (
	"sort"
	"sync"
	"sync/atomic"
)

// serverStats holds the monotonically increasing counters and gauges behind
// GET /v1/stats. Counters are atomics so the hot path never takes a lock;
// the latency window has its own small mutex.
type serverStats struct {
	requests    atomic.Uint64 // simulation-endpoint requests accepted for processing
	cacheHits   atomic.Uint64 // requests served from the result store
	cacheMisses atomic.Uint64 // requests that had to simulate
	collapsed   atomic.Uint64 // requests and jobs that joined an in-flight computation
	simulations atomic.Uint64 // computations that got a worker slot, sync or async
	rejected    atomic.Uint64 // 429s issued under saturation
	deadlined   atomic.Uint64 // requests lost to their deadline or disconnect
	errored     atomic.Uint64 // 4xx/5xx other than the above
	inFlight    atomic.Int64  // simulations running right now (gauge)
	queued      atomic.Int64  // admitted simulations waiting for a worker (gauge)

	diskHits    atomic.Uint64 // cache hits served from the durable tier
	storeErrors atomic.Uint64 // failed disk-store writes (results stayed memory-only)

	jobsSubmitted atomic.Uint64 // 202-acknowledged job submissions
	jobsCompleted atomic.Uint64 // jobs that reached done
	jobsFailed    atomic.Uint64 // jobs that reached failed
	jobsActive    atomic.Int64  // jobs pending or running right now (gauge)
	jobsReplayed  atomic.Uint64 // incomplete jobs re-executed at startup

	lat     latencyWindow // request latencies, cache hits included (p50Ms/p99Ms)
	compute latencyWindow // simulation wall times, for the Retry-After estimate
}

// Stats is the JSON shape of GET /v1/stats.
type Stats struct {
	Requests     uint64  `json:"requests"`
	CacheHits    uint64  `json:"cacheHits"`
	CacheMisses  uint64  `json:"cacheMisses"`
	HitRate      float64 `json:"hitRate"`
	Collapsed    uint64  `json:"collapsed"`
	Simulations  uint64  `json:"simulations"`
	Rejected     uint64  `json:"rejected"`
	Deadlined    uint64  `json:"deadlined"`
	Errors       uint64  `json:"errors"`
	InFlight     int64   `json:"inFlight"`
	Queued       int64   `json:"queued"`
	CacheEntries int     `json:"cacheEntries"`
	P50Ms        float64 `json:"p50Ms"`
	P99Ms        float64 `json:"p99Ms"`
	Version      string  `json:"version"`
	UptimeSec    float64 `json:"uptimeSec"`

	// Durability gauges (zero without a StoreDir).
	DiskHits         uint64 `json:"diskHits"`
	StoreEntries     int    `json:"storeEntries"`
	StoreBytes       int64  `json:"storeBytes"`
	StoreRecovered   int    `json:"storeRecovered"`
	StoreQuarantined int    `json:"storeQuarantined"`
	StoreErrors      uint64 `json:"storeErrors"`
	JournalTorn      int    `json:"journalTorn"`

	// Async-job counters.
	JobsSubmitted uint64 `json:"jobsSubmitted"`
	JobsCompleted uint64 `json:"jobsCompleted"`
	JobsFailed    uint64 `json:"jobsFailed"`
	JobsActive    int64  `json:"jobsActive"`
	JobsReplayed  uint64 `json:"jobsReplayed"`
}

// snapshot folds the counters into the wire shape. hitRate is hits over
// terminal cache decisions (hits + misses); it reads 0 before any traffic.
func (s *serverStats) snapshot() Stats {
	hits, misses := s.cacheHits.Load(), s.cacheMisses.Load()
	out := Stats{
		Requests:    s.requests.Load(),
		CacheHits:   hits,
		CacheMisses: misses,
		Collapsed:   s.collapsed.Load(),
		Simulations: s.simulations.Load(),
		Rejected:    s.rejected.Load(),
		Deadlined:   s.deadlined.Load(),
		Errors:      s.errored.Load(),
		InFlight:    s.inFlight.Load(),
		Queued:      s.queued.Load(),

		DiskHits:    s.diskHits.Load(),
		StoreErrors: s.storeErrors.Load(),

		JobsSubmitted: s.jobsSubmitted.Load(),
		JobsCompleted: s.jobsCompleted.Load(),
		JobsFailed:    s.jobsFailed.Load(),
		JobsActive:    s.jobsActive.Load(),
		JobsReplayed:  s.jobsReplayed.Load(),
	}
	if hits+misses > 0 {
		out.HitRate = float64(hits) / float64(hits+misses)
	}
	out.P50Ms, out.P99Ms = s.lat.quantiles(0.50, 0.99)
	return out
}

// latencyWindowSize bounds the sliding window the latency quantiles are
// computed over; at high traffic the window simply reflects recent requests.
const latencyWindowSize = 4096

// latencyWindow is a fixed-size ring of recent latencies in milliseconds.
// Quantiles are computed on demand — /v1/stats is not a hot path — over a
// copy, so recording never blocks behind a sort.
type latencyWindow struct {
	mu   sync.Mutex
	ring [latencyWindowSize]float64
	n    int // total recorded (ring index = n % size)
}

// record adds one latency observation.
func (w *latencyWindow) record(ms float64) {
	w.mu.Lock()
	w.ring[w.n%latencyWindowSize] = ms
	w.n++
	w.mu.Unlock()
}

// quantiles returns the two requested quantiles (nearest-rank over the
// window), or zeros before any observation.
func (w *latencyWindow) quantiles(q1, q2 float64) (float64, float64) {
	w.mu.Lock()
	n := w.n
	if n > latencyWindowSize {
		n = latencyWindowSize
	}
	buf := make([]float64, n)
	copy(buf, w.ring[:n])
	w.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(buf)
	at := func(q float64) float64 {
		i := int(q * float64(n-1))
		return buf[i]
	}
	return at(q1), at(q2)
}
