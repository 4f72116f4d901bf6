// Package serve is the simulation-as-a-service layer of the PAS
// reproduction: a long-running HTTP/JSON daemon over the experiment harness,
// built around the determinism guarantee the rest of the repo pins — the
// same canonical spec and seed produce byte-identical output — so identical
// requests hit a content-addressed result store instead of a simulation.
//
// The request surface (all JSON):
//
//	POST /v1/runs       one (spec, seed) simulation → headline report
//	POST /v1/replicate  one spec × a seed list → aggregate with CIs
//	POST /v1/jobs       either of the above, asynchronously → 202 + job id
//	GET  /v1/scenarios  the registry, sorted by name, with content hashes
//	GET  /v1/stats      cache hit rate, queue depth, p50/p99 latency, ...
//	GET  /v1/healthz    liveness probe
//
// Results are keyed by SHA-256 over (code version, endpoint mode, canonical
// spec JSON, seed list) — scenario.Canonical materializes defaults and
// sorts keys, so every spelling of the same workload shares one cache line,
// and the code-version component keeps results from one build from leaking
// into the next. A request naming a registry scenario takes its canonical
// spec from the server's table (cache.go), which scenario.Canonical fills
// once per name and protocol, so a hit on it re-encodes nothing; an inline
// spec is canonicalized on every request. Every simulation request, sync or
// async, takes one path (engine.go): content key, memory tier, disk tier, the
// by-key index of in-flight computations, admission, guarded compute,
// persist. Concurrent requests for one key share one computation, which runs
// until its last waiter leaves. Only a new computation takes an admission
// slot — Workers running plus QueueDepth waiting — and a request needing one
// beyond that is rejected with 429 (backpressure, not unbounded queueing). A
// sync request waits under its deadline (504 on expiry); a job is the same
// submit with a journal entry fsynced before its 202.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/store"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// Workers caps concurrently executing simulations (0 = one per CPU).
	Workers int
	// QueueDepth bounds simulations admitted beyond the running Workers;
	// requests needing a simulation past Workers+QueueDepth are rejected
	// with 429 (0 = 4× Workers).
	QueueDepth int
	// DefaultTimeout applies when a request carries no timeoutSec (0 = 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied deadlines (0 = 2 min).
	MaxTimeout time.Duration
	// CacheEntries bounds the content-addressed result store (0 = 4096).
	CacheEntries int
	// Version overrides the code-version cache-key component. Empty uses
	// the build's VCS revision (module version when absent), so a rebuild
	// with different code cannot serve stale cached results.
	Version string
	// StoreDir, when non-empty, roots the durability tier: a disk-backed
	// content-addressed result store (StoreDir/results) behind the in-memory
	// LRU, and the async-jobs write-ahead journal (StoreDir/jobs.wal). With
	// it set, cache hits survive restarts (X-Cache: hit-disk) and every
	// 202-acknowledged job survives kill -9: on reopen the journal replays
	// incomplete jobs and determinism reproduces their byte-identical
	// results. Empty keeps the historical memory-only server (jobs still
	// work, but don't survive the process).
	StoreDir string
	// JobTimeout caps how long one async job waits for its result, from
	// submission (0 = 10 min). Async jobs are for runs too long for the
	// synchronous deadline discipline, so this is deliberately far above
	// MaxTimeout.
	JobTimeout time.Duration
}

// withDefaults materializes the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.Version == "" {
		c.Version = CodeVersion()
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	return c
}

// CodeVersion derives the cache-key code-version component from the build
// info: the VCS revision when the binary was built from a checkout, else the
// main module version, else "dev". Deterministic within one build, distinct
// across code changes — which is exactly what the cache key needs.
func CodeVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			return s.Value
		}
	}
	if v := bi.Main.Version; v != "" {
		return v
	}
	return "dev"
}

// Server is the passerve HTTP handler: a worker-pool front end over the
// experiment harness with a two-tier content-addressed result store (memory
// LRU over an optional durable disk store) and a journaled async-jobs
// subsystem. Construct with New; the zero value is not usable.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	work  chan struct{} // execution: Workers slots
	cache *resultCache
	specs specTable
	stats serverStats
	start time.Time

	// The engine's in-flight state (engine.go).
	mu       sync.Mutex
	inflight map[string]*computation // result key → live computation
	admitted int                     // computations holding an admission slot
	ctx      context.Context         // parent of every computation and job wait
	stop     context.CancelFunc      // called by Close, under mu
	wg       sync.WaitGroup          // computation and job goroutines

	// Durability tier (nil/zero without StoreDir).
	disk    *store.Store
	journal *store.Journal

	// Async jobs.
	jobs      jobTable
	draining  atomic.Bool
	drainCh   chan struct{} // closed when draining starts (ends status streams)
	drainOnce sync.Once
}

// New builds a Server from cfg (zero fields defaulted). With cfg.StoreDir
// set it opens the disk store (running its recovery scan) and the job
// journal, then replays every acknowledged-but-incomplete job: determinism
// makes re-execution idempotent, so the recovered results are byte-identical
// to what the dead process would have produced.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		work:     make(chan struct{}, cfg.Workers),
		cache:    newResultCache(cfg.CacheEntries),
		start:    time.Now(),
		inflight: make(map[string]*computation),
		drainCh:  make(chan struct{}),
	}
	s.ctx, s.stop = context.WithCancel(context.Background())
	s.jobs.init()
	s.mux.HandleFunc("POST /v1/runs", s.handleSim("run"))
	s.mux.HandleFunc("POST /v1/replicate", s.handleSim("replicate"))
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	if cfg.StoreDir != "" {
		disk, err := store.Open(filepath.Join(cfg.StoreDir, "results"))
		if err != nil {
			return nil, err
		}
		s.disk = disk
		journal, entries, err := store.OpenJournal(filepath.Join(cfg.StoreDir, "jobs.wal"))
		if err != nil {
			return nil, err
		}
		s.journal = journal
		s.replayJobs(entries)
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain performs the graceful half of shutdown: stop admitting new jobs,
// wait (bounded by ctx) for every in-flight job to finish, then fsync the
// journal and the store so nothing acknowledged rides only in page cache.
// Call it after http.Server.Shutdown has drained the request handlers.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
	for _, j := range s.jobs.unsettled() {
		select {
		case <-j.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if s.disk != nil {
		if err := s.disk.Sync(); err != nil {
			return err
		}
	}
	if s.journal != nil {
		if err := s.journal.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the server's background resources: every computation is
// cancelled and waited for, running jobs with them (their journal entries
// stay incomplete, so a reopened server re-executes them), and the journal
// handle closes. Tests and embedders should defer it; cmd/passerve prefers
// Drain first for a clean exit.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
	s.mu.Lock()
	s.stop() // under mu: no goroutine starts after this (see submit, startJob)
	s.mu.Unlock()
	s.wg.Wait()
	if s.journal != nil {
		return s.journal.Close()
	}
	return nil
}

// Stats returns a point-in-time snapshot of the serving counters (the same
// data GET /v1/stats reports).
func (s *Server) Stats() Stats {
	st := s.stats.snapshot()
	st.CacheEntries = s.cache.len()
	st.Version = s.cfg.Version
	st.UptimeSec = time.Since(s.start).Seconds()
	if s.disk != nil {
		ds := s.disk.Stats()
		st.StoreEntries = ds.Entries
		st.StoreBytes = ds.Bytes
		st.StoreRecovered = ds.Recovered
		st.StoreQuarantined = ds.Quarantined
	}
	if s.journal != nil {
		st.JournalTorn = s.journal.Torn()
	}
	return st
}

// --- request plumbing ---

// Stable machine-readable error codes. Every 4xx/5xx body is
// {"code": <one of these>, "error": <human message>}; the code set is the
// contract the pasclient retry policy switches on, so codes may be added but
// never renamed or repurposed.
const (
	// CodeBadRequest: the request is malformed or semantically invalid.
	// Permanent — retrying the same bytes cannot succeed.
	CodeBadRequest = "bad_request"
	// CodeNotFound: unknown scenario or job ID. Permanent for scenarios; for
	// jobs it can also mean "ask a different replica".
	CodeNotFound = "not_found"
	// CodeSaturated: the bounded queue was full. Transient — retry after the
	// Retry-After header's delay.
	CodeSaturated = "saturated"
	// CodeDeadline: the request deadline expired (or the client vanished)
	// before the simulation finished. Transient under load; a request that
	// is simply too slow for its budget will deadline again.
	CodeDeadline = "deadline"
	// CodePanic: the simulation panicked. Deterministic, hence permanent —
	// the identical request will panic identically.
	CodePanic = "panic"
	// CodeInternal: an unexpected server-side failure. Transient by default.
	CodeInternal = "internal"
	// CodeNotReady: the job exists but has not finished; its result is not
	// yet fetchable. Transient by construction.
	CodeNotReady = "not_ready"
	// CodeJobFailed: the job ran and failed; its result will never exist.
	// Permanent (determinism again).
	CodeJobFailed = "job_failed"
	// CodeDraining: the server is shutting down and no longer admits jobs.
	// Transient — retry against a live replica (or the restarted process).
	CodeDraining = "draining"
)

// errSaturated reports that the bounded queue was full; it maps to 429.
var errSaturated = errors.New("serve: saturated: all workers busy and queue full")

// errClosed refuses work that arrives after Close has begun.
var errClosed = &httpError{status: http.StatusServiceUnavailable, code: CodeDraining, msg: "server is shutting down"}

// httpError is a JSON error with a status and a stable machine-readable code.
type httpError struct {
	status int
	code   string
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, code: CodeBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) *httpError {
	return &httpError{status: http.StatusNotFound, code: CodeNotFound, msg: fmt.Sprintf(format, args...)}
}

// simRequest is the shared shape of the two simulation endpoints.
type simRequest struct {
	// Scenario is an inline spec (the scenario.Scenario JSON form) —
	// mutually exclusive with Name.
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// Name selects a registry scenario.
	Name string `json:"name,omitempty"`
	// Protocol optionally overrides the spec's protocol pin
	// (pas/sas/ns/duty; empty defers to the spec, then to pas).
	Protocol string `json:"protocol,omitempty"`
	// Seed is the single-run seed (POST /v1/runs).
	Seed int64 `json:"seed,omitempty"`
	// Seeds / Reps select the replication seed list (POST /v1/replicate):
	// explicit seeds win, Reps means seeds 1..Reps, default 8 runs.
	Seeds []int64 `json:"seeds,omitempty"`
	Reps  int     `json:"reps,omitempty"`
	// TimeoutSec is the per-request deadline in seconds, clamped to the
	// server's MaxTimeout (0 = server default).
	TimeoutSec float64 `json:"timeoutSec,omitempty"`
	// Shards is how many spatially partitioned kernels execute the
	// simulation (experiment.RunConfig.Shards); 0 and 1 both mean one kernel,
	// which runs every spec. Output is bit-identical at any shard count, so
	// Shards is an execution hint and deliberately NOT part of the result
	// key; a spec that cannot split across two or more kernels (lossy
	// channel, collisions, CSMA, faults) is rejected with 400.
	Shards int `json:"shards,omitempty"`
}

// resolveSpec turns the request's scenario selection into a validated spec
// with the effective protocol materialized into it, so the canonical
// encoding — and therefore the cache key — covers the protocol choice.
func (s *Server) resolveSpec(req simRequest) (scenario.Scenario, error) {
	var sp scenario.Scenario
	switch {
	case req.Name != "" && len(req.Scenario) > 0:
		return sp, badRequest("request carries both name %q and an inline scenario; send one", req.Name)
	case req.Name != "":
		var ok bool
		if sp, ok = scenario.Lookup(req.Name); !ok {
			return sp, notFound("unknown scenario %q (GET /v1/scenarios lists the registry)", req.Name)
		}
	case len(req.Scenario) > 0:
		var err error
		if sp, err = scenario.Decode(req.Scenario); err != nil {
			return sp, badRequest("%v", err)
		}
	default:
		return sp, badRequest(`request needs "name" or an inline "scenario"`)
	}
	switch req.Protocol {
	case "":
	case experiment.ProtoPAS, experiment.ProtoSAS, experiment.ProtoNS, experiment.ProtoDuty:
		sp.Protocol.Name = req.Protocol
	default:
		return sp, badRequest("unknown protocol %q (pas, sas, ns or duty)", req.Protocol)
	}
	if sp.Protocol.Name == "" {
		sp.Protocol.Name = experiment.ProtoPAS // materialize the default into the key
	}
	return sp, nil
}

// timeout resolves the request deadline.
func (s *Server) timeout(req simRequest) time.Duration {
	d := s.cfg.DefaultTimeout
	if req.TimeoutSec > 0 {
		// Clamp in seconds first: converting a huge TimeoutSec to a Duration
		// overflows into a negative deadline.
		d = s.cfg.MaxTimeout
		if req.TimeoutSec < d.Seconds() {
			d = time.Duration(req.TimeoutSec * float64(time.Second))
		}
	}
	return min(d, s.cfg.MaxTimeout)
}

// resultKey derives the content address of a request: SHA-256 over the code
// version, endpoint mode, canonical spec and seed list, hex-encoded. Two
// requests share a key iff determinism guarantees they share a byte-
// identical response body.
func resultKey(version, mode string, canon []byte, seeds ...int64) string {
	buf := make([]byte, 0, len(version)+len(mode)+len(canon)+3+8*len(seeds))
	buf = append(append(buf, version...), 0)
	buf = append(append(buf, mode...), 0)
	buf = append(append(buf, canon...), 0)
	for _, seed := range seeds {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(seed))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// writeBody emits a stored/fresh result body verbatim. The cache disposition
// travels in a header, never in the body, so hits stay byte-identical to the
// miss that produced them.
func (s *Server) writeBody(w http.ResponseWriter, start time.Time, key string, body []byte, disposition string) {
	s.stats.lat.record(float64(time.Since(start)) / float64(time.Millisecond))
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Cache", disposition)
	h.Set("X-Result-Key", key)
	w.Write(body)
}

// writeError maps an error to its HTTP status and a JSON body of the shape
// {"code": <stable machine-readable code>, "error": <human message>} — the
// same shape for every 4xx/5xx the server emits, so clients switch on code,
// never on message text.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var he *httpError
	status, code := http.StatusInternalServerError, CodeInternal
	switch {
	case errors.As(err, &he):
		status, code = he.status, he.code
	case errors.Is(err, errSaturated):
		status, code = http.StatusTooManyRequests, CodeSaturated
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		s.stats.rejected.Add(1)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The request deadline expired (or the client went away) before the
		// simulation finished.
		status, code = http.StatusGatewayTimeout, CodeDeadline
		s.stats.deadlined.Add(1)
	}
	if status != http.StatusTooManyRequests && status != http.StatusGatewayTimeout {
		s.stats.errored.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Code: code, Error: err.Error()})
}

// errorBody is the wire shape of every error response.
type errorBody struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// retryAfterSeconds estimates how long a 429'd client should wait before
// retrying: the simulations already admitted (queued plus in flight) drain
// across the worker pool at roughly the median compute time, plus one
// median compute for the retry itself. The request-latency window would not
// do: its cache hits take microseconds and drag the median toward zero.
// Floored at the historical 1 s constant, which also covers a cold server
// with no compute history.
func (s *Server) retryAfterSeconds() int {
	p50, _ := s.stats.compute.quantiles(0.50, 0.99)
	ahead := s.stats.queued.Load() + s.stats.inFlight.Load()
	secs := int(math.Ceil(p50 / 1000 * (float64(ahead)/float64(s.cfg.Workers) + 1)))
	if secs < 1 {
		secs = 1
	}
	return secs
}
