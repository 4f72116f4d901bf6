package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/store"
)

// callers is the closed loop's client count: each waits for its reply
// before sending the next request.
const callers = 2

// hotKeys is the size of the hot set, warmed during set-up.
const hotKeys = 32

// serveSegment is the number of requests the closed loop sends between two
// samples of the host's speed.
const serveSegment = 500

// The request mix, in percent. The repository has no traffic logs, so the
// mix is an assumption: mostly repeated keys, a third cold runs, and a tenth
// async jobs.
const (
	hitPct  = 55
	missPct = 35
)

// Request kinds of the schedule.
const (
	kindHit = iota
	kindMiss
	kindJob
)

var kindNames = [...]string{kindHit: "hit", kindMiss: "miss", kindJob: "job"}

// wantCache is the X-Cache answer a run request of each kind must get.
var wantCache = [...]string{kindHit: "hit-mem", kindMiss: "miss"}

// request is one entry of the serve-mixed schedule: a paper-scale run of
// one seed, asked for synchronously or as an async job.
type request struct {
	kind int
	seed int64
}

// schedule draws n requests from seed: hits pick a key of the hot set,
// misses and jobs take fresh seeds counting up from fresh.
func schedule(seed int64, n int, hot []int64, fresh int64) []request {
	rnd := rand.New(rand.NewPCG(uint64(seed), 0x5e12e))
	out := make([]request, n)
	for i := range out {
		switch u := rnd.IntN(100); {
		case u < hitPct:
			out[i] = request{kindHit, hot[rnd.IntN(len(hot))]}
		case u < hitPct+missPct:
			out[i] = request{kindMiss, fresh}
			fresh++
		default:
			out[i] = request{kindJob, fresh}
			fresh++
		}
	}
	return out
}

// liveServer is an in-process server on a loopback listener.
type liveServer struct {
	srv  *serve.Server
	http *http.Server
	addr string
	dir  string
	done chan error // receives Serve's return once it has stopped
}

// startServer builds a durable server on a fresh store directory and serves
// it on a loopback port.
func startServer(dir string) (*liveServer, error) {
	srv, err := serve.New(serve.Config{StoreDir: dir})
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: srv, dir: dir}
	if err := ls.listen(srv); err != nil {
		srv.Close()
		return nil, err
	}
	return ls, nil
}

// listen serves h on a new loopback listener, replacing any earlier one.
func (ls *liveServer) listen(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ls.http = &http.Server{Handler: h}
	ls.addr = "http://" + ln.Addr().String()
	ls.done = make(chan error, 1)
	go func() { ls.done <- ls.http.Serve(ln) }()
	return nil
}

// stopListening shuts the HTTP server down and waits for it to stop.
func (ls *liveServer) stopListening(ctx context.Context) error {
	err := ls.http.Shutdown(ctx)
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// close stops the listener, drains and closes the server.
func (ls *liveServer) close(ctx context.Context) error {
	err := ls.stopListening(ctx)
	if derr := ls.srv.Drain(ctx); err == nil {
		err = derr
	}
	if cerr := ls.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// sample is one completed (or failed) client operation.
type sample struct {
	req   request
	class string // X-Cache of a run request; "job" for a job
	ms    float64
	err   error
}

// ledger is what one server has served, across every client of a run: the
// first body per result key, and the correctness violations seen.
type ledger struct {
	mu     sync.Mutex
	bodies map[string][]byte // result key → first body served for it
	keys   map[int64]string  // seed → result key
	bad    []string
}

func newLedger() *ledger {
	return &ledger{bodies: map[string][]byte{}, keys: map[int64]string{}}
}

func (l *ledger) violation(format string, args ...any) {
	l.mu.Lock()
	l.bad = append(l.bad, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// client issues the benchmark's requests. It never retries: a failed
// request is counted, not hidden.
type client struct {
	hc   *http.Client
	base string
	rec  *recorder // nil when untraced
	*ledger
}

func newClient(base string, l *ledger) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * callers, DisableCompression: true},
			Timeout:   time.Minute,
		},
		base:   base,
		ledger: l,
	}
}

// send performs one HTTP exchange and reads the whole body. With a
// recorder it opens a span named name under parent and hands its index to
// the traced handler in a header.
func (c *client) send(method, path string, body []byte, name string, trace int64, parent int) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.rec != nil {
		i := c.rec.begin(name, trace, parent)
		defer c.rec.end(i)
		req.Header.Set(spanHeader, strconv.Itoa(i))
		req.Header.Set(traceHeader, strconv.FormatInt(trace, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp, nil, err
	}
	if resp.StatusCode >= 500 {
		c.violation("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp, data, nil
}

func runBody(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"name":"paper","seed":%d}`, seed))
}

// run posts one synchronous run, recorded as span name when traced, and
// returns its X-Cache disposition.
func (c *client) run(seed int64, name string, trace int64) (string, error) {
	resp, data, err := c.send("POST", "/v1/runs", runBody(seed), name, trace, -1)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("POST /v1/runs seed %d: status %d", seed, resp.StatusCode)
	}
	c.checkBody(seed, resp.Header.Get("X-Result-Key"), data)
	return resp.Header.Get("X-Cache"), nil
}

// job submits one async run, follows its status stream to the end and
// fetches the result.
func (c *client) job(seed int64, trace int64, parent int) error {
	resp, data, err := c.send("POST", "/v1/jobs", []byte(fmt.Sprintf(`{"mode":"run","name":"paper","seed":%d}`, seed)),
		"client.submit", trace, parent)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /v1/jobs seed %d: status %d", seed, resp.StatusCode)
	}
	var ack struct{ ID string }
	if err := json.Unmarshal(data, &ack); err != nil || ack.ID == "" {
		return fmt.Errorf("POST /v1/jobs seed %d: bad acknowledgment %q", seed, data)
	}
	resp, data, err = c.send("GET", "/v1/jobs/"+ack.ID+"?stream=1", nil, "client.stream", trace, parent)
	if err != nil {
		return err
	}
	var last struct{ State string }
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return fmt.Errorf("job %s: bad status line %q", ack.ID, sc.Bytes())
		}
	}
	if resp.StatusCode != http.StatusOK || last.State != "done" {
		return fmt.Errorf("job %s: status %d, final state %q", ack.ID, resp.StatusCode, last.State)
	}
	resp, data, err = c.send("GET", "/v1/jobs/"+ack.ID+"/result", nil, "client.result", trace, parent)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("job %s result: status %d", ack.ID, resp.StatusCode)
	}
	c.checkBody(seed, resp.Header.Get("X-Result-Key"), data)
	return nil
}

// checkBody checks one served result: the key header matches the body's
// key and seed, and every body served for one key is byte-identical.
func (l *ledger) checkBody(seed int64, key string, data []byte) {
	var body struct {
		Key  string
		Seed int64
	}
	if err := json.Unmarshal(data, &body); err != nil || body.Key != key || body.Seed != seed {
		l.violation("seed %d: body key %q seed %d does not match X-Result-Key %q (%v)", seed, body.Key, body.Seed, key, err)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.keys[seed] = key
	if prev, ok := l.bodies[key]; !ok {
		l.bodies[key] = data
	} else if !bytes.Equal(prev, data) {
		l.bad = append(l.bad, fmt.Sprintf("key %s: bodies served for one key differ", key))
	}
}

// do performs one scheduled request and times it.
func (c *client) do(q request, trace int64) sample {
	t0 := time.Now()
	s := sample{req: q, class: "job"}
	if q.kind == kindJob {
		root := -1
		if c.rec != nil {
			root = c.rec.begin("client.job", trace, -1)
		}
		s.err = c.job(q.seed, trace, root)
		if c.rec != nil {
			c.rec.end(root)
		}
	} else {
		s.class, s.err = c.run(q.seed, "client."+kindNames[q.kind], trace)
		if s.err == nil && s.class != wantCache[q.kind] {
			c.violation("%s request for seed %d answered X-Cache %q", kindNames[q.kind], q.seed, s.class)
		}
	}
	s.ms = float64(time.Since(t0)) / 1e6
	return s
}

// loop runs the schedule on a closed loop of callers and returns every
// sample, in completion order per caller, and the wall time in seconds. A
// request's trace id is its index in the schedule.
func (c *client) loop(ctx context.Context, sched []request) ([]sample, float64, error) {
	var next atomic.Int64
	out := make([][]sample, callers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(len(sched)) {
					return
				}
				out[w] = append(out[w], c.do(sched[i], i))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all, wall, ctx.Err()
}

// serveMixed drives a durable in-process server over loopback with a
// seeded mix of hot runs, cold runs and async jobs.
func serveMixed(r *run) error {
	base := seedBase(r.seed)
	var ls *liveServer
	var led *ledger
	var hot []int64
	for k := 0; k < r.setups; k++ {
		if ls != nil {
			if err := ls.close(r.ctx); err != nil {
				return err
			}
			os.RemoveAll(ls.dir)
		}
		dir := filepath.Join(r.workdir, fmt.Sprintf("serve-%d-%d", os.Getpid(), k))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		err := r.timeSetup(func() (err error) {
			if ls, err = startServer(dir); err != nil {
				return err
			}
			// Each set-up warms its own hot set, so that each draws
			// fresh deployments like the first.
			hot = seedBlock(base+int64(k*hotKeys), hotKeys)
			led = newLedger()
			c := newClient(ls.addr, led)
			defer c.hc.CloseIdleConnections()
			for _, seed := range hot {
				if _, err := c.run(seed, "client.warm", 0); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			if ls != nil {
				ls.close(context.Background())
			}
			return err
		}
	}
	defer os.RemoveAll(ls.dir)
	fresh := base + int64(r.setups*hotKeys)
	sched := schedule(r.seed, r.ops, hot, fresh)

	// The closed loop runs in segments with a collection and a reference
	// pass before each, so that the host's speed is sampled through the run.
	c := newClient(ls.addr, led)
	var samples []sample
	var wall float64
	var err error
	for lo := 0; lo < len(sched) && err == nil; lo += serveSegment {
		if err = r.quiesce(); err != nil {
			break
		}
		var s []sample
		var w float64
		s, w, err = c.loop(r.ctx, sched[lo:min(lo+serveSegment, len(sched))])
		samples, wall = append(samples, s...), wall+w
	}
	c.hc.CloseIdleConnections()
	if err != nil {
		ls.close(context.Background())
		return err
	}
	byClass := map[string][]float64{}
	var all []float64
	for _, s := range samples {
		r.attempted++
		if s.err != nil {
			r.failed++
			r.problem("%s request for seed %d failed: %v", kindNames[s.req.kind], s.req.seed, s.err)
			continue
		}
		r.completed++
		all = append(all, s.ms)
		byClass[s.class] = append(byClass[s.class], s.ms)
	}
	// The operation whose median is reported is the hot-key request, the
	// majority of the mix: the median of the whole mix would sit on the
	// edge between hits and misses. Cold runs and jobs weigh in serve.rps.
	r.lat = byClass["hit-mem"]
	for _, class := range []string{"hit-mem", "miss", "job"} {
		if n := len(byClass[class]); n < 1000 {
			r.problem("serve-mixed: %d %s samples, want at least 1000 for a p99", n, class)
		}
	}
	crossCheck(r, c, sched)
	if r.trace {
		// Requests per second of the whole mix in the closed loop. It follows
		// the fsync latency of the store's disk, which varies between runs
		// on a shared host, so it is reported here rather than bounded.
		r.layer["serve.rps"] = float64(r.completed) / wall
		name := map[string]string{"hit-mem": "hit", "miss": "miss", "job": "job"}
		for class, xs := range byClass {
			r.layer["serve."+name[class]+"_p50_ms"] = median(xs)
			r.layer["serve."+name[class]+"_p99_ms"] = p99(xs)
		}
		if err := traceServe(r, ls, led, hot, fresh+int64(len(sched)), sum(all)/float64(len(all))); err != nil {
			ls.close(context.Background())
			return err
		}
	}
	for _, v := range led.bad {
		r.problem("%s", v)
	}
	if err := ls.close(r.ctx); err != nil {
		return err
	}
	if !r.trace {
		return nil
	}
	// The recovery scan a restarted server would run over every record
	// this run wrote.
	var st *store.Store
	i := r.rec.timed("store.open", -1, -1, func() { st, err = store.Open(filepath.Join(ls.dir, "results")) })
	if err != nil {
		return err
	}
	r.layer["store.open_ms"] = float64(r.rec.snapshot()[i].dur()) / 1e6
	if st.Len() != len(led.bodies) {
		r.problem("store reopened with %d records, want the %d distinct results served", st.Len(), len(led.bodies))
	}
	return nil
}

// crossCheck serves a sample of keys on the other path — each job's key
// as a synchronous run and each miss's key as a job — so that one key is
// compared across hit, miss and job result, and checks a sample of bodies
// against a run of the harness. It runs outside the timed phase.
func crossCheck(r *run, c *client, sched []request) {
	const each = 10
	var jobs, misses int
	for _, q := range sched {
		switch {
		case q.kind == kindJob && jobs < each:
			jobs++
			// Early keys may have left the memory tier for the disk tier.
			if class, err := c.run(q.seed, "client.check", 0); err != nil || (class != "hit-mem" && class != "hit-disk") {
				r.problem("job seed %d as a run: X-Cache %q, %v", q.seed, class, err)
			}
		case q.kind == kindMiss && misses < each:
			misses++
			if err := c.job(q.seed, 0, -1); err != nil {
				r.problem("miss seed %d as a job: %v", q.seed, err)
			}
			oracle(r, c.ledger, q.seed)
		}
	}
}

// oracle compares the served report for seed with experiment.RunOnce.
func oracle(r *run, l *ledger, seed int64) {
	sp, _ := scenario.Lookup("paper")
	sp.Protocol.Name = experiment.ProtoPAS
	rc, err := experiment.FromScenario(sp, seed)
	var rep metrics.RunReport
	if err == nil {
		rep, err = experiment.RunOnce(rc)
	}
	if err != nil {
		r.problem("oracle run of seed %d: %v", seed, err)
		return
	}
	if !l.served(seed, rep) {
		r.problem("served report for seed %d differs from experiment.RunOnce", seed)
	}
}

// result returns the key and body served for seed.
func (l *ledger) result(seed int64) (string, []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	key := l.keys[seed]
	return key, l.bodies[key]
}

// served reports whether the body served for seed carries rep's headline
// numbers.
func (l *ledger) served(seed int64, rep metrics.RunReport) bool {
	_, data := l.result(seed)
	var body serve.RunResponse
	if json.Unmarshal(data, &body) != nil || body.Seed != seed {
		return false
	}
	got := body.Report
	return got.AvgDelay == rep.AvgDelay && got.P95Delay == rep.P95Delay && got.MaxDelay == rep.MaxDelay &&
		got.AvgEnergyJ == rep.AvgEnergyJ && got.AvgDuty == rep.AvgDuty && got.Detected == rep.Detected &&
		got.Reached == rep.Reached && got.Missed == rep.Missed && got.Messages == rep.Messages
}

// Headers carrying a traced request's client span and trace id to the
// handler wrapper.
const (
	spanHeader  = "X-Perfbench-Span"
	traceHeader = "X-Perfbench-Trace"
)

// tracedHandler records a span around Server.ServeHTTP, the child of the
// client span named in the request.
type tracedHandler struct {
	rec  *recorder
	next http.Handler
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	parent, err := strconv.Atoi(req.Header.Get(spanHeader))
	if err != nil {
		parent = -1
	}
	trace, _ := strconv.ParseInt(req.Header.Get(traceHeader), 10, 64)
	i := h.rec.begin("serve.handler", trace, parent)
	h.next.ServeHTTP(w, req)
	h.rec.end(i)
}

// traceServe repeats the mix on fresh seeds through a traced listener, then
// times the layers a request crosses by calling them directly with the
// same inputs. untracedMean is the mean request latency of the untraced
// phase, in milliseconds.
func traceServe(r *run, ls *liveServer, led *ledger, hot []int64, fresh int64, untracedMean float64) error {
	rec := newRecorder()
	r.rec = rec
	if err := ls.stopListening(r.ctx); err != nil {
		return err
	}
	if err := ls.listen(tracedHandler{rec, ls.srv}); err != nil {
		return err
	}
	sched := schedule(r.seed+1, max(1000, r.ops/5), hot, fresh)
	before := ls.srv.Stats()
	c := newClient(ls.addr, led)
	c.rec = rec
	var samples []sample
	err := r.traceMem(func() (err error) {
		samples, _, err = c.loop(r.ctx, sched)
		return err
	})
	c.hc.CloseIdleConnections()
	if err != nil {
		return err
	}
	after := ls.srv.Stats()
	var traced []float64
	for _, s := range samples {
		r.attempted++
		if s.err != nil {
			r.failed++
			r.problem("traced %s request for seed %d failed: %v", kindNames[s.req.kind], s.req.seed, s.err)
			continue
		}
		traced = append(traced, s.ms)
	}
	r.traceOverhead(sum(traced)/float64(len(traced)), untracedMean)

	spans := rec.snapshot()
	handler := map[string][]float64{}
	var httpUs, handlerNs, clientNs []float64
	for _, s := range spans {
		if s.Name != "serve.handler" || s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		handler[p.Name] = append(handler[p.Name], float64(s.dur())/1e6)
		handlerNs = append(handlerNs, float64(s.dur()))
		clientNs = append(clientNs, float64(p.dur()))
		if p.Name == "client.hit" {
			httpUs = append(httpUs, float64(p.dur()-s.dur())/1e3)
		}
	}
	r.layer["serve.handler_hit_us"] = median(handler["client.hit"]) * 1e3
	r.layer["serve.handler_miss_ms"] = median(handler["client.miss"])
	r.layer["serve.handler_submit_ms"] = median(handler["client.submit"])
	r.layer["serve.http_us"] = median(httpUs)
	r.layer["trace.cover_frac"] = sum(handlerNs) / sum(clientNs)
	dh, dm := float64(after.CacheHits-before.CacheHits), float64(after.CacheMisses-before.CacheMisses)
	r.layer["serve.hit_frac"] = dh / (dh + dm)
	r.layer["serve.sims_per_miss"] = float64(after.Simulations-before.Simulations) / dm
	r.layer["serve.collapsed"] = float64(after.Collapsed - before.Collapsed)
	r.layer["serve.rejected"] = float64(after.Rejected - before.Rejected)
	return probeLayers(r, rec, sched, c, ls.dir+"-probe")
}

// probeRuns bounds the cold runs and store writes the probes repeat.
const probeRuns = 200

// probeLayers times, outside any request, the layer calls a request makes
// inside the server, with the traced phase's inputs: canonicalization of
// every request's spec, compilation of every cold run, one direct
// simulation per cold run, and store and journal writes of the served
// bodies on the run's filesystem, in dir.
func probeLayers(r *run, rec *recorder, sched []request, c *client, dir string) error {
	sp, _ := scenario.Lookup("paper")
	sp.Protocol.Name = experiment.ProtoPAS
	var canon []byte
	var err error
	for i := range sched {
		rec.timed("scenario.canonical", int64(i), -1, func() { canon, err = scenario.Canonical(sp) })
		if err != nil {
			return err
		}
	}
	var total simCounters
	var cold []request
	for i, q := range sched {
		if q.kind == kindHit {
			continue
		}
		cold = append(cold, q)
		var rc experiment.RunConfig
		rec.timed("experiment.compile", int64(i), -1, func() { rc, err = experiment.FromScenario(sp, q.seed) })
		if err != nil {
			return err
		}
		if len(cold) > probeRuns {
			continue
		}
		dep, topo := tracedTopology(rec, int64(i), -1, rc)
		rep, cnt, err := tracedSim(r.ctx, rec, int64(i), -1, rc, dep, topo, 0)
		if err != nil {
			return err
		}
		total.add(cnt)
		if !c.served(q.seed, rep) {
			r.problem("direct run of seed %d differs from the body served for it", q.seed)
		}
	}
	spans := rec.snapshot()
	simLayers(r.layer, spans, total)
	r.layer["scenario.canonical_us"] = median(durations(spans, "scenario.canonical")) * 1e3
	r.layer["experiment.compile_us"] = median(durations(spans, "experiment.compile")) * 1e3

	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "results"))
	if err != nil {
		return err
	}
	jr, _, err := store.OpenJournal(filepath.Join(dir, "jobs.wal"))
	if err != nil {
		return err
	}
	defer jr.Close()
	for i, q := range cold[:min(len(cold), probeRuns)] {
		key, body := c.result(q.seed)
		rec.timed("store.put", int64(i), -1, func() { err = st.Put(key, body) })
		if err != nil {
			return err
		}
		if q.kind != kindJob {
			continue
		}
		id := fmt.Sprintf("j%d", i)
		for _, e := range []store.JobEntry{
			{ID: id, Op: store.OpSubmit, Mode: "run", Key: key, Spec: canon, Seeds: []int64{q.seed}},
			{ID: id, Op: store.OpDone, Key: key},
		} {
			rec.timed("store.journal_append", int64(i), -1, func() { err = jr.Append(e) })
			if err != nil {
				return err
			}
		}
	}
	spans = rec.snapshot()
	r.layer["store.put_ms"] = median(durations(spans, "store.put"))
	r.layer["store.journal_append_ms"] = median(durations(spans, "store.journal_append"))
	return nil
}
