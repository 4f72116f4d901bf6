package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// testServer starts a passerve instance with test-friendly sizing.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.Version == "" {
		cfg.Version = "test"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// mustNew builds a bare server for tests that never serve traffic.
func mustNew(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// post sends a JSON body and returns the response with its body read.
func post(t *testing.T, url, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// get fetches a path and returns the response with its body read.
func get(t *testing.T, url, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := get(t, ts.URL, "/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("body = %s, want ok", body)
	}
}

// TestScenariosSortedWithHashes pins the registry listing: sorted by name,
// every registry entry present, every hash the canonical content hash.
func TestScenariosSortedWithHashes(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := get(t, ts.URL, "/v1/scenarios")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out struct {
		Scenarios []ScenarioInfo `json:"scenarios"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	all := scenario.All()
	if len(out.Scenarios) != len(all) {
		t.Fatalf("listed %d scenarios, registry has %d", len(out.Scenarios), len(all))
	}
	if !sort.SliceIsSorted(out.Scenarios, func(i, j int) bool {
		return out.Scenarios[i].Name < out.Scenarios[j].Name
	}) {
		t.Fatal("scenario listing is not sorted by name")
	}
	byName := map[string]ScenarioInfo{}
	for _, info := range out.Scenarios {
		byName[info.Name] = info
	}
	for _, sp := range all {
		info, ok := byName[sp.Name]
		if !ok {
			t.Fatalf("registry scenario %q missing from listing", sp.Name)
		}
		want, err := scenario.Hash(sp)
		if err != nil {
			t.Fatal(err)
		}
		if info.Hash != want {
			t.Fatalf("scenario %q hash = %s, want %s", sp.Name, info.Hash, want)
		}
	}
}

// TestRunCacheHit pins the core content-addressing contract: the second
// identical request is a cache hit with a byte-identical body.
func TestRunCacheHit(t *testing.T) {
	s, ts := testServer(t, Config{})
	req := `{"name":"paper","seed":1}`
	resp1, body1 := post(t, ts.URL, "/v1/runs", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%s)", resp1.StatusCode, body1)
	}
	if c := resp1.Header.Get("X-Cache"); c != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", c)
	}
	resp2, body2 := post(t, ts.URL, "/v1/runs", req)
	if c := resp2.Header.Get("X-Cache"); c != "hit-mem" {
		t.Fatalf("second X-Cache = %q, want hit-mem", c)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached body differs from computed body:\n%s\n%s", body1, body2)
	}
	var rr RunResponse
	if err := json.Unmarshal(body1, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Scenario != "paper" || rr.Protocol != "pas" || rr.Seed != 1 {
		t.Fatalf("echo fields wrong: %+v", rr)
	}
	if rr.Key != resp1.Header.Get("X-Result-Key") {
		t.Fatal("body key and X-Result-Key header disagree")
	}
	if rr.Report.Detected == 0 || rr.Report.AvgEnergyJ <= 0 {
		t.Fatalf("implausible report: %+v", rr.Report)
	}
	st := s.Stats()
	if st.Simulations != 1 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats = %+v, want 1 simulation, 1 hit, 1 miss", st)
	}
	if st.HitRate != 0.5 {
		t.Fatalf("hitRate = %g, want 0.5", st.HitRate)
	}
	if st.CacheEntries != 1 {
		t.Fatalf("cacheEntries = %d, want 1", st.CacheEntries)
	}
}

// TestRunInlineSpellingSharesCacheLine pins canonicalization reaching the
// key: an inline spec that spells the paper scenario differently (explicit
// defaults) shares the registry entry's cache line.
func TestRunInlineSpellingSharesCacheLine(t *testing.T) {
	s, ts := testServer(t, Config{})
	resp1, body1 := post(t, ts.URL, "/v1/runs", `{"name":"paper","seed":3}`)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("by-name status = %d (%s)", resp1.StatusCode, body1)
	}
	sp, _ := scenario.Lookup("paper")
	sp.Deployment.Kind = scenario.DeployUniform // explicit default spelling
	sp.Radio.Loss = scenario.LossUnit
	sp.Protocol.Name = "pas"
	spec, err := sp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp2, body2 := post(t, ts.URL, "/v1/runs",
		fmt.Sprintf(`{"scenario":%s,"seed":3}`, spec))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("inline status = %d (%s)", resp2.StatusCode, body2)
	}
	if c := resp2.Header.Get("X-Cache"); c != "hit-mem" {
		t.Fatalf("inline respelling X-Cache = %q, want hit-mem (keys %s vs %s)",
			c, resp1.Header.Get("X-Result-Key"), resp2.Header.Get("X-Result-Key"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("inline respelling body differs from by-name body")
	}
	if st := s.Stats(); st.Simulations != 1 {
		t.Fatalf("simulations = %d, want 1", st.Simulations)
	}
}

// TestRunKeySensitivity pins that protocol, seed and mode all reach the key.
func TestRunKeySensitivity(t *testing.T) {
	_, ts := testServer(t, Config{})
	keys := map[string]string{}
	for name, req := range map[string]string{
		"pas-seed1": `{"name":"paper","seed":1}`,
		"sas-seed1": `{"name":"paper","seed":1,"protocol":"sas"}`,
		"pas-seed2": `{"name":"paper","seed":2}`,
	} {
		resp, body := post(t, ts.URL, "/v1/runs", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", name, resp.StatusCode, body)
		}
		keys[name] = resp.Header.Get("X-Result-Key")
	}
	// Replicate at seed 1 must not collide with the run at seed 1.
	resp, body := post(t, ts.URL, "/v1/replicate", `{"name":"paper","seeds":[1]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replicate: status %d (%s)", resp.StatusCode, body)
	}
	keys["replicate-seed1"] = resp.Header.Get("X-Result-Key")
	seen := map[string]string{}
	for name, k := range keys {
		if len(k) != 64 {
			t.Fatalf("%s: key %q is not a sha256 hex digest", name, k)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision between %s and %s", prev, name)
		}
		seen[k] = name
	}
}

// TestReplicate pins the aggregate endpoint: deterministic bodies, echoed
// seeds, finite right-censored lifetime.
func TestReplicate(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := `{"name":"paper","seeds":[1,2]}`
	resp1, body1 := post(t, ts.URL, "/v1/replicate", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp1.StatusCode, body1)
	}
	resp2, body2 := post(t, ts.URL, "/v1/replicate", req)
	if c := resp2.Header.Get("X-Cache"); c != "hit-mem" {
		t.Fatalf("second X-Cache = %q, want hit-mem", c)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("replicate repeat body differs")
	}
	var rr ReplicateResponse
	if err := json.Unmarshal(body1, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Seeds) != 2 || rr.Seeds[0] != 1 || rr.Seeds[1] != 2 {
		t.Fatalf("seeds = %v, want [1 2]", rr.Seeds)
	}
	if rr.Delay.Mean <= 0 || rr.Energy.Mean <= 0 {
		t.Fatalf("implausible aggregate: %+v", rr)
	}
	if rr.FirstDeath.Mean != 140 { // no batteries: right-censored at horizon
		t.Fatalf("firstDeath mean = %g, want the 140 s horizon", rr.FirstDeath.Mean)
	}
}

// TestReplicateDefaultsToEightSeeds pins the reps default without running 8
// simulations: reps and the matching explicit seed list share one key.
func TestReplicateDefaultSeedList(t *testing.T) {
	seeds, err := resolveSeeds(simRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 8 || seeds[0] != 1 || seeds[7] != 8 {
		t.Fatalf("default seeds = %v, want 1..8", seeds)
	}
	three, err := resolveSeeds(simRequest{Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(three) != 3 || three[2] != 3 {
		t.Fatalf("reps 3 seeds = %v, want [1 2 3]", three)
	}
}

// TestValidationErrors sweeps the 4xx surface and pins the unified error
// body: every failure is {"code": <stable code>, "error": <message>}, the
// code being what clients switch retry policy on.
func TestValidationErrors(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"no selector", "/v1/runs", `{"seed":1}`, 400, CodeBadRequest},
		{"both selectors", "/v1/runs", `{"name":"paper","scenario":{"name":"x"},"seed":1}`, 400, CodeBadRequest},
		{"unknown name", "/v1/runs", `{"name":"nope"}`, 404, CodeNotFound},
		{"unknown protocol", "/v1/runs", `{"name":"paper","protocol":"tdma"}`, 400, CodeBadRequest},
		{"bad json", "/v1/runs", `{"name":`, 400, CodeBadRequest},
		{"unknown field", "/v1/runs", `{"name":"paper","sede":1}`, 400, CodeBadRequest},
		{"invalid inline spec", "/v1/runs", `{"scenario":{"name":"x","nodes":0,"horizon":1,"field":{"min":{"x":0,"y":0},"max":{"x":1,"y":1}},"radio":{"range":1},"stimulus":{"kind":"radial"}}}`, 400, CodeBadRequest},
		{"seeds and reps", "/v1/replicate", `{"name":"paper","seeds":[1],"reps":2}`, 400, CodeBadRequest},
		{"too many reps", "/v1/replicate", `{"name":"paper","reps":65}`, 400, CodeBadRequest},
		{"negative reps", "/v1/replicate", `{"name":"paper","reps":-1}`, 400, CodeBadRequest},
		{"negative shards", "/v1/runs", `{"name":"paper","seed":1,"shards":-1}`, 400, CodeBadRequest},
		{"job bad mode", "/v1/jobs", `{"mode":"batch","name":"paper"}`, 400, CodeBadRequest},
		{"job unknown name", "/v1/jobs", `{"name":"nope"}`, 404, CodeNotFound},
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL, tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q is not {code, error}", tc.name, body)
		}
		if e.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, e.Code, tc.code)
		}
	}
	resp, _ := get(t, ts.URL, "/v1/runs")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/runs status = %d, want 405", resp.StatusCode)
	}
}

// TestDeadlineMapsTo504 pins the per-request deadline: a microscopic budget
// expires before (or during) the simulation and surfaces as 504.
func TestDeadlineMapsTo504(t *testing.T) {
	s, ts := testServer(t, Config{})
	resp, body := post(t, ts.URL, "/v1/runs", `{"name":"paper","seed":99,"timeoutSec":1e-9}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", resp.StatusCode, body)
	}
	if st := s.Stats(); st.Deadlined != 1 {
		t.Fatalf("deadlined = %d, want 1", st.Deadlined)
	}
}

// TestHugeTimeoutIsServed pins that a deadline far past MaxTimeout clamps to
// it: the request is served instead of expiring at once.
func TestHugeTimeoutIsServed(t *testing.T) {
	s, ts := testServer(t, Config{})
	resp, body := post(t, ts.URL, "/v1/runs", `{"name":"paper","seed":3,"timeoutSec":1e12}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%s)", resp.StatusCode, body)
	}
	if st := s.Stats(); st.Deadlined != 0 {
		t.Fatalf("deadlined = %d, want 0", st.Deadlined)
	}
}

// TestSaturationMapsTo429 saturates the bounded queue directly (all
// Workers+QueueDepth admission slots taken) and verifies a request needing a
// simulation is rejected up front with 429 + Retry-After.
func TestSaturationMapsTo429(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})
	s.mu.Lock()
	s.admitted = s.cfg.Workers + s.cfg.QueueDepth
	s.mu.Unlock()
	resp, body := post(t, ts.URL, "/v1/runs", `{"name":"paper","seed":42}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if st := s.Stats(); st.Rejected != 1 || st.Simulations != 0 {
		t.Fatalf("stats = %+v, want 1 rejection, 0 simulations", st)
	}
}

// TestStatsEndpoint checks the wire shape round-trips and carries the
// configured version.
func TestStatsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{Version: "v-test"})
	post(t, ts.URL, "/v1/runs", `{"name":"paper","seed":1}`)
	resp, body := get(t, ts.URL, "/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != "v-test" {
		t.Fatalf("version = %q, want v-test", st.Version)
	}
	if st.Requests != 1 || st.Simulations != 1 {
		t.Fatalf("stats = %+v, want 1 request / 1 simulation", st)
	}
	if st.P50Ms <= 0 || st.P99Ms < st.P50Ms {
		t.Fatalf("latency quantiles implausible: p50 %g p99 %g", st.P50Ms, st.P99Ms)
	}
}

// --- unit tests for the building blocks ---

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Workers <= 0 || cfg.QueueDepth != 4*cfg.Workers {
		t.Fatalf("worker defaults wrong: %+v", cfg)
	}
	if cfg.DefaultTimeout != 30*time.Second || cfg.MaxTimeout != 2*time.Minute {
		t.Fatalf("timeout defaults wrong: %+v", cfg)
	}
	if cfg.CacheEntries != 4096 || cfg.Version == "" {
		t.Fatalf("cache/version defaults wrong: %+v", cfg)
	}
	s := mustNew(t, Config{DefaultTimeout: time.Hour, MaxTimeout: time.Minute})
	if d := s.timeout(simRequest{}); d != time.Minute {
		t.Fatalf("default timeout not clamped to max: %v", d)
	}
	if d := s.timeout(simRequest{TimeoutSec: 1}); d != time.Second {
		t.Fatalf("timeoutSec 1 = %v, want 1s", d)
	}
	// 1e12 s overflows a Duration; it must clamp to the maximum, not wrap
	// negative into an instant deadline.
	if d := s.timeout(simRequest{TimeoutSec: 1e12}); d != time.Minute {
		t.Fatalf("timeoutSec 1e12 = %v, want the 1m maximum", d)
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", []byte("C")) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if body, ok := c.get("a"); !ok || string(body) != "A" {
		t.Fatal("a lost or corrupted")
	}
	c.put("a", []byte("A")) // existing key: recency refresh only
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestLatencyWindowQuantiles(t *testing.T) {
	var w latencyWindow
	if p50, p99 := w.quantiles(0.5, 0.99); p50 != 0 || p99 != 0 {
		t.Fatal("empty window must report zeros")
	}
	for i := 1; i <= 100; i++ {
		w.record(float64(i))
	}
	p50, p99 := w.quantiles(0.5, 0.99)
	if p50 < 45 || p50 > 55 || p99 < 95 || p99 > 100 {
		t.Fatalf("p50 %g p99 %g implausible for 1..100", p50, p99)
	}
	// Overflow the ring: old observations fall out of the window.
	for i := 0; i < latencyWindowSize+10; i++ {
		w.record(1000)
	}
	p50, _ = w.quantiles(0.5, 0.99)
	if p50 != 1000 {
		t.Fatalf("p50 = %g after ring overflow, want 1000", p50)
	}
}

func TestCodeVersionNonEmpty(t *testing.T) {
	if CodeVersion() == "" {
		t.Fatal("CodeVersion must never be empty")
	}
}
