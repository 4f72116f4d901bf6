package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestServeLoadMixed is the load harness of the serving layer: hundreds of
// concurrent requests — a mix of identical and distinct, runs and replicates —
// against a small worker pool. It pins the three serving invariants at once:
//
//  1. every response for a key is byte-identical, cached or computed;
//  2. simulations executed == distinct keys (content addressing plus
//     the in-flight index absorb every duplicate);
//  3. nothing is dropped: with admission sized to the distinct-key working
//     set, every request succeeds.
//
// Run it under -race: the cache, in-flight index and counters are all
// exercised from many goroutines here.
func TestServeLoadMixed(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short")
	}
	const (
		distinctRuns = 12 // distinct run keys (paper scenario, seeds 0..11)
		replicates   = 2  // distinct replicate keys
		clients      = 300
	)
	distinct := distinctRuns + replicates
	// Admission must cover the distinct working set (duplicates never enter
	// admission: they join in-flight computations or hit the cache), so no
	// 429s.
	s, ts := testServer(t, Config{Workers: 4, QueueDepth: distinct})

	requests := make([]struct{ path, body string }, clients)
	for i := range requests {
		switch {
		case i%10 == 8:
			requests[i].path = "/v1/replicate"
			requests[i].body = fmt.Sprintf(`{"name":"paper","seeds":[%d,%d]}`, i%replicates+1, i%replicates+2)
		case i%10 == 9:
			requests[i].path = "/v1/replicate"
			requests[i].body = fmt.Sprintf(`{"name":"paper","reps":%d}`, i%replicates+2)
		default:
			requests[i].path = "/v1/runs"
			requests[i].body = fmt.Sprintf(`{"name":"paper","seed":%d}`, i%distinctRuns)
		}
	}
	// The two replicate shapes above deliberately overlap: seeds [1,2] and
	// reps 2 are the same seed list, so they must share a key. Recompute the
	// true distinct-key count from the request set.
	type outcome struct {
		status int
		key    string
		body   []byte
	}
	outcomes := make([]outcome, clients)
	var wg sync.WaitGroup
	for i := range requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+requests[i].path, "application/json",
				strings.NewReader(requests[i].body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			outcomes[i] = outcome{resp.StatusCode, resp.Header.Get("X-Result-Key"), body}
		}(i)
	}
	wg.Wait()

	byKey := map[string][]byte{}
	for i, o := range outcomes {
		if o.status != http.StatusOK {
			t.Fatalf("request %d (%s %s): status %d (%s)",
				i, requests[i].path, requests[i].body, o.status, o.body)
		}
		if prev, ok := byKey[o.key]; ok {
			if !bytes.Equal(prev, o.body) {
				t.Fatalf("key %s served two different bodies", o.key)
			}
		} else {
			byKey[o.key] = o.body
		}
	}
	if len(byKey) != distinct {
		t.Fatalf("distinct keys = %d, want %d", len(byKey), distinct)
	}
	st := s.Stats()
	if st.Simulations != uint64(distinct) {
		t.Fatalf("simulations = %d, want exactly %d (one per distinct key)", st.Simulations, distinct)
	}
	if st.Requests != clients {
		t.Fatalf("requests = %d, want %d", st.Requests, clients)
	}
	if got := st.CacheHits + st.CacheMisses; got != clients {
		t.Fatalf("hits+misses = %d, want %d", got, clients)
	}
	if st.Rejected != 0 || st.Deadlined != 0 || st.Errors != 0 {
		t.Fatalf("unexpected failures: %+v", st)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("gauges not drained: %+v", st)
	}
}

// TestServeLoadSaturation drives far more distinct simulations than the
// admission bound allows concurrently and verifies the overflow is rejected
// cleanly: every response is either 200 or 429, the 429s carry Retry-After,
// and rejected requests execute no simulation.
func TestServeLoadSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short")
	}
	const clients = 120
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})

	var wg sync.WaitGroup
	statuses := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Every request is a distinct key, so none can collapse.
			body := fmt.Sprintf(`{"name":"paper","seed":%d}`, 1000+i)
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		}(i)
	}
	wg.Wait()

	var ok, rejected int
	for i, code := range statuses {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("request %d: status %d, want 200 or 429", i, code)
		}
	}
	if ok+rejected != clients {
		t.Fatalf("accounted %d of %d requests", ok+rejected, clients)
	}
	st := s.Stats()
	if st.Simulations != uint64(ok) {
		t.Fatalf("simulations = %d, want %d (one per accepted request)", st.Simulations, ok)
	}
	if st.Rejected != uint64(rejected) {
		t.Fatalf("rejected counter = %d, want %d", st.Rejected, rejected)
	}
	if ok == 0 {
		t.Fatal("saturation drowned every request; expected at least one success")
	}
}

// BenchmarkServeCacheHit measures the full HTTP round-trip of a cache hit
// against the in-process handler (no network): JSON decode, the spec
// table's canonical encoding of the named scenario, content-address
// derivation, result-store hit and response write, with the simulation
// itself absorbed by the cache. The root package's TestRunPathAllocs holds
// the same request to an allocation ceiling.
func BenchmarkServeCacheHit(b *testing.B) {
	s := mustNew(b, Config{Version: "bench"})
	req := `{"name":"paper","seed":1}`
	warm := httptest.NewRequest("POST", "/v1/runs", strings.NewReader(req))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, warm)
	if rec.Code != http.StatusOK {
		b.Fatalf("warmup status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest("POST", "/v1/runs", strings.NewReader(req))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Header().Get("X-Cache") != "hit-mem" {
			b.Fatal("expected a cache hit")
		}
	}
}
