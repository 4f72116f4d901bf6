package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/store"
)

// TestSpecTableMatchesCanonical holds every named request to the direct
// computation the spec table replaces: for every simulation endpoint, on a
// fresh server, and every registry entry and protocol override, the result
// key the server answers with and the spec it journals equal
// scenario.Canonical of the resolved spec and resultKey over it, on the
// request that fills the table entry and on a repeat that reads it.
func TestSpecTableMatchesCanonical(t *testing.T) {
	for _, ep := range []struct {
		path, mode, fields string
		seeds              []int64
	}{
		{"/v1/runs", "run", `"seed":3,"timeoutSec":1`, []int64{3}},
		{"/v1/replicate", "replicate", `"seeds":[3,4],"timeoutSec":1`, []int64{3, 4}},
		{"/v1/jobs", "replicate", `"mode":"replicate","seeds":[5]`, []int64{5}},
	} {
		t.Run(strings.TrimPrefix(ep.path, "/v1/"), func(t *testing.T) {
			dir := t.TempDir()
			s := mustNew(t, Config{Workers: 1, QueueDepth: 1, Version: "table", StoreDir: dir})
			// Every expected key is stored before its request, so each
			// request is a memory hit. With the only worker wedged, a request
			// whose key the direct computation did not predict queues instead
			// of simulating: a sync one answers 504 at its deadline, a job
			// acknowledges the wrong key.
			s.work <- struct{}{}
			journaled := map[string][]byte{} // job result key → its expected spec
			submits := 0
			for _, reg := range scenario.All() {
				for _, proto := range []string{"", "pas", "sas", "ns", "duty"} {
					sp := reg
					sp.Protocol.Name = cmp.Or(proto, reg.Protocol.Name, experiment.ProtoPAS)
					canon, err := scenario.Canonical(sp)
					if err != nil {
						t.Fatal(err)
					}
					body := fmt.Sprintf(`{"name":%q,"protocol":%q,%s}`, reg.Name, proto, ep.fields)
					want := resultKey("table", ep.mode, canon, ep.seeds...)
					s.cache.put(want, []byte("{}\n"))
					for _, pass := range []string{"first", "repeat"} {
						rec := postHandler(t, s, ep.path, body)
						got := rec.Header().Get("X-Result-Key")
						if ep.path == "/v1/jobs" {
							var acc jobAccepted
							if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
								t.Fatalf("%s %s: %d %s", ep.path, body, rec.Code, rec.Body.Bytes())
							}
							got = acc.Key
						}
						if got != want {
							t.Fatalf("%s %s (%s request): status %d, key %q; the direct computation gives %q",
								ep.path, body, pass, rec.Code, got, want)
						}
						if ep.path == "/v1/jobs" {
							// A settled job leaves the by-key index, so the
							// repeat journals a submit of its own.
							waitFor(t, "the job to settle", func() bool {
								s.jobs.mu.Lock()
								defer s.jobs.mu.Unlock()
								_, active := s.jobs.active[want]
								return !active
							})
							journaled[want] = canon
							submits++
						}
					}
				}
			}
			<-s.work
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			j, entries, err := store.OpenJournal(filepath.Join(dir, "jobs.wal"))
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			n := 0
			for _, e := range entries {
				if e.Op != store.OpSubmit {
					continue
				}
				n++
				if want, ok := journaled[e.Key]; !ok || !bytes.Equal(e.Spec, want) {
					t.Fatalf("job %s journaled spec %s under key %s; the direct computation gives %s", e.ID, e.Spec, e.Key, want)
				}
			}
			if n != submits {
				t.Fatalf("journal holds %d submits, want %d", n, submits)
			}
		})
	}
}

// TestInlineSpecBypassesSpecTable pins that the table answers only for a
// request naming a registry scenario: an inline spec that carries a registry
// name but differs from the entry is canonicalized as sent.
func TestInlineSpecBypassesSpecTable(t *testing.T) {
	s := mustNew(t, Config{Version: "inline"})
	testCall(t, s, `{"name":"paper","seed":1}`) // fills the paper/pas entry
	sp, _ := scenario.Lookup("paper")
	sp.Protocol.Name = experiment.ProtoPAS
	sp.Horizon++
	raw, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.Canonical(sp)
	if err != nil {
		t.Fatal(err)
	}
	call := testCall(t, s, `{"scenario":`+string(raw)+`,"seed":1}`)
	if !bytes.Equal(call.Spec, want) {
		t.Fatalf("inline spec named paper canonicalized to\n%s\nwant\n%s", call.Spec, want)
	}
	if key := resultKey("inline", "run", want, 1); call.Key != key {
		t.Fatalf("inline key %s, want %s", call.Key, key)
	}
}

// TestSpecTableColdStart sends one named request from many goroutines at
// once to a fresh server, so they race to fill one table entry: every
// response must carry the one key the direct computation gives, and one
// body. CI repeats it under the race detector.
func TestSpecTableColdStart(t *testing.T) {
	s := mustNew(t, Config{Workers: 2, Version: "cold"})
	const n = 32
	const body = `{"name":"paper","protocol":"sas","seed":2}`
	start := make(chan struct{})
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s.ServeHTTP(recs[i], httptest.NewRequest("POST", "/v1/runs", strings.NewReader(body)))
		}()
	}
	close(start)
	wg.Wait()
	sp, _ := scenario.Lookup("paper")
	sp.Protocol.Name = experiment.ProtoSAS
	canon, err := scenario.Canonical(sp)
	if err != nil {
		t.Fatal(err)
	}
	want := resultKey("cold", "run", canon, 2)
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		if got := rec.Header().Get("X-Result-Key"); got != want {
			t.Fatalf("request %d: key %s, want %s", i, got, want)
		}
		if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Fatalf("request %d body differs from request 0:\n%s\n%s", i, rec.Body.Bytes(), recs[0].Body.Bytes())
		}
	}
}
