// The race detector makes sync.Pool drop items at random, so the rows below
// that pass through net/http or encoding/json read higher under -race.

//go:build !race

package pas_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	pas "repro"
	"repro/internal/experiment"
	"repro/internal/store"
)

// TestRunPathAllocs holds each end-to-end path whose steady-state count is
// not zero to an allocation ceiling; the 0-alloc paths (kernel dispatch,
// radio fan-out, predictor step, codecs) are pinned exactly by the
// AllocsPerRun tests in their own packages. AllocsPerRun's warm-up call
// fills the process-wide deployment and topology memo first, so every row
// counts a memo hit.
//
// A ceiling is the count itself where ten repeated measurements agree, and
// otherwise their maximum plus their spread. Every ceiling sits far below
// one extra allocation per node or per message, so a per-node or
// per-message allocation on any of these paths fails the test. When a change
// lowers a count, lower its ceiling with it.
func TestRunPathAllocs(t *testing.T) {
	rows := []struct {
		name string
		runs int
		max  float64
		op   func(t *testing.T) func()
	}{
		{"PAS single run", 50, 142, func(t *testing.T) func() {
			return runOp(t, "paper", 7, pas.ProtoPAS)
		}},
		{"SAS single run", 50, 138, func(t *testing.T) func() {
			return runOp(t, "paper", 7, pas.ProtoSAS)
		}},
		{"fault path", 50, 476, func(t *testing.T) func() {
			return runOp(t, "churn", 3, "")
		}},
		{"network construction", 50, 38, func(t *testing.T) func() {
			cfg := scenarioConfig(t, "scale-1k", 1, pas.ProtoPAS)
			return func() {
				if _, _, err := experiment.Build(cfg); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"scale", 1, 30188, func(t *testing.T) func() {
			return runOp(t, "scale-10k", 1, pas.ProtoPAS)
		}},
		{"runner pool", 5, 1333, func(t *testing.T) func() {
			opts := pas.ExperimentOptions{Quick: true, Seeds: pas.Seeds(2), Parallelism: 2}
			return func() {
				if _, err := experiment.Fig4(opts); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"serve hit", 200, 34, func(t *testing.T) func() {
			return serveOp(t, "POST", "/v1/runs", `{"name":"paper","seed":1}`)
		}},
		// The shards hint is an execution hint outside the result key, so
		// this is a memory hit too; its verdict must not build the plume's
		// PDE stimulus.
		{"serve hit with shards hint", 200, 36, func(t *testing.T) func() {
			return serveOp(t, "POST", "/v1/runs", `{"name":"plume","seed":1,"shards":2}`)
		}},
		// An inline spec is canonicalized on every request; the server's
		// table of registry specs does not cover it.
		{"serve hit, inline spec", 200, 200, func(t *testing.T) func() {
			sp, _ := pas.LookupScenario("paper")
			canon, err := pas.CanonicalScenario(sp)
			if err != nil {
				t.Fatal(err)
			}
			return serveOp(t, "POST", "/v1/runs", `{"scenario":`+string(canon)+`,"seed":1}`)
		}},
		// The hashes come from the same table.
		{"scenario listing", 50, 39, func(t *testing.T) func() {
			return serveOp(t, "GET", "/v1/scenarios", "")
		}},
		{"store read", 200, 8, func(t *testing.T) func() {
			s, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key := strings.Repeat("ab", 32)
			rec := bytes.Repeat([]byte(`{"k":"v"}`), 40) // 360 B, a typical response
			if err := s.Put(key, rec); err != nil {
				t.Fatal(err)
			}
			return func() {
				if got, ok := s.Get(key); !ok || len(got) != len(rec) {
					t.Fatal("store read missed")
				}
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			got := testing.AllocsPerRun(row.runs, row.op(t))
			t.Logf("%v allocs/op (ceiling %v)", got, row.max)
			if got > row.max {
				t.Errorf("%v allocs/op, above the ceiling of %v", got, row.max)
			}
		})
	}
}

// serveOp returns one request to a fresh in-memory server, which must
// answer 200.
func serveOp(t *testing.T, method, path, body string) func() {
	srv, err := pas.NewServer(pas.ServeConfig{Version: "alloc"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return func() {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}

// runOp returns one pas.Run of the named registry scenario at seed, with the
// protocol pinned unless it is empty.
func runOp(t *testing.T, name string, seed int64, protocol string) func() {
	cfg := scenarioConfig(t, name, seed, protocol)
	return func() {
		if _, err := pas.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
}

func scenarioConfig(t *testing.T, name string, seed int64, protocol string) pas.RunConfig {
	sp, ok := pas.LookupScenario(name)
	if !ok {
		t.Fatalf("%s missing from the registry", name)
	}
	cfg, err := pas.RunConfigFromScenario(sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	if protocol != "" {
		cfg.Protocol = protocol
	}
	return cfg
}
