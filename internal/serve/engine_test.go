package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testCall parses body as a POST /v1/runs request.
func testCall(t *testing.T, s *Server, body string) *simCall {
	t.Helper()
	call, err := s.parse(httptest.NewRequest("POST", "/v1/runs", strings.NewReader(body)), "run")
	if err != nil {
		t.Fatal(err)
	}
	return &call
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// reply is one HTTP exchange made off the test goroutine.
type reply struct {
	status int
	cache  string
	body   []byte
}

// postAsync posts body from its own goroutine; the channel yields the reply.
func postAsync(t *testing.T, url, body string) <-chan reply {
	out := make(chan reply, 1)
	go func() {
		defer close(out)
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
			return
		}
		out <- reply{resp.StatusCode, resp.Header.Get("X-Cache"), b}
	}()
	return out
}

// TestInflightJoinSharesComputation pins the in-flight index: a submit for a
// key already in flight joins the live computation instead of starting one,
// one simulation runs, and every waiter gets its body.
func TestInflightJoinSharesComputation(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, Version: "test"})
	s.work <- struct{}{} // hold the only worker so the computation stays in flight
	call := testCall(t, s, `{"name":"paper","seed":1}`)
	_, _, leader, err := s.submit(call, false)
	if err != nil || leader == nil {
		t.Fatalf("first submit: computation %v, err %v", leader, err)
	}
	_, tier, follower, err := s.submit(call, false)
	if err != nil || follower != leader || tier != "miss" {
		t.Fatalf("second submit did not join: same computation %v, tier %q, err %v", follower == leader, tier, err)
	}
	<-s.work
	body1, err1 := s.wait(context.Background(), leader)
	body2, err2 := s.wait(context.Background(), follower)
	if err1 != nil || err2 != nil || len(body1) == 0 || !bytes.Equal(body1, body2) {
		t.Fatalf("waiters disagree: %v %v\n%s\n%s", err1, err2, body1, body2)
	}
	if st := s.Stats(); st.Simulations != 1 || st.Collapsed != 1 {
		t.Fatalf("stats = %+v, want 1 simulation and 1 join", st)
	}
}

// TestInflightFollowerCtxDeath pins that a waiter whose context dies gets its
// own error and leaves, while the computation runs on for the waiter left.
func TestInflightFollowerCtxDeath(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, Version: "test"})
	s.work <- struct{}{}
	call := testCall(t, s, `{"name":"paper","seed":2}`)
	_, _, c, err := s.submit(call, false)
	if err != nil {
		t.Fatal(err)
	}
	_, _, follower, _ := s.submit(call, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.wait(ctx, follower); !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want its own context.Canceled", err)
	}
	<-s.work
	if body, err := s.wait(context.Background(), c); err != nil || len(body) == 0 {
		t.Fatalf("computation did not survive its follower leaving: err %v", err)
	}
	if st := s.Stats(); st.Simulations != 1 {
		t.Fatalf("simulations = %d, want 1", st.Simulations)
	}
}

// TestInflightJoinAfterCancel pins that the last waiter leaving cancels the
// computation and takes it out of the index: a later submit for the key
// starts a new computation instead of joining the cancelled one, and gets
// the body.
func TestInflightJoinAfterCancel(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, Version: "test"})
	s.work <- struct{}{}
	call := testCall(t, s, `{"name":"paper","seed":3}`)
	_, _, first, err := s.submit(call, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.wait(ctx, first) // its only waiter leaves
	_, _, second, err := s.submit(call, false)
	if err != nil || second == first {
		t.Fatalf("submit after cancel joined the cancelled computation (err %v)", err)
	}
	<-first.done
	if !errors.Is(first.err, context.Canceled) {
		t.Fatalf("abandoned computation settled with %v, want context.Canceled", first.err)
	}
	<-s.work
	if body, err := s.wait(context.Background(), second); err != nil || len(body) == 0 {
		t.Fatalf("fresh computation: err %v", err)
	}
	if st := s.Stats(); st.Simulations != 1 || st.Collapsed != 0 {
		t.Fatalf("stats = %+v, want 1 simulation (the cancelled one never ran) and 0 joins", st)
	}
}

// TestEngineSyncAndJobShareComputation pins the one execution path across
// the sync and async surfaces: a sync request and a job for one key sent
// together run one simulation, and the job's result is byte-identical to
// the sync body.
func TestEngineSyncAndJobShareComputation(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	s.work <- struct{}{} // keep the computation in flight until both have arrived
	req := `{"name":"paper","seed":51}`
	syncReply := postAsync(t, ts.URL+"/v1/runs", req)
	acc := submitJob(t, ts.URL, req)
	waitFor(t, "the second arrival to join", func() bool { return s.Stats().Collapsed == 1 })
	<-s.work
	r := <-syncReply
	if r.status != http.StatusOK || r.cache != "miss" {
		t.Fatalf("sync request: status %d X-Cache %q (%s)", r.status, r.cache, r.body)
	}
	if st := waitJob(t, ts.URL, acc.ID); st.State != JobDone {
		t.Fatalf("job settled %s (%s), want done", st.State, st.Error)
	}
	_, jobBody := get(t, ts.URL, "/v1/jobs/"+acc.ID+"/result")
	if !bytes.Equal(r.body, jobBody) {
		t.Fatalf("job result differs from the sync body:\n%s\n%s", jobBody, r.body)
	}
	if st := s.Stats(); st.Simulations != 1 {
		t.Fatalf("simulations = %d, want 1 for one key", st.Simulations)
	}
}

// TestEngineJobFloodSaturates pins admission on the async surface: a flood
// of distinct jobs past Workers+QueueDepth gets 429 saturated with
// Retry-After, and a rejected submit is never journaled — reopening the
// store replays exactly the acknowledged jobs.
func TestEngineJobFloodSaturates(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 1, Version: "flood-test", StoreDir: t.TempDir()}
	s1, ts1 := testServer(t, cfg)
	s1.work <- struct{}{} // no job can finish, so the admission slots stay taken
	const flood = 12
	var (
		mu    sync.Mutex
		acked []string
		wg    sync.WaitGroup
	)
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := <-postAsync(t, ts1.URL+"/v1/jobs", fmt.Sprintf(`{"name":"paper","seed":%d}`, 600+i))
			switch r.status {
			case http.StatusAccepted:
				var acc jobAccepted
				if err := json.Unmarshal(r.body, &acc); err != nil {
					t.Error(err)
				}
				mu.Lock()
				acked = append(acked, acc.ID)
				mu.Unlock()
			case http.StatusTooManyRequests:
				var e errorBody
				if json.Unmarshal(r.body, &e); e.Code != CodeSaturated {
					t.Errorf("429 code = %q, want %s", e.Code, CodeSaturated)
				}
			default:
				t.Errorf("submit %d: status %d (%s), want 202 or 429", i, r.status, r.body)
			}
		}(i)
	}
	wg.Wait()
	if want := cfg.Workers + cfg.QueueDepth; len(acked) != want {
		t.Fatalf("acknowledged %d jobs, want %d (Workers+QueueDepth)", len(acked), want)
	}
	if st := s1.Stats(); st.Rejected != flood-uint64(len(acked)) || st.JobsSubmitted != uint64(len(acked)) {
		t.Fatalf("stats = %+v, want %d rejected and %d submitted", st, flood-len(acked), len(acked))
	}
	// Retry-After rides on every 429; one more submit checks the header.
	resp, _ := post(t, ts1.URL, "/v1/jobs", `{"name":"paper","seed":699}`)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("saturated submit: status %d Retry-After %q, want 429 with the header",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if err := s1.Close(); err != nil { // the acknowledged jobs stay incomplete
		t.Fatal(err)
	}

	s2, ts2 := testServer(t, cfg)
	if got := s2.Stats().JobsReplayed; got != uint64(len(acked)) {
		t.Fatalf("jobsReplayed = %d, want the %d acknowledged jobs only", got, len(acked))
	}
	for _, id := range acked {
		if st := waitJob(t, ts2.URL, id); st.State != JobDone {
			t.Fatalf("replayed job %s settled %s (%s)", id, st.State, st.Error)
		}
	}
}

// TestEngineJoinOutlivesShortDeadline pins that a computation outlives the
// deadline of the request that started it. The starter makes the sync
// handler's two engine calls itself — submit, then a wait under its 20 ms
// deadline — so the 30 s request is sure to join before the starter leaves.
func TestEngineJoinOutlivesShortDeadline(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	s.work <- struct{}{}
	starter := testCall(t, s, `{"name":"paper","seed":52,"timeoutSec":0.02}`)
	_, _, c, err := s.submit(starter, false)
	if err != nil {
		t.Fatal(err)
	}
	joiner := postAsync(t, ts.URL+"/v1/runs", `{"name":"paper","seed":52,"timeoutSec":30}`)
	waitFor(t, "the 30 s request to join", func() bool { return s.Stats().Collapsed == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), starter.timeout)
	_, err = s.wait(ctx, c)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("starter err = %v, want its 20 ms deadline", err)
	}
	<-s.work
	if r := <-joiner; r.status != http.StatusOK || r.cache != "miss" {
		t.Fatalf("30 s request: status %d X-Cache %q (%s), want 200 miss", r.status, r.cache, r.body)
	}
	if st := s.Stats(); st.Simulations != 1 {
		t.Fatalf("simulations = %d, want 1", st.Simulations)
	}
}

// TestEngineReplayPastAdmission pins the replay rule: a journal holding more
// incomplete jobs than Workers+QueueDepth replays every one of them — replay
// never rejects a job it acknowledged — and each one completes.
func TestEngineReplayPastAdmission(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 1, Version: "replay-bound-test", StoreDir: t.TempDir()}
	// A first server with room for every job acknowledges them and, its
	// worker held, runs none.
	wide := cfg
	wide.QueueDepth = 8
	s1, err := New(wide)
	if err != nil {
		t.Fatal(err)
	}
	s1.work <- struct{}{}
	const jobs = 5
	var ids []string
	for i := 0; i < jobs; i++ {
		rec := postHandler(t, s1, "/v1/jobs", fmt.Sprintf(`{"name":"paper","seed":%d}`, 700+i))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%s)", i, rec.Code, rec.Body.Bytes())
		}
		var acc jobAccepted
		json.Unmarshal(rec.Body.Bytes(), &acc)
		ids = append(ids, acc.ID)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := testServer(t, cfg)
	if got := s2.Stats().JobsReplayed; got != jobs {
		t.Fatalf("jobsReplayed = %d, want all %d past the admission bound of %d", got, jobs, cfg.Workers+cfg.QueueDepth)
	}
	for _, id := range ids {
		if st := waitJob(t, ts2.URL, id); st.State != JobDone {
			t.Fatalf("replayed job %s settled %s (%s)", id, st.State, st.Error)
		}
	}
	if st := s2.Stats(); st.Simulations != jobs {
		t.Fatalf("simulations = %d, want %d", st.Simulations, jobs)
	}
}
