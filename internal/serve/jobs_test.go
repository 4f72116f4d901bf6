package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// postHandler posts straight at a handler (no test server), for servers that
// are about to be closed mid-test.
func postHandler(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec
}

// waitJob polls until the job reaches a terminal state and returns it.
func waitJob(t *testing.T, tsURL, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, body := get(t, tsURL, "/v1/jobs/"+id)
		var st jobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status body %q: %v", body, err)
		}
		if st.State == JobDone || st.State == JobFailed {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never settled", id)
	return jobStatus{}
}

// submitJob posts one job and returns the 202 acknowledgment.
func submitJob(t *testing.T, tsURL, body string) jobAccepted {
	t.Helper()
	resp, b := post(t, tsURL, "/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202 (%s)", resp.StatusCode, b)
	}
	var acc jobAccepted
	if err := json.Unmarshal(b, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.ID == "" || acc.Key == "" {
		t.Fatalf("incomplete acknowledgment %+v", acc)
	}
	return acc
}

// TestJobLifecycle pins the async happy path: 202 with an ID, progress to
// done, and a result byte-identical to the synchronous endpoint's (same
// content address, same stored bytes).
func TestJobLifecycle(t *testing.T) {
	_, ts := testServer(t, Config{})
	acc := submitJob(t, ts.URL, `{"name":"paper","seed":7}`)
	st := waitJob(t, ts.URL, acc.ID)
	if st.State != JobDone {
		t.Fatalf("job settled %s (%s), want done", st.State, st.Error)
	}
	if st.Progress != 1 {
		t.Fatalf("done job progress = %g, want 1", st.Progress)
	}
	resp, jobBody := get(t, ts.URL, "/v1/jobs/"+acc.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d (%s)", resp.StatusCode, jobBody)
	}
	syncResp, syncBody := post(t, ts.URL, "/v1/runs", `{"name":"paper","seed":7}`)
	if syncResp.StatusCode != http.StatusOK {
		t.Fatalf("sync status = %d", syncResp.StatusCode)
	}
	if !bytes.Equal(jobBody, syncBody) {
		t.Fatalf("async result differs from sync result:\n%s\n%s", jobBody, syncBody)
	}
	if got := syncResp.Header.Get("X-Result-Key"); got != acc.Key {
		t.Fatalf("sync key %s != job key %s", got, acc.Key)
	}
}

// TestJobResultStates pins the non-done result fetches: unknown job 404,
// unfinished job 409 not_ready.
func TestJobResultStates(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	resp, body := get(t, ts.URL, "/v1/jobs/j999999/result")
	var e errorBody
	json.Unmarshal(body, &e)
	if resp.StatusCode != http.StatusNotFound || e.Code != CodeNotFound {
		t.Fatalf("unknown job: status %d code %q, want 404 %s", resp.StatusCode, e.Code, CodeNotFound)
	}

	// Occupy the single worker slot so the job stays pending.
	s.work <- struct{}{}
	defer func() { <-s.work }()
	acc := submitJob(t, ts.URL, `{"name":"paper","seed":8}`)
	resp, body = get(t, ts.URL, "/v1/jobs/"+acc.ID+"/result")
	json.Unmarshal(body, &e)
	if resp.StatusCode != http.StatusConflict || e.Code != CodeNotReady {
		t.Fatalf("pending job: status %d code %q, want 409 %s", resp.StatusCode, e.Code, CodeNotReady)
	}
}

// TestJobDedup pins both dedup planes: an Idempotency-Key resubmission and an
// identical-work submission both collapse onto the live job's ID.
func TestJobDedup(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	s.work <- struct{}{} // hold the job pending so dedup windows stay open
	req := `{"name":"paper","seed":9}`

	hreq, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(req))
	hreq.Header.Set("Idempotency-Key", "client-abc")
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var first jobAccepted
	json.NewDecoder(resp.Body).Decode(&first)
	resp.Body.Close()

	hreq2, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(req))
	hreq2.Header.Set("Idempotency-Key", "client-abc")
	resp2, err := http.DefaultClient.Do(hreq2)
	if err != nil {
		t.Fatal(err)
	}
	var second jobAccepted
	json.NewDecoder(resp2.Body).Decode(&second)
	resp2.Body.Close()
	if second.ID != first.ID {
		t.Fatalf("idempotency resubmit minted new job %s != %s", second.ID, first.ID)
	}

	// Same work, no idempotency key: collapses by active result key.
	third := submitJob(t, ts.URL, req)
	if third.ID != first.ID {
		t.Fatalf("active-key dedup minted new job %s != %s", third.ID, first.ID)
	}

	<-s.work
	if st := waitJob(t, ts.URL, first.ID); st.State != JobDone {
		t.Fatalf("job settled %s, want done", st.State)
	}
	// Completed work is no longer active: a resubmission is a fresh job that
	// completes instantly from the store.
	fourth := submitJob(t, ts.URL, req)
	if fourth.ID == first.ID {
		t.Fatal("resubmission of completed work reused the settled job ID")
	}
	if st := waitJob(t, ts.URL, fourth.ID); st.State != JobDone {
		t.Fatalf("instant job settled %s, want done", st.State)
	}
}

// TestJobStream pins the NDJSON progress stream: monotone progress lines
// ending in the terminal state.
func TestJobStream(t *testing.T) {
	_, ts := testServer(t, Config{})
	acc := submitJob(t, ts.URL, `{"mode":"replicate","name":"paper","seeds":[1,2]}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + acc.ID + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	var last jobStatus
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	prev := -1.0
	for sc.Scan() {
		var st jobStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		if st.Progress < prev {
			t.Fatalf("stream progress regressed: %g after %g", st.Progress, prev)
		}
		prev = st.Progress
		last = st
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < 1 || last.State != JobDone || last.Progress != 1 {
		t.Fatalf("stream ended after %d lines in %+v, want terminal done", lines, last)
	}
}

// TestJobJournalReplay pins the crash-recovery contract at the package level:
// a server that acknowledged a job and died (Close without letting it run)
// replays the journal on reopen and completes the job with the byte-identical
// body. Also covers hit-disk: the reopened server answers the synchronous
// request from the durable tier.
func TestJobJournalReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, Version: "replay-test", StoreDir: dir}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wedge the worker so the job is acknowledged but never executes, then
	// Close: the submit entry stays incomplete in the journal, exactly the
	// state kill -9 after the 202 leaves behind.
	s1.work <- struct{}{}
	rec := postHandler(t, s1, "/v1/jobs", `{"name":"paper","seed":11}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d (%s)", rec.Code, rec.Body.Bytes())
	}
	var acc jobAccepted
	json.Unmarshal(rec.Body.Bytes(), &acc)
	<-s1.work
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := testServer(t, cfg)
	st := waitJob(t, ts2.URL, acc.ID)
	if st.State != JobDone {
		t.Fatalf("replayed job settled %s (%s), want done", st.State, st.Error)
	}
	if got := s2.Stats(); got.JobsReplayed != 1 {
		t.Fatalf("jobsReplayed = %d, want 1", got.JobsReplayed)
	}
	_, replayBody := get(t, ts2.URL, "/v1/jobs/"+acc.ID+"/result")

	// A third process serves the same request synchronously from disk.
	s3, ts3 := testServer(t, cfg)
	resp, syncBody := post(t, ts3.URL, "/v1/runs", `{"name":"paper","seed":11}`)
	if c := resp.Header.Get("X-Cache"); c != "hit-disk" {
		t.Fatalf("reopened server X-Cache = %q, want hit-disk", c)
	}
	if !bytes.Equal(replayBody, syncBody) {
		t.Fatalf("replayed body differs from disk-served body:\n%s\n%s", replayBody, syncBody)
	}
	if got := s3.Stats(); got.DiskHits != 1 || got.StoreEntries == 0 {
		t.Fatalf("durability stats = %+v, want a disk hit and entries", got)
	}
	// The terminal journal entry also restores the job record itself.
	_, statusBody := get(t, ts3.URL, "/v1/jobs/"+acc.ID)
	var restored jobStatus
	if err := json.Unmarshal(statusBody, &restored); err != nil || restored.State != JobDone {
		t.Fatalf("restored job status %q, want done", statusBody)
	}
}

// TestDrainRejectsNewJobs pins the drain semantics: after Drain starts, new
// submissions get 503 draining, while finished jobs remain queryable.
func TestDrainRejectsNewJobs(t *testing.T) {
	s, ts := testServer(t, Config{})
	acc := submitJob(t, ts.URL, `{"name":"paper","seed":12}`)
	waitJob(t, ts.URL, acc.ID)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL, "/v1/jobs", `{"name":"paper","seed":13}`)
	var e errorBody
	json.Unmarshal(body, &e)
	if resp.StatusCode != http.StatusServiceUnavailable || e.Code != CodeDraining {
		t.Fatalf("draining submit: status %d code %q, want 503 %s", resp.StatusCode, e.Code, CodeDraining)
	}
	if _, statusBody := get(t, ts.URL, "/v1/jobs/"+acc.ID); !strings.Contains(string(statusBody), JobDone) {
		t.Fatalf("finished job unavailable during drain: %s", statusBody)
	}
}

// TestJobFailureIsTerminal pins the failure path: a job whose simulation
// fails deterministically lands in failed with job_failed semantics on the
// result fetch, and a reopened server does NOT replay it (the OpFail entry is
// terminal).
func TestJobFailureIsTerminal(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, Version: "fail-test", StoreDir: dir}
	// An infeasible deployment: validation passes, construction panics.
	req := fmt.Sprintf(`{"scenario":%s,"seed":1}`, infeasiblePoissonSpec(t))

	s1, ts1 := testServer(t, cfg)
	acc := submitJob(t, ts1.URL, req)
	st := waitJob(t, ts1.URL, acc.ID)
	if st.State != JobFailed || st.ErrorCode != CodePanic {
		t.Fatalf("job settled %s/%s (%s), want failed/panic", st.State, st.ErrorCode, st.Error)
	}
	resp, body := get(t, ts1.URL, "/v1/jobs/"+acc.ID+"/result")
	var e errorBody
	json.Unmarshal(body, &e)
	if resp.StatusCode != http.StatusGone || e.Code != CodeJobFailed {
		t.Fatalf("failed job result: status %d code %q, want 410 %s", resp.StatusCode, e.Code, CodeJobFailed)
	}
	if got := s1.Stats(); got.JobsFailed != 1 {
		t.Fatalf("jobsFailed = %d, want 1", got.JobsFailed)
	}

	s2, ts2 := testServer(t, cfg)
	if got := s2.Stats(); got.JobsReplayed != 0 {
		t.Fatalf("failed job was replayed: %+v", got)
	}
	_, statusBody := get(t, ts2.URL, "/v1/jobs/"+acc.ID)
	var restored jobStatus
	if err := json.Unmarshal(statusBody, &restored); err != nil || restored.State != JobFailed {
		t.Fatalf("restored failed-job status %q, want failed", statusBody)
	}
}

// TestShardsHintSharesKey pins that the shards execution hint is absent from
// the content address: a sharded submission is a cache hit against the serial
// run's result, and a one-shard miss computes the serial bytes.
func TestShardsHintSharesKey(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp1, body1 := post(t, ts.URL, "/v1/runs", `{"name":"paper","seed":21}`)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("serial status = %d (%s)", resp1.StatusCode, body1)
	}
	resp2, body2 := post(t, ts.URL, "/v1/runs", `{"name":"paper","seed":21,"shards":2}`)
	if c := resp2.Header.Get("X-Cache"); c != "hit-mem" {
		t.Fatalf("sharded respelling X-Cache = %q, want hit-mem", c)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("sharded request body differs from serial")
	}

	// One shard runs every spec, including one that cannot split across
	// kernels: a one-shard miss of harsh (falloff loss, collisions, CSMA) on
	// its own server is byte-identical to a serial miss.
	missOf := func(body string) []byte {
		t.Helper()
		_, ts := testServer(t, Config{})
		resp, data := post(t, ts.URL, "/v1/runs", body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("%s: status %d, X-Cache %q, want 200 miss (%s)",
				body, resp.StatusCode, resp.Header.Get("X-Cache"), data)
		}
		return data
	}
	if !bytes.Equal(missOf(`{"name":"harsh","seed":21,"shards":1}`), missOf(`{"name":"harsh","seed":21}`)) {
		t.Fatal("one-shard harsh body differs from serial")
	}

	// A spec and its canonical spelling share a key, so they must share the
	// shards verdict too: a crash window with nothing to crash normalizes
	// away, and the spec runs on two kernels like its canonical form.
	spec := `{"name":"from5","field":{"Min":{"X":0,"Y":0},"Max":{"X":40,"Y":40}},"nodes":30,` +
		`"horizon":140,"radio":{"range":10},` +
		`"stimulus":{"kind":"radial","origin":{"X":0,"Y":20},"speed":0.5,"start":10}`
	sp, err := scenario.Decode([]byte(spec + `,"failures":{"from":5}}`))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := scenario.Canonical(sp)
	if err != nil {
		t.Fatal(err)
	}
	_, ts = testServer(t, Config{})
	respA, bodyA := post(t, ts.URL, "/v1/runs", `{"scenario":`+spec+`,"failures":{"from":5}},"seed":4,"shards":2}`)
	respB, bodyB := post(t, ts.URL, "/v1/runs", `{"scenario":`+string(canon)+`,"seed":4,"shards":2}`)
	if respA.StatusCode != respB.StatusCode || respA.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s) for the spec, %d (%s) for its canonical form; want 200 for both",
			respA.StatusCode, bodyA, respB.StatusCode, bodyB)
	}
	if ka, kb := respA.Header.Get("X-Result-Key"), respB.Header.Get("X-Result-Key"); ka != kb || ka == "" {
		t.Fatalf("X-Result-Key %q for the spec, %q for its canonical form", ka, kb)
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatal("spec and canonical form served different bodies")
	}
}
