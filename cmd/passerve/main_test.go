package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe writer the serve goroutine and the test can
// share.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeAndShutdown boots the daemon on an ephemeral port, exercises one
// request end to end, and verifies signal-driven graceful shutdown.
func TestServeAndShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2"}, &stdout, &stderr)
	}()

	// The daemon prints its resolved address once the listener is up.
	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stdout=%q stderr=%q", stdout.String(), stderr.String())
		}
		if out := stdout.String(); strings.Contains(out, "listening on ") {
			line := out[strings.Index(out, "listening on ")+len("listening on "):]
			base = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: status %d body %s", resp.StatusCode, body)
	}

	resp, err = http.Post(base+"/v1/runs", "application/json",
		strings.NewReader(`{"name":"paper","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run through the daemon: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d, stderr=%q", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down after cancel")
	}
	if !strings.Contains(stdout.String(), "shutting down") {
		t.Fatalf("no shutdown notice in stdout: %q", stdout.String())
	}
}

// waitForAddr scrapes the daemon's announced base URL from stdout.
func waitForAddr(t *testing.T, stdout *syncBuffer, stderr *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stdout=%q stderr=%q", stdout.String(), stderr.String())
		}
		if out := stdout.String(); strings.Contains(out, "listening on ") {
			line := out[strings.Index(out, "listening on ")+len("listening on "):]
			return strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGracefulDrainFinishesJobs pins the SIGTERM drain contract end to end:
// a job acknowledged before the signal completes during the drain (journal
// terminal entry and all), and the restarted daemon has nothing to replay —
// the result is already on disk and served from the durable tier.
func TestGracefulDrainFinishesJobs(t *testing.T) {
	store := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2", "-store", store}, &stdout, &stderr)
	}()
	base := waitForAddr(t, &stdout, &stderr)

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"name":"paper","seed":31}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
	}
	var acc struct {
		ID  string `json:"id"`
		Key string `json:"key"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}

	// Signal immediately: the drain must let the acknowledged job finish.
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d, stderr=%q", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after cancel")
	}

	// Restart on the same store: the job must be done (not replayed — its
	// terminal entry survived the drain's fsync) and the result on disk.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var stdout2, stderr2 syncBuffer
	done2 := make(chan int, 1)
	go func() {
		done2 <- run(ctx2, []string{"-addr", "127.0.0.1:0", "-store", store}, &stdout2, &stderr2)
	}()
	base2 := waitForAddr(t, &stdout2, &stderr2)

	resp, err = http.Get(base2 + "/v1/jobs/" + acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"state":"done"`) {
		t.Fatalf("restarted daemon job status: %s", body)
	}
	resp, err = http.Post(base2+"/v1/runs", "application/json",
		strings.NewReader(`{"name":"paper","seed":31}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if c := resp.Header.Get("X-Cache"); c != "hit-disk" {
		t.Fatalf("restarted daemon X-Cache = %q, want hit-disk", c)
	}
	var st struct {
		JobsReplayed uint64 `json:"jobsReplayed"`
		StoreEntries int    `json:"storeEntries"`
	}
	resp, err = http.Get(base2 + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.JobsReplayed != 0 || st.StoreEntries == 0 {
		t.Fatalf("restart stats = %+v, want 0 replays and persisted entries", st)
	}
	cancel2()
	<-done2
}

// TestFlagErrors pins the CLI error paths.
func TestFlagErrors(t *testing.T) {
	var out syncBuffer
	if code := run(context.Background(), []string{"-nope"}, &out, &out); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-h"}, &out, &out); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
	if code := run(context.Background(), []string{"-addr", "256.256.256.256:1"}, &out, &out); code != 1 {
		t.Fatalf("unbindable addr: exit %d, want 1", code)
	}
	// Zero means the default; a negative size or duration is a usage error
	// that exits 2 before anything listens.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "-2"}, "passerve: -workers -2 must not be negative\n"},
		{[]string{"-queue", "-5"}, "passerve: -queue -5 must not be negative\n"},
		{[]string{"-cache", "-1"}, "passerve: -cache -1 must not be negative\n"},
		{[]string{"-timeout", "-1s"}, "passerve: -timeout -1s must not be negative\n"},
		{[]string{"-max-timeout", "-2m"}, "passerve: -max-timeout -2m0s must not be negative\n"},
		{[]string{"-job-timeout", "-3s"}, "passerve: -job-timeout -3s must not be negative\n"},
	} {
		var stdout, stderr syncBuffer
		if code := run(context.Background(), append([]string{"-addr", "127.0.0.1:0"}, tc.args...), &stdout, &stderr); code != 2 ||
			stderr.String() != tc.want || stdout.String() != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and %q",
				tc.args, code, stdout.String(), stderr.String(), tc.want)
		}
	}
}
