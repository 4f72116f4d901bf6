// Command passerve runs the PAS reproduction as a long-lived simulation
// service: an HTTP/JSON daemon that schedules runs on a bounded worker pool
// and answers repeated questions from a content-addressed result store
// (determinism makes identical requests cache hits, not re-simulations).
//
// Usage:
//
//	passerve                          # listen on :8080 with defaults
//	passerve -addr 127.0.0.1:9090     # bind elsewhere
//	passerve -workers 8 -queue 32     # pool sizing (admission beyond → 429)
//	passerve -timeout 10s -max-timeout 1m
//	passerve -cache 16384             # result-store capacity (entries)
//	passerve -store /var/lib/passerve # durable store + job journal (crash-safe)
//	passerve -job-timeout 30m         # async-job execution cap
//
// Endpoints:
//
//	POST /v1/runs            {"name":"paper","seed":1}        one simulation
//	POST /v1/replicate       {"name":"paper","seeds":[1,2,3]} seed aggregate
//	POST /v1/jobs            async submission (202 + job ID; journaled)
//	GET  /v1/jobs/{id}       job status (?stream=1 for NDJSON progress)
//	GET  /v1/jobs/{id}/result  the finished body
//	GET  /v1/scenarios                                        the registry
//	GET  /v1/stats                                            serving counters
//	GET  /v1/healthz                                          liveness
//
// The process shuts down gracefully on SIGINT/SIGTERM: the listener stops
// admitting, in-flight requests drain, acknowledged jobs run to completion
// (bounded by the drain timeout), and the journal and store are fsynced. A
// job the drain deadline cuts off stays incomplete in the journal, so the
// next start re-executes it — with -store set, kill -9 at any instant loses
// no acknowledged work.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	pas "repro"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// parseFlags parses the command line into a serve configuration.
func parseFlags(args []string, stderr io.Writer) (addr string, cfg pas.ServeConfig, err error) {
	fs := flag.NewFlagSet("passerve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.Workers, "workers", 0, "concurrent simulations (0 = one per CPU)")
	fs.IntVar(&cfg.QueueDepth, "queue", 0, "queued simulations beyond the workers before 429 (0 = 4x workers)")
	fs.DurationVar(&cfg.DefaultTimeout, "timeout", 0, "default per-request deadline (0 = 30s)")
	fs.DurationVar(&cfg.MaxTimeout, "max-timeout", 0, "hard cap on request deadlines (0 = 2m)")
	fs.IntVar(&cfg.CacheEntries, "cache", 0, "result-store capacity in entries (0 = 4096)")
	fs.StringVar(&cfg.StoreDir, "store", "", "durable store directory (empty = memory-only)")
	fs.DurationVar(&cfg.JobTimeout, "job-timeout", 0, "async-job execution cap (0 = 10m)")
	if err = fs.Parse(args); err == nil {
		if err = checkBounds(cfg); err != nil {
			fmt.Fprintf(stderr, "passerve: %v\n", err)
		}
	}
	return addr, cfg, err
}

// checkBounds rejects negative sizes and durations: zero means the default,
// and a negative value is a usage error, not another spelling of zero.
func checkBounds(cfg pas.ServeConfig) error {
	switch {
	case cfg.Workers < 0:
		return fmt.Errorf("-workers %d must not be negative", cfg.Workers)
	case cfg.QueueDepth < 0:
		return fmt.Errorf("-queue %d must not be negative", cfg.QueueDepth)
	case cfg.CacheEntries < 0:
		return fmt.Errorf("-cache %d must not be negative", cfg.CacheEntries)
	case cfg.DefaultTimeout < 0:
		return fmt.Errorf("-timeout %v must not be negative", cfg.DefaultTimeout)
	case cfg.MaxTimeout < 0:
		return fmt.Errorf("-max-timeout %v must not be negative", cfg.MaxTimeout)
	case cfg.JobTimeout < 0:
		return fmt.Errorf("-job-timeout %v must not be negative", cfg.JobTimeout)
	}
	return nil
}

// run executes one invocation and returns the process exit code. It serves
// until ctx is cancelled, then drains in-flight requests and exits.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	addr, cfg, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "passerve: %v\n", err)
		return 1
	}
	handler, err := pas.NewServer(cfg)
	if err != nil {
		ln.Close()
		fmt.Fprintf(stderr, "passerve: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: handler}
	fmt.Fprintf(stdout, "passerve listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// Serve only returns on listener failure here (Shutdown is the
		// other path, and it goes through ctx).
		fmt.Fprintf(stderr, "passerve: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop the listener and finish in-flight requests, then
	// let acknowledged jobs run to completion and fsync the journal/store.
	// Jobs the deadline cuts off stay incomplete in the journal and replay on
	// the next start — graceful shutdown degrades to crash recovery, never to
	// lost work.
	fmt.Fprintln(stdout, "passerve shutting down")
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	code := 0
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "passerve: shutdown: %v\n", err)
		code = 1
	}
	if err := handler.Drain(drainCtx); err != nil {
		fmt.Fprintf(stderr, "passerve: drain: %v\n", err)
		code = 1
	}
	if err := handler.Close(); err != nil {
		fmt.Fprintf(stderr, "passerve: close: %v\n", err)
		code = 1
	}
	return code
}
