package experiment

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/scenario"
)

// TestRunOnceContextCancelled verifies a dead context stops a run before it
// completes (and before it even builds).
func TestRunOnceContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunOnceContext(ctx, RunConfig{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunOnceContextCancelMidRun cancels a scale-1k run from its progress
// hook at the first report, at 0, 1 and 2 shards: the kernel must stop
// between windows and return the cancellation instead of a report.
func TestRunOnceContextCancelMidRun(t *testing.T) {
	spec, ok := scenario.Lookup("scale-1k")
	if !ok {
		t.Fatal("scale-1k missing from the scenario registry")
	}
	rc, err := FromScenario(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1, 2} {
		rc.Shards = shards
		ctx, cancel := context.WithCancel(context.Background())
		ctx = node.WithProgress(ctx, func(float64, float64) { cancel() })
		_, err := RunOnceContext(ctx, rc)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: err = %v, want context.Canceled", shards, err)
		}
	}
}

// TestRunOnceContextMatchesRunOnce pins that a live cancellable context,
// polled after every window, produces byte-identical reports to the plain
// Background run, at several seeds.
func TestRunOnceContextMatchesRunOnce(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rc := RunConfig{Seed: seed}
		want, err := RunOnce(rc)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		got, err := RunOnceContext(ctx, rc)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: cancellable run drifted from the Background run", seed)
		}
	}
}

// TestReplicateParallelContextCancel verifies cancellation propagates through
// the replication pool at serial and parallel settings.
func TestReplicateParallelContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []int{1, 4} {
		_, err := ReplicateParallelContext(ctx, RunConfig{}, DefaultSeeds(8), p)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", p, err)
		}
	}
}

// TestReplicateContextMatchesReplicate pins aggregate equality between the
// ctx and ctx-free forms on a live context.
func TestReplicateContextMatchesReplicate(t *testing.T) {
	seeds := DefaultSeeds(3)
	want, err := Replicate(RunConfig{}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, err := ReplicateContext(ctx, RunConfig{}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("ctx-aware replication drifted from the plain form")
	}
}
