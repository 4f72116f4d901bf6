package node

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestProgressSerial pins the progress hook on a BuildNetwork run, the
// one-shard case: monotone non-decreasing reports ending exactly at the
// horizon, at most one per window plus the horizon, and a hooked run whose
// delivery sequences equal an unhooked one's.
func TestProgressSerial(t *testing.T) {
	const horizon = 2.0

	plain := newFloodAgents()
	BuildNetwork(lineConfig(plain)).Run(horizon)

	hooked := newFloodAgents()
	nw := BuildNetwork(lineConfig(hooked))
	var reports []float64
	ctx := WithProgress(context.Background(), func(now, h float64) {
		if h != horizon {
			t.Fatalf("hook horizon = %g, want %g", h, horizon)
		}
		reports = append(reports, now)
	})
	if _, err := nw.RunContext(ctx, horizon); err != nil {
		t.Fatal(err)
	}

	if len(reports) < 2 || len(reports) > oneShardWindows+1 {
		t.Fatalf("got %d reports, want 2 to %d (one per window plus the horizon)",
			len(reports), oneShardWindows+1)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] < reports[i-1] {
			t.Fatalf("progress regressed: %g after %g", reports[i], reports[i-1])
		}
	}
	if last := reports[len(reports)-1]; last != horizon {
		t.Fatalf("final report = %g, want the %g horizon", last, horizon)
	}
	for id := range plain {
		got, want := hooked[id].rx, plain[id].rx
		if len(got) != len(want) {
			t.Fatalf("node %d: hooked run saw %d deliveries, plain %d", id, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %d delivery %d: %+v vs %+v", id, i, got[i], want[i])
			}
		}
	}
}

// TestProgressSharded pins the per-window progress hook at 1, 2 and 3
// shards: monotone non-decreasing reports ending exactly at the horizon, and
// delivery sequences identical to the unhooked serial run.
func TestProgressSharded(t *testing.T) {
	const horizon = 2.0
	const minWire = 12

	serial := newFloodAgents()
	BuildNetwork(lineConfig(serial)).Run(horizon)

	for _, shards := range []int{1, 2, 3} {
		agents := newFloodAgents()
		snw := BuildShardedNetwork(lineConfig(agents), shards, minWire)
		var reports []float64
		ctx := WithProgress(context.Background(), func(now, h float64) {
			if h != horizon {
				t.Fatalf("shards=%d: hook horizon = %g, want %g", shards, h, horizon)
			}
			reports = append(reports, now)
		})
		if _, err := snw.RunContext(ctx, horizon); err != nil {
			t.Fatal(err)
		}
		if len(reports) < 2 {
			t.Fatalf("shards=%d: only %d progress reports", shards, len(reports))
		}
		for i := 1; i < len(reports); i++ {
			if reports[i] < reports[i-1] {
				t.Fatalf("shards=%d: progress regressed: %g after %g", shards, reports[i], reports[i-1])
			}
		}
		if last := reports[len(reports)-1]; last != horizon {
			t.Fatalf("shards=%d: final report = %g, want the horizon", shards, last)
		}
		for id := range serial {
			got, want := agents[id].rx, serial[id].rx
			if len(got) != len(want) {
				t.Fatalf("shards=%d node %d: hooked run saw %d deliveries, serial %d",
					shards, id, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("shards=%d node %d delivery %d: %+v vs %+v", shards, id, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRunContextCancelMidRun cancels a flood run from its progress hook at
// the second report, at 1, 2 and 3 shards: the run must stop with
// context.Canceled at a virtual time below the horizon, and every shard
// goroutine must have exited.
func TestRunContextCancelMidRun(t *testing.T) {
	const horizon = 2.0
	const minWire = 12

	// A shard goroutine that has signalled its WaitGroup can linger in the
	// count until it is next scheduled, so earlier tests' runs may still be
	// leaving: start from a count that holds steady.
	start := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == start {
			break
		}
		start = n
	}
	for _, shards := range []int{1, 2, 3} {
		nw := BuildShardedNetwork(lineConfig(newFloodAgents()), shards, minWire)
		ctx, cancel := context.WithCancel(context.Background())
		reports := 0
		ctx = WithProgress(ctx, func(float64, float64) {
			if reports++; reports == 2 {
				cancel()
			}
		})
		reached, err := nw.RunContext(ctx, horizon)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: err = %v, want context.Canceled", shards, err)
		}
		if reached >= horizon {
			t.Fatalf("shards=%d: cancelled run reached %g, want below the %g horizon", shards, reached, horizon)
		}
		if reports != 2 {
			t.Fatalf("shards=%d: %d reports after cancelling at the second", shards, reports)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > start; {
			if time.Now().After(deadline) {
				t.Fatalf("shards=%d: %d goroutines after the cancelled run, %d at the start",
					shards, runtime.NumGoroutine(), start)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestProgressAbsentKeepsFastPath pins that a background context without a
// hook runs to completion and returns the horizon with no error.
func TestProgressAbsentKeepsFastPath(t *testing.T) {
	agents := newFloodAgents()
	nw := BuildNetwork(lineConfig(agents))
	if h, err := nw.RunContext(context.Background(), 2.0); err != nil || h != 2.0 {
		t.Fatalf("RunContext = %g, %v", h, err)
	}
}
