package runner

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestMapContextCancelStopsClaiming(t *testing.T) {
	for _, p := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		_, err := MapContext(ctx, p, 1000, func(ctx context.Context, i int) (int, error) {
			if ran.Add(1) == 3 {
				cancel()
			}
			return i, nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", p, err)
		}
		if n := ran.Load(); n >= 1000 {
			t.Fatalf("parallelism %d: all %d jobs ran despite cancellation", p, n)
		}
	}
}

func TestMapContextCompletedRunIgnoresLateCancel(t *testing.T) {
	// Cancelling after every job finished must not retroactively fail the
	// run: the result set is complete.
	for _, p := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		out, err := MapContext(ctx, p, 32, func(ctx context.Context, i int) (int, error) {
			return i * 2, nil
		})
		cancel()
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if len(out) != 32 || out[31] != 62 {
			t.Fatalf("parallelism %d: bad results %v", p, out)
		}
	}
}

func TestMapContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []int{1, 4} {
		var ran atomic.Int64
		_, err := MapContext(ctx, p, 16, func(ctx context.Context, i int) (int, error) {
			ran.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", p, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("parallelism %d: %d jobs ran under a dead context", p, ran.Load())
		}
	}
}

func TestMapContextJobErrorBeatsCancel(t *testing.T) {
	// A real job failure is more informative than the cancellation it may
	// have raced with; the lowest-indexed job error wins.
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := MapContext(ctx, 4, 64, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			cancel()
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the job error", err)
	}
}

func TestMapIsMapContextBackground(t *testing.T) {
	out, err := Map(2, 8, func(i int) (int, error) { return i + 1, nil })
	if err != nil || len(out) != 8 || out[7] != 8 {
		t.Fatalf("Map through MapContext drifted: %v %v", out, err)
	}
}
