package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, p := range []int{0, 1, 2, 4, 16} {
		out, err := Map(p, 64, func(i int) (int, error) {
			// Invert the natural completion order so index order can only
			// come from the merge, not from scheduling luck.
			time.Sleep(time.Duration(64-i) * 10 * time.Microsecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if len(out) != 64 {
			t.Fatalf("parallelism %d: len = %d", p, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("parallelism %d: out[%d] = %d, want %d", p, i, v, i*i)
			}
		}
	}
}

func TestMapDeterministicAcrossParallelism(t *testing.T) {
	run := func(p int) []int {
		out, err := Map(p, 100, func(i int) (int, error) { return 3*i + 1, nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, p := range []int{2, 8, 32} {
		par := run(p)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("parallelism %d diverged at %d: %d vs %d", p, i, par[i], serial[i])
			}
		}
	}
}

func TestMapErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	for _, p := range []int{1, 4} {
		_, err := Map(p, 10, func(i int) (int, error) {
			if i == 7 {
				return 0, fmt.Errorf("job 7: %w", boom)
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("parallelism %d: err = %v, want wrapped boom", p, err)
		}
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	// Every job fails; the reported error must be the lowest-indexed one
	// among those that ran, and with parallelism 1 that is exactly job 0.
	_, err := Map(1, 10, func(i int) (int, error) {
		return 0, fmt.Errorf("job %d failed", i)
	})
	if err == nil || err.Error() != "job 0 failed" {
		t.Fatalf("err = %v, want job 0 failed", err)
	}
}

func TestMapCancelsOnFirstError(t *testing.T) {
	const n = 1000
	var started atomic.Int64
	_, err := Map(4, n, func(i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, errors.New("fail fast")
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := started.Load(); got >= n/2 {
		t.Fatalf("%d of %d jobs ran after the first error; cancellation is not working", got, n)
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	out, err := Map(8, 0, func(int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("empty: out=%v err=%v", out, err)
	}
	out, err = Map(8, 1, func(i int) (int, error) { return 42, nil })
	if err != nil || len(out) != 1 || out[0] != 42 {
		t.Fatalf("single: out=%v err=%v", out, err)
	}
}

func TestDefaultParallelism(t *testing.T) {
	if DefaultParallelism() < 1 {
		t.Fatalf("DefaultParallelism() = %d", DefaultParallelism())
	}
}

func TestMapConvertsWorkerPanicsToErrors(t *testing.T) {
	_, err := Map(4, 8, func(i int) (int, error) {
		if i == 3 {
			panic("boom")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("worker panic not converted: err = %v", err)
	}
	// The serial path reproduces a plain loop: panics propagate to the caller.
	defer func() {
		if recover() == nil {
			t.Error("serial panic swallowed")
		}
	}()
	_, _ = Map(1, 2, func(int) (int, error) { panic("serial boom") })
}
