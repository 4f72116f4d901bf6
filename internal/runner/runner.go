// Package runner is the parallel replication engine of the experiment
// harness. Every (experiment × sweep-point × protocol × seed) cell of the
// paper's evaluation is an independent simulation, so the harness fans cells
// out across a worker pool and merges results deterministically: results are
// keyed and ordered by job index, never by completion order, which makes the
// parallel output bit-identical to a serial run over the same jobs.
//
// The pool claims jobs from an atomic counter (work stealing without a
// queue), stops claiming on the first error, and reports the error of the
// lowest-indexed job that actually failed. Note that which jobs run before
// the pool stops depends on goroutine scheduling, so under parallelism the
// reported error can differ between runs that have multiple failing jobs.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultParallelism is the worker count used when a caller passes a
// non-positive parallelism: one worker per available CPU.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// Map runs n index-addressed jobs on a pool of parallelism workers and
// returns the results in job-index order. A non-positive parallelism means
// DefaultParallelism; parallelism 1 runs the jobs serially in index order on
// the calling goroutine, reproducing a plain loop exactly.
//
// On error the pool cancels: no new jobs are claimed, in-flight jobs finish,
// and Map returns the error of the lowest-indexed job that failed. Results
// are nil on error.
//
// A job that panics under parallelism is reported as an error instead of
// killing the process: a panic in a worker goroutine is unrecoverable by the
// caller, so the pool catches it at the job boundary. The serial path
// deliberately lets panics propagate unchanged (parallelism 1 reproduces a
// plain loop, stack trace included).
func Map[T any](parallelism, n int, job func(i int) (T, error)) ([]T, error) {
	return MapContext(context.Background(), parallelism, n,
		func(_ context.Context, i int) (T, error) { return job(i) })
}

// MapContext is Map with cooperative cancellation: the pool stops claiming
// new jobs once ctx is done, in-flight jobs finish (each receives ctx, so a
// ctx-aware job can also stop early), and the error returned is the lowest-
// indexed job error when one occurred, else ctx.Err() when cancellation left
// any job unclaimed or unfinished. A run whose jobs all completed before the
// cancellation returns its full results and a nil error. The serial path
// checks ctx between jobs and otherwise reproduces a plain loop exactly,
// panics included.
func MapContext[T any](ctx context.Context, parallelism, n int, job func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if parallelism <= 0 {
		parallelism = DefaultParallelism()
	}
	if parallelism > n {
		parallelism = n
	}
	out := make([]T, n)
	if parallelism == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := job(ctx, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	safeJob := func(i int) (v T, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("runner: job %d panicked: %v", i, r)
			}
		}()
		return job(ctx, i)
	}

	var (
		next        atomic.Int64 // next job index to claim
		stop        atomic.Bool  // set on first error; halts claiming
		interrupted atomic.Bool  // ctx cancelled before every job was claimed
		errMu       sync.Mutex
		errIdx      = n // lowest failed index seen so far
		firstEr     error
		wg          sync.WaitGroup
	)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if ctx.Err() != nil {
					// Claimed index i but will not run it: the result set is
					// incomplete, so the whole Map must report cancellation.
					interrupted.Store(true)
					return
				}
				v, err := safeJob(i)
				if err != nil {
					errMu.Lock()
					if i < errIdx {
						errIdx, firstEr = i, err
					}
					errMu.Unlock()
					stop.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	if interrupted.Load() {
		return nil, ctx.Err()
	}
	return out, nil
}
