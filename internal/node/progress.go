package node

import "context"

// ProgressFunc observes a running simulation's advance through virtual time:
// now is the kernel time reached, horizon the run's end. Hooks are called
// from the run orchestration goroutine — never from inside an event handler —
// so they cannot perturb the event sequence; a progress-observed run is
// byte-identical to an unobserved one. Implementations must be cheap and
// must not block: a run reports once per window and once at the horizon —
// at most 129 calls on one shard, and one per conservative window on two or
// more, which at 100k-node scale is tens of thousands of calls.
type ProgressFunc func(now, horizon float64)

// progressKey carries a ProgressFunc through a context.
type progressKey struct{}

// WithProgress derives a context whose simulation runs report progress to fn.
// The hook rides the context through every layer (experiment.RunOnceContext →
// Network.RunContext) without widening any signature, so the serving layer
// can stream per-window progress for a 100k-node sharded run it queued as
// an async job.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// ProgressFromContext extracts the hook WithProgress installed, or nil.
// Layers that fan one logical run across several simulations (the serving
// replicate path) use it to wrap the caller's hook with a rescaled one.
func ProgressFromContext(ctx context.Context) ProgressFunc {
	fn, _ := ctx.Value(progressKey{}).(ProgressFunc)
	return fn
}
