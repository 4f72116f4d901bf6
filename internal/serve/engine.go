package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/node"
)

// computation is one in-flight simulation for a result key, shared by every
// waiter — a sync request or a job — that needs the key while it runs.
// Determinism makes the sharing sound: identical keys denote byte-identical
// results, so no waiter can tell it from a computation of its own.
type computation struct {
	call   simCall
	cancel context.CancelFunc
	done   chan struct{} // closed once body and err are final
	body   []byte
	err    error

	waiters int // guarded by Server.mu; the last one to leave cancels

	mu       sync.Mutex
	running  bool    // holds a worker slot
	progress float64 // virtual-time fraction in [0, 1]
}

// report is the computation's progress hook (node.WithProgress).
func (c *computation) report(now, horizon float64) {
	c.mu.Lock()
	if frac := now / horizon; frac > c.progress {
		c.progress = frac
	}
	c.mu.Unlock()
}

// status reports the job state the computation implies and its progress.
func (c *computation) status() (string, float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		return JobRunning, c.progress
	}
	return JobPending, c.progress
}

// submit routes one request through the engine. A stored body comes back
// with the tier that answered it; otherwise the caller becomes a waiter on
// the key's computation — the one in flight, or a new one it admits and
// starts — and must wait on (or leave) it. force admits past the
// Workers+QueueDepth bound: replay never rejects a job it acknowledged.
func (s *Server) submit(call *simCall, force bool) (body []byte, tier string, c *computation, err error) {
	if body, tier := s.stored(call.Key); tier != "" {
		return body, tier, nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.inflight[call.Key]; c != nil {
		c.waiters++
		s.stats.collapsed.Add(1)
		return nil, "miss", c, nil
	}
	// A computation that finished since the lookup above stored its body
	// before leaving the index, so this re-read keeps simulations executed
	// equal to distinct keys.
	if body, ok := s.cache.get(call.Key); ok {
		return body, "hit-mem", nil, nil
	}
	switch {
	case s.ctx.Err() != nil:
		return nil, "", nil, errClosed
	case s.admitted >= s.cfg.Workers+s.cfg.QueueDepth && !force:
		return nil, "", nil, errSaturated
	}
	s.admitted++
	ctx, cancel := context.WithCancel(s.ctx)
	c = &computation{call: *call, cancel: cancel, done: make(chan struct{}), waiters: 1}
	s.inflight[call.Key] = c
	s.wg.Add(1)
	go s.run(ctx, c)
	return nil, "miss", c, nil
}

// wait blocks until c settles or ctx ends; a waiter whose ctx ends leaves c
// and gets ctx's error.
func (s *Server) wait(ctx context.Context, c *computation) ([]byte, error) {
	select {
	case <-c.done:
		return c.body, c.err
	case <-ctx.Done():
		s.leave(c)
		return nil, ctx.Err()
	}
}

// leave drops one waiter from c. The last one out cancels c and takes it out
// of the index, so a later request starts a new computation instead of
// joining a cancelled one.
func (s *Server) leave(c *computation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.waiters--; c.waiters == 0 {
		c.cancel()
		if s.inflight[c.call.Key] == c {
			delete(s.inflight, c.call.Key)
		}
	}
}

// run executes one admitted computation on a server goroutine: a worker
// slot (or cancellation while queued), the guarded compute with c's progress
// hook installed, and the write-through of a result to both tiers. c leaves
// the index and frees its admission slot before its waiters wake, so they
// find the body stored and the gauges drained.
func (s *Server) run(ctx context.Context, c *computation) {
	defer s.wg.Done()
	s.stats.queued.Add(1)
	select {
	case s.work <- struct{}{}:
		s.stats.queued.Add(-1)
		c.mu.Lock()
		c.running = true
		c.mu.Unlock()
		s.stats.inFlight.Add(1)
		s.stats.simulations.Add(1)
		start := time.Now()
		c.body, c.err = computeGuarded(node.WithProgress(ctx, c.report), c.call.compute)
		if c.err == nil {
			s.stats.compute.record(float64(time.Since(start)) / float64(time.Millisecond))
			s.persist(c.call.Key, c.body)
		}
		s.stats.inFlight.Add(-1)
		<-s.work
	case <-ctx.Done():
		s.stats.queued.Add(-1)
		c.err = ctx.Err()
	}
	c.cancel()
	s.mu.Lock()
	s.admitted--
	if s.inflight[c.call.Key] == c {
		delete(s.inflight, c.call.Key)
	}
	s.mu.Unlock()
	close(c.done)
}

// computeGuarded runs one simulation computation with a panic barrier: a
// spec that passes validation but panics deep in the harness (an infeasible
// poisson deployment saturating its candidate budget, a stimulus-model bug)
// becomes a plain 500 for its waiters instead of killing the daemon — and,
// because the panic surfaces as an error, the computation settles and
// nothing wedges. The offending key is never stored, so the panic message
// stays reproducible.
func computeGuarded(ctx context.Context, compute func(ctx context.Context) ([]byte, error)) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &httpError{status: http.StatusInternalServerError, code: CodePanic,
				msg: fmt.Sprintf("simulation panicked: %v", r)}
		}
	}()
	return compute(ctx)
}

// stored looks key up in the memory tier, then the disk tier (promoting a
// disk hit into memory), and names the tier that answered ("" for neither).
func (s *Server) stored(key string) ([]byte, string) {
	if body, ok := s.cache.get(key); ok {
		return body, "hit-mem"
	}
	if s.disk != nil {
		if body, ok := s.disk.Get(key); ok {
			s.cache.put(key, body)
			return body, "hit-disk"
		}
	}
	return nil, ""
}

// persist writes a freshly computed body through both store tiers. A disk
// write failure demotes the result to memory-only — the response is still
// correct (determinism lets a future process recompute it), so the request
// must not fail over durability bookkeeping; the failure is counted instead.
func (s *Server) persist(key string, body []byte) {
	s.cache.put(key, body)
	if s.disk != nil {
		if err := s.disk.Put(key, body); err != nil {
			s.stats.storeErrors.Add(1)
		}
	}
}
