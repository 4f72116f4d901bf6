package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sync"

	"repro/internal/scenario"
)

// resultCache is the process-wide content-addressed result store: finished
// response bodies keyed by the request's content address (code version +
// endpoint mode + canonical spec + seeds). Values are immutable byte slices
// served verbatim, which is what makes cached responses byte-identical to
// the simulation that produced them. Eviction is LRU so a sweep of many
// distinct scenarios cannot wedge the hot entries out faster than they are
// re-used.
type resultCache struct {
	mu    sync.Mutex
	limit int
	m     map[string]*list.Element
	lru   *list.List // front = most recently used
}

// cacheEntry is one stored body with its key (kept for eviction bookkeeping).
type cacheEntry struct {
	key  string
	body []byte
}

func newResultCache(limit int) *resultCache {
	return &resultCache{limit: limit, m: make(map[string]*list.Element), lru: list.New()}
}

// get returns the cached body for key, marking it most recently used.
// Callers must not mutate the result.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put stores body under key, evicting the least recently used entry at the
// limit. Storing an existing key refreshes its recency (the body is the same
// by construction — keys are content addresses).
func (c *resultCache) put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.limit {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
	c.m[key] = c.lru.PushFront(&cacheEntry{key: key, body: body})
}

// len returns the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// specTable holds the canonical encoding of every registry scenario a server
// has been asked for, with its content hash, keyed by name and protocol. The
// registry is fixed when the program starts, so a registry spec with its
// protocol set is a function of the key, and so is its encoding: an entry is
// filled by scenario.Canonical on the first request for its key and served
// from then on. The keys are the registry's names times the four protocols,
// plus each name with its protocol as registered (the listing's), so the
// table never evicts. Concurrent requests share the entries, which nothing
// writes after the fill; callers must not mutate them.
type specTable struct{ m sync.Map } // specKey → *specEntry

type specKey struct{ name, protocol string }

type specEntry struct {
	canon []byte // capacity clipped, so an append copies
	hash  string // hex SHA-256 of canon, as scenario.Hash computes it
}

// get returns the entry of sp, which must be registry scenario sp.Name with
// at most its protocol changed, as resolveSpec and scenario.All return it.
func (t *specTable) get(sp scenario.Scenario) (*specEntry, error) {
	k := specKey{sp.Name, sp.Protocol.Name}
	if e, ok := t.m.Load(k); ok {
		return e.(*specEntry), nil
	}
	canon, err := scenario.Canonical(sp)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(canon)
	e, _ := t.m.LoadOrStore(k, &specEntry{canon: slices.Clip(canon), hash: hex.EncodeToString(sum[:])})
	return e.(*specEntry), nil
}
