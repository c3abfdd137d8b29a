package dnsserver

import "sync"

// defaultCacheBytes bounds the response cache when Config.CacheBytes is
// zero. Keys include the full qname, so a root's working set has no fixed
// size: every distinct name under a TLD, and every junk name, takes an entry
// of its own, and a budget of any size fills under junk-heavy traffic. The
// budget therefore only needs to hold the repeated names — about a thousand
// answers fit in 1 MiB — while the indexed zone answers a miss in
// microseconds. A larger budget mostly buys resident memory: 8 MiB roughly
// tripled the live heap of a 1,500-TLD zone.
const defaultCacheBytes = 1 << 20

// cacheEntryOverhead is the accounting charge per entry beyond its key and
// wire bytes, approximating map bucket and slice header costs.
const cacheEntryOverhead = 64

// respCache memoizes final response wires keyed by raw question-section
// bytes plus the EDNS bucket octet. Entries store exactly the bytes the
// slow path sent (ID patched per hit), so hits are byte-identical to
// recomputed answers by construction. The cache belongs to one serveState
// and is never invalidated in place: SetZone swaps the whole state, cache
// included, so stale entries are unreachable the instant a new zone lands.
//
// Eviction is insertion-order (oldest first) under a byte budget — the same
// policy as the battery's message cache, and good enough when the hot set
// (delegations, apex RRsets) is inserted early and junk NXDOMAINs churn the
// tail.
type respCache struct {
	mu sync.RWMutex
	//rootlint:guardedby mu
	entries map[string][]byte
	//rootlint:guardedby mu
	keys []string // insertion order; keys[evictHead:] are live
	//rootlint:guardedby mu
	evict int // index of the oldest live key
	//rootlint:guardedby mu
	bytes int64
	//rootlint:immutable-after-start
	budget int64
}

func newRespCache(budget int64) *respCache {
	if budget <= 0 {
		budget = defaultCacheBytes
	}
	return &respCache{entries: make(map[string][]byte), budget: budget}
}

// get returns the cached wire for key, or nil. The string(key) conversion
// in the map index does not allocate; callers must not retain the result
// past the next put (entries are immutable, so copying into the caller's
// response buffer is safe without holding the lock).
//
//rootlint:hotpath
func (c *respCache) get(key []byte) []byte {
	c.mu.RLock()
	wire := c.entries[string(key)]
	c.mu.RUnlock()
	return wire
}

// put inserts a copy of wire under a copy of key, evicting oldest-first
// until the entry fits. Runs on the miss path only, so its allocations and
// lock are off the hot path.
func (c *respCache) put(key, wire []byte) {
	k := string(key)
	entry := append([]byte(nil), wire...)
	sz := int64(len(k)+len(entry)) + cacheEntryOverhead
	if sz > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[k]; dup {
		// Another shard answered the same query first; keep its bytes.
		return
	}
	for c.bytes+sz > c.budget && c.evict < len(c.keys) {
		old := c.keys[c.evict]
		c.evict++
		if e, ok := c.entries[old]; ok {
			c.bytes -= int64(len(old)+len(e)) + cacheEntryOverhead
			delete(c.entries, old)
			mCacheEvictions.Inc()
		}
	}
	c.entries[k] = entry
	c.keys = append(c.keys, k)
	c.bytes += sz
	if c.evict > len(c.keys)/2 {
		// Drop the evicted prefix so the queue doesn't grow without bound.
		c.keys = append([]string(nil), c.keys[c.evict:]...)
		c.evict = 0
	}
}

// Len reports the live entry count (tests and introspection).
func (c *respCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
