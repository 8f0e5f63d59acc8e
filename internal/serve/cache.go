package serve

import (
	"container/list"
	"sync"

	"repro/internal/telemetry"
)

// tier is one link of the chain of finished tiers the server walks, fastest
// first: the RAM LRU, then (when mounted) the disk spill store. Every tier
// holds only complete, summary-terminated streams keyed by content address,
// so a hit anywhere replays exactly the bytes a fresh simulation would
// produce.
type tier struct {
	source string             // X-Qoe-Source header value: "cache" or "disk"
	class  string             // latency-histogram class and admit-span outcome
	hits   *telemetry.Counter // the tier's cache_hits_* counter
	get    func(id string) (data []byte, key string, ok bool)
	has    func(id string) bool // existence only: no read, no recency bump
}

// fetch walks the finished tiers in order and returns the first hit,
// counting it once on that tier. A hit below RAM is content-address checked
// — a renamed or cross-wired spill file is internally consistent, so its
// frame checksum alone cannot catch it — and published, which promotes it
// into RAM and demotes RAM's evictees to disk.
func (s *Server) fetch(id string, tiers []*tier) (data []byte, key string, t *tier, ok bool) {
	for _, t = range tiers {
		if data, key, ok = t.get(id); !ok {
			continue
		}
		if t != s.tiers[0] {
			if idFromKey(key) != id {
				s.log.Warn("spill entry fails content-address check; ignoring", "id", id, "key", key)
				continue
			}
			s.publish(id, key, data)
		}
		t.hits.Add(1)
		return data, key, t, true
	}
	return nil, "", nil, false
}

// has is fetch's existence-only form: the first tier holding id, or nil.
// Nothing is read, promoted or counted.
func (s *Server) has(id string) *tier {
	for _, t := range s.tiers {
		if t.has(id) {
			return t
		}
	}
	return nil
}

// publish is the only write into the finished tiers: the stream enters the
// RAM LRU and, write-through, the spill store, and RAM's evictees demote to
// disk. Re-publishing a committed spill entry costs the store one stat.
func (s *Server) publish(id, key string, data []byte) {
	evicted := s.cache.add(id, key, data)
	if s.store == nil {
		return
	}
	for _, e := range append(evicted, &cacheEntry{id: id, key: key, data: data}) {
		if err := s.store.Put(e.id, e.key, e.data); err != nil {
			s.log.Warn("writing to disk failed", "id", e.id, "err", err)
		}
	}
}

// resultCache is the content-addressed LRU over finished run streams: ID →
// the complete NDJSON bytes of that canonical tuple's run. Because runs are
// deterministic, an entry never goes stale — eviction exists only to bound
// memory, so the cache is sized in bytes, not entries. Replaying a hit is a
// single buffer write: zero simulation, zero allocation beyond the response.
type resultCache struct {
	mu    sync.Mutex
	max   int64 // byte budget; <= 0 disables caching entirely
	size  int64
	order *list.List // front = most recently used
	byID  map[string]*list.Element

	// evictions counts entries dropped for the byte budget — the signal an
	// operator sizes CacheBytes by (exported as the cache_evictions gauge).
	// Hit/miss accounting lives at the admission layer (runs_cache_hit).
	evictions uint64
}

type cacheEntry struct {
	id   string
	key  string // human-readable tuple, for /v1/runs/{id} introspection
	data []byte
}

func newResultCache(maxBytes int64) *resultCache {
	return &resultCache{max: maxBytes, order: list.New(), byID: map[string]*list.Element{}}
}

// get returns the cached stream for id, promoting it to most recently used.
// The returned slice is shared and must be treated as read-only.
func (c *resultCache) get(id string) ([]byte, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byID[id]
	if !ok {
		return nil, "", false
	}
	c.order.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	return ent.data, ent.key, true
}

// has reports whether id is cached, without promoting it.
func (c *resultCache) has(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byID[id]
	return ok
}

// add inserts a finished run, evicting least-recently-used entries until the
// byte budget holds. A stream larger than the whole budget is not cached —
// it would only evict everything else to occupy the cache alone. The evicted
// entries are returned so the caller can demote them to the disk tier
// (outside this lock — eviction must never wait on file I/O).
func (c *resultCache) add(id, key string, data []byte) []*cacheEntry {
	if int64(len(data)) > c.max {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[id]; ok {
		// Determinism means the bytes are identical; just refresh recency.
		c.order.MoveToFront(el)
		return nil
	}
	c.byID[id] = c.order.PushFront(&cacheEntry{id: id, key: key, data: data})
	c.size += int64(len(data))
	var evicted []*cacheEntry
	for c.size > c.max {
		el := c.order.Back()
		ent := el.Value.(*cacheEntry)
		c.order.Remove(el)
		delete(c.byID, ent.id)
		c.size -= int64(len(ent.data))
		c.evictions++
		evicted = append(evicted, ent)
	}
	return evicted
}

// remove drops one entry (if present) without counting an eviction — used by
// benchmarks to force repeated disk-tier hits, not by the serving path.
func (c *resultCache) remove(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[id]; ok {
		ent := el.Value.(*cacheEntry)
		c.order.Remove(el)
		delete(c.byID, ent.id)
		c.size -= int64(len(ent.data))
	}
}

// bytes reports the current resident size.
func (c *resultCache) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// entries reports the current entry count.
func (c *resultCache) entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// evicted reports how many entries the byte budget has pushed out.
func (c *resultCache) evicted() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
