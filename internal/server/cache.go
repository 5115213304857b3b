package server

import (
	"container/list"
	"hash/fnv"
	"sort"

	"morphing/internal/canon"
	"morphing/internal/pattern"
)

// cacheKey identifies a query's result independent of how it was
// phrased: the graph epoch (bumped when the served graph is swapped),
// a 64-bit digest of the canonical pattern IDs (internal/canon — two
// isomorphic spellings of the same query set share a key), the app, the
// engine, and the option bits that change the answer's shape.
type cacheKey struct {
	epoch    uint64
	patterns uint64
	app      string
	engine   string
	baseline bool
	explain  bool
}

// patternSetID digests the query set: canon.ID per pattern (structure +
// labels + induced flag, invariant under vertex renumbering), sorted so
// the digest is order-independent — counting queries return per-pattern
// answers, but the executed winner set is order-invariant, and results
// are re-aligned to request order by pattern identity on a hit.
func patternSetID(ps []*pattern.Pattern) uint64 {
	ids := make([]uint64, len(ps))
	for i, p := range ps {
		ids[i] = canon.ID(p)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := fnv.New64a()
	var buf [8]byte
	for _, id := range ids {
		for i := range buf {
			buf[i] = byte(id >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// flight is one in-progress execution that identical concurrent queries
// attach to (single-flight): when the leader finishes, every waiter gets
// the same result or error. done is closed exactly once by the leader.
type flight struct {
	done   chan struct{}
	result *QueryResult
	err    *QueryError
}

// resultCache is a bounded LRU of successful query results plus the
// single-flight table of in-progress executions. All methods are
// mutex-free for callers: locking lives in Server (the cache is touched
// only under Server.mu), keeping the admission path's lock story to one
// lock.
type resultCache struct {
	entries map[cacheKey]*list.Element
	lru     *list.List // front = most recent; values are *cacheEntry
	flights map[cacheKey]*flight
}

type cacheEntry struct {
	key cacheKey
	res *QueryResult
}

func newResultCache() *resultCache {
	return &resultCache{
		entries: make(map[cacheKey]*list.Element),
		lru:     list.New(),
		flights: make(map[cacheKey]*flight),
	}
}

// get returns the cached result for key, refreshing its recency.
func (c *resultCache) get(key cacheKey) (*QueryResult, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// source returns what can answer key without mining: the stored result,
// or else the flight of an identical execution in progress.
func (c *resultCache) source(key cacheKey) (*QueryResult, *flight) {
	if res, ok := c.get(key); ok {
		return res, nil
	}
	return nil, c.flights[key]
}

// put stores a successful result, evicting the least-recently-used entry
// beyond cacheEntries.
func (c *resultCache) put(key cacheKey, res *QueryResult) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, res: res})
	for c.lru.Len() > cacheEntries {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// len reports the number of cached results.
func (c *resultCache) len() int { return c.lru.Len() }
