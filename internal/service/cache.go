package service

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// cacheShards is the fixed shard count. Sixteen shards keep lock
// contention negligible at the request rates one process serves while
// keeping the per-shard byte budget large enough for whole sweep bodies.
const cacheShards = 16

// entryOverhead approximates the per-entry bookkeeping cost (map bucket,
// list element, entry struct) charged against the byte budget.
const entryOverhead = 128

// Cache is a sharded LRU mapping canonical request keys to encoded
// response bodies under a global byte budget. All methods are safe for
// concurrent use; hit/miss/eviction counters are atomic so the metrics
// endpoint can read them without taking shard locks.
type Cache struct {
	shards      [cacheShards]cacheShard
	shardBudget int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	bytes     atomic.Int64
	entries   atomic.Int64
}

type cacheShard struct {
	mu    sync.Mutex
	lru   *list.List // front = most recent; values are *cacheEntry
	items map[string]*list.Element
}

type cacheEntry struct {
	key  string
	body []byte
}

// size charges the entry what it keeps alive: the body's capacity, not
// its length, so a body with slack (an io.ReadAll buffer, an append-grown
// slice) cannot hold more memory than the budget admits. Encode returns
// bodies with cap == len.
func (e *cacheEntry) size() int64 {
	return int64(len(e.key)) + int64(cap(e.body)) + entryOverhead
}

// NewCache returns a cache bounded by budgetBytes across all shards;
// non-positive budgets fall back to 64 MiB.
func NewCache(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		budgetBytes = 64 << 20
	}
	c := &Cache{shardBudget: budgetBytes / cacheShards}
	if c.shardBudget < 1 {
		c.shardBudget = 1
	}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].items = map[string]*list.Element{}
	}
	return c
}

func (c *Cache) shard(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%cacheShards]
}

// Get returns the cached body for key, marking it most recently used.
// The returned slice is shared — callers must not modify it.
func (c *Cache) Get(key string) ([]byte, bool) {
	body, ok := c.peek(key)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return body, true
}

// peek is Get without the hit/miss counters, for a second look by a
// caller whose first Get already counted.
func (c *Cache) peek(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	// Read the body under the lock: a concurrent Put may replace
	// el.Value in place.
	return el.Value.(*cacheEntry).body, true
}

// Put stores body under key, evicting least-recently-used entries until
// the shard fits its budget. A body larger than a whole shard's budget is
// not cached at all — evicting everything for one entry nobody may ask
// for again is worse than recomputing it.
func (c *Cache) Put(key string, body []byte) {
	e := &cacheEntry{key: key, body: body}
	if e.size() > c.shardBudget {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		old := el.Value.(*cacheEntry)
		c.bytes.Add(e.size() - old.size())
		el.Value = e
		s.lru.MoveToFront(el)
		return
	}
	s.items[key] = s.lru.PushFront(e)
	c.bytes.Add(e.size())
	c.entries.Add(1)
	for shardBytes := c.shardUsage(s); shardBytes > c.shardBudget; {
		tail := s.lru.Back()
		if tail == nil || tail == s.lru.Front() {
			break
		}
		victim := tail.Value.(*cacheEntry)
		s.lru.Remove(tail)
		delete(s.items, victim.key)
		c.bytes.Add(-victim.size())
		c.entries.Add(-1)
		c.evictions.Add(1)
		shardBytes -= victim.size()
	}
}

// shardUsage sums the shard's resident bytes; called with the shard lock
// held. Walking the list is fine: shards hold few, large entries.
func (c *Cache) shardUsage(s *cacheShard) int64 {
	var total int64
	for el := s.lru.Front(); el != nil; el = el.Next() {
		total += el.Value.(*cacheEntry).size()
	}
	return total
}

// Hits returns the number of Get calls served from the cache.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of Get calls that found nothing.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Evictions returns the number of entries displaced by the byte budget.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// Bytes returns the resident size of the cache, bookkeeping included.
func (c *Cache) Bytes() int64 { return c.bytes.Load() }

// Entries returns the number of resident entries.
func (c *Cache) Entries() int64 { return c.entries.Load() }
