package service

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// Sharded LRU result cache. Keys are canonical-instance hashes prefixed
// with the endpoint and portfolio (built by prepare in prepared.go),
// values are canonical-space solutions (entry) that render back into any
// vertex numbering with the same canonical form. Sharding keeps lock
// contention off the hot path under concurrent traffic; each shard is an
// independent mutex + map + intrusive LRU list.

// entry is a cached solution in canonical vertex numbering. Entries are
// immutable once stored: readers render them without locks. Its JSON
// form is the cluster's cache-entry wire format (wire.go): the field
// order and tags fix the bytes peers exchange.
type entry struct {
	Classes  [][]int `json:"classes,omitempty"`  // coalescing classes, canonical ids, sorted
	Coloring []int   `json:"coloring,omitempty"` // per canonical vertex, nil when absent
	Spilled  []int   `json:"spilled,omitempty"`  // canonical ids (allocate and spill), sorted

	Strategy        string `json:"strategy"`
	CoalescedMoves  int    `json:"coalesced_moves,omitempty"`
	CoalescedWeight int64  `json:"coalesced_weight,omitempty"`
	RemainingWeight int64  `json:"remaining_weight,omitempty"`
	Colorable       bool   `json:"colorable,omitempty"`
	Spills          int    `json:"spills,omitempty"`
	SpillCost       int64  `json:"spill_cost,omitempty"` // spill endpoint only
	Optimal         bool   `json:"optimal,omitempty"`    // spill endpoint only
	DeadlineHit     bool   `json:"deadline_hit,omitempty"`
}

type cacheShard struct {
	mu    sync.Mutex
	ll    *list.List // front = most recent; values are *cacheItem
	items map[string]*list.Element
}

type cacheItem struct {
	key string
	val *entry
}

// Cache is the sharded LRU.
type Cache struct {
	shards    []*cacheShard
	perShard  int
	evictions atomic.Int64
}

// NewCache builds a cache holding roughly capacity entries across shards
// (shards >= 1; each shard holds capacity/shards, minimum 1). capacity
// <= 0 disables caching: Get always misses, Put is a no-op.
func NewCache(capacity, shards int) *Cache {
	if capacity <= 0 {
		return &Cache{}
	}
	if shards > capacity {
		shards = capacity
	}
	per := capacity / shards
	if per < 1 {
		per = 1
	}
	c := &Cache{shards: make([]*cacheShard, shards), perShard: per}
	for i := range c.shards {
		c.shards[i] = &cacheShard{ll: list.New(), items: make(map[string]*list.Element)}
	}
	return c
}

func (c *Cache) shard(key string) *cacheShard {
	if len(c.shards) == 0 {
		return nil
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

// Get returns a copy of the cached solution for key, marking it most
// recently used. Returning the entry by value (not the internal *entry)
// keeps the cache's own record unreachable from callers: a renderer
// cannot swap fields on what later hits observe. The copy shares the
// entry's slice payloads, which are immutable once stored (see the entry
// doc); callers must treat them as read-only.
func (c *Cache) Get(key string) (entry, bool) {
	s := c.shard(key)
	if s == nil {
		return entry{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return entry{}, false
	}
	s.ll.MoveToFront(el)
	return *el.Value.(*cacheItem).val, true
}

// Put stores val under key, evicting the shard's least recently used
// entry when full. An entry computed to completion (deadlineHit false)
// replaces a deadline-truncated one, never the other way around: when two
// identical requests miss concurrently, the tight-deadline loser must not
// permanently shadow the complete answer.
func (c *Cache) Put(key string, val *entry) {
	s := c.shard(key)
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		item := el.Value.(*cacheItem)
		if !(val.DeadlineHit && !item.val.DeadlineHit) {
			item.val = val
		}
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&cacheItem{key: key, val: val})
	for s.ll.Len() > c.perShard {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheItem).key)
		c.evictions.Add(1)
	}
}

// Keys returns every resident key, shard by shard, without touching LRU
// order. It is the enumeration side of the cluster's handoff protocol:
// on a topology change, the old owner walks its keys to find the entries
// whose hash ranges moved. The snapshot is per-shard consistent, not
// globally atomic — concurrent inserts may or may not appear, which is
// fine for a best-effort stream (a missed entry costs one future peer
// fill).
func (c *Cache) Keys() []string {
	out := make([]string, 0, c.Len())
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*cacheItem).key)
		}
		s.mu.Unlock()
	}
	return out
}

// Evictions reports how many entries the cache has evicted since start.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// Len reports the total number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}
