package serve

import (
	"container/list"
	"sync"

	"predication/internal/obs"
)

// Cache is a content-addressed, LRU-bounded store: keys are the hex
// digests computed by ArtifactKey/ResultKey, values are immutable once
// inserted (compiled artifacts and rendered response bodies), so a hit
// can be served concurrently without copying.  Hit, miss, and eviction
// totals land in the registry as <name>_hits / <name>_misses /
// <name>_evictions.
type Cache struct {
	mu        sync.Mutex
	max       int
	ll        *list.List               // front = most recently used
	items     map[string]*list.Element // key -> element whose Value is *entry
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

type entry struct {
	key string
	val any
}

// NewCache creates a cache bounded to max entries (max < 1 is treated as
// 1: a content-addressed cache with no room cannot serve hits, and the
// daemon's whole point is that it does).
func NewCache(name string, max int, reg *obs.Registry) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{
		max:       max,
		ll:        list.New(),
		items:     map[string]*list.Element{},
		hits:      reg.Counter(name + "_hits"),
		misses:    reg.Counter(name + "_misses"),
		evictions: reg.Counter(name + "_evictions"),
	}
}

// Get returns the cached value and marks it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*entry).val, true
}

// Peek returns the cached value without counting a hit or a miss and
// without refreshing its recency.  It is the re-check a singleflight
// leader makes after its caller's Get missed: that lookup already
// counted, and one request must count one miss.
func (c *Cache) Peek(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*entry).val, true
}

// Add inserts or refreshes a value, evicting the least recently used
// entry when the bound is exceeded.
func (c *Cache) Add(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*entry).key)
		c.evictions.Inc()
	}
}
