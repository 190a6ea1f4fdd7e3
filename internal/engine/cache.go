package engine

import (
	"container/list"
	"sync"
)

// lru is the byte-accounted answer cache. Capacity is a budget over the
// *estimated retained size* of each cached answer (its entry list and
// warnings plus a fixed per-entry overhead), not an entry count, so a
// corpus of huge binaries and a corpus of tiny ones both stay inside the
// same memory envelope.
type lru struct {
	mu        sync.Mutex
	capacity  int64
	size      int64
	ll        *list.List // front = most recently used
	items     map[cacheKey]*list.Element
	evictions uint64
}

// lruEntry is one cached answer with its accounted size.
type lruEntry struct {
	key  cacheKey
	ans  *Answer
	size int64
}

func newLRU(capacity int64) *lru {
	return &lru{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element),
	}
}

// get returns the cached answer for k, refreshing its recency.
func (c *lru) get(k cacheKey) (*Answer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).ans, true
}

// add inserts (or refreshes) an answer and evicts from the cold end until
// the byte budget holds. An entry larger than the whole budget is not
// cached at all rather than evicting everything for a single tenant.
func (c *lru) add(k cacheKey, a *Answer) {
	sz := entrySize(a)
	if sz > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		ent := el.Value.(*lruEntry)
		c.size += sz - ent.size
		ent.ans, ent.size = a, sz
		c.ll.MoveToFront(el)
	} else {
		c.items[k] = c.ll.PushFront(&lruEntry{key: k, ans: a, size: sz})
		c.size += sz
	}
	for c.size > c.capacity {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*lruEntry)
		c.ll.Remove(back)
		delete(c.items, ent.key)
		c.size -= ent.size
		c.evictions++
	}
}

// stats returns (entries, bytes, capacity, evictions).
func (c *lru) stats() (int, int64, int64, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.size, c.capacity, c.evictions
}

// entryOverhead approximates the fixed cost of one cache entry: the
// Answer struct, the map and list bookkeeping.
const entryOverhead = 512

// entrySize estimates the retained bytes of one cached answer: its
// entry list and its warnings.
func entrySize(a *Answer) int64 {
	n := int64(len(a.Entries)) * 8
	for _, w := range a.Warnings {
		n += int64(len(w)) + 16
	}
	return n + entryOverhead
}
