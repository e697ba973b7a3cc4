package core

import (
	"container/list"
	"strings"
	"sync"
)

// planCache is a size-bounded LRU of compiled queries under one mutex,
// keyed by normalized SQL text. Compilation (parse, bind, enumerate) is
// pure host-side work over the frozen schema, so cached entries never go
// stale: the schema cannot change after the bulk load. The cache counts
// only what it alone sees, evictions; a lookup's hit or miss is counted
// by compileCached on the registries.
type planCache struct {
	mu        sync.Mutex
	cap       int
	entries   map[string]*list.Element // key -> lru element (value *planCacheEntry)
	lru       list.List                // front = most recently used
	evictions int64
}

type planCacheEntry struct {
	key string
	val *CompiledQuery
}

// newPlanCache builds a cache holding at most capacity entries. A
// capacity <= 0 disables caching entirely.
func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, entries: map[string]*list.Element{}}
}

// get returns the cached compilation for key, marking it most recently
// used, or nil.
func (c *planCache) get(key string) *CompiledQuery {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*planCacheEntry).val
}

// put inserts a compilation, evicting the least recently used entry when
// the cache is full. Re-inserting an existing key refreshes it.
func (c *planCache) put(key string, val *CompiledQuery) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*planCacheEntry).val = val
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*planCacheEntry).key)
		c.evictions++
	}
	c.entries[key] = c.lru.PushFront(&planCacheEntry{key: key, val: val})
}

// occupancy reports the evictions so far and the entries held.
func (c *planCache) occupancy() (evictions int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions, c.lru.Len()
}

// normalizeSQL canonicalizes a query's text into its cache key: letters
// outside quoted strings are lowercased, runs of whitespace collapse to
// one space, and a trailing semicolon is dropped. Literal values stay in
// the key — two queries differing only in literals are different shapes
// to the cache; placeholders are what makes a shape reusable.
func normalizeSQL(text string) string {
	var b strings.Builder
	b.Grow(len(text))
	space := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case c == '\'' || c == '"':
			// Copy the quoted string verbatim (SQL doubles '' to escape).
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			quote := c
			b.WriteByte(c)
			i++
			for i < len(text) {
				b.WriteByte(text[i])
				if text[i] == quote {
					if quote == '\'' && i+1 < len(text) && text[i+1] == '\'' {
						i++
						b.WriteByte('\'')
					} else {
						break
					}
				}
				i++
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			space = true
		default:
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			b.WriteByte(c)
		}
	}
	return strings.TrimSuffix(b.String(), ";")
}
