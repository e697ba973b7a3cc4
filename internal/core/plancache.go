package core

import (
	"container/list"
	"strings"
	"sync"

	"github.com/ghostdb/ghostdb/internal/stats"
)

// planCache is a size-bounded, mutex-sharded LRU of compiled queries,
// keyed by normalized SQL text. Compilation (parse, bind, enumerate) is
// pure host-side work over the frozen schema, so cached entries never go
// stale: the schema cannot change after the bulk load. Sharding keeps
// concurrent sessions from serializing on one lock for what is meant to
// be the scalable half of the engine.
type planCache struct {
	shards []planCacheShard
}

type planCacheShard struct {
	mu        sync.Mutex
	cap       int
	entries   map[string]*list.Element // key -> lru element (value *planCacheEntry)
	lru       *list.List               // front = most recently used
	hits      int64
	misses    int64
	evictions int64
}

type planCacheEntry struct {
	key string
	val *CompiledQuery
}

// newPlanCache builds a cache holding at most capacity entries split
// over up to 8 shards. A capacity <= 0 disables caching entirely.
func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		return &planCache{}
	}
	shards := min(8, capacity)
	c := &planCache{shards: make([]planCacheShard, shards)}
	for i := range c.shards {
		per := capacity / shards
		if i < capacity%shards {
			per++
		}
		c.shards[i] = planCacheShard{cap: per, entries: map[string]*list.Element{}, lru: list.New()}
	}
	return c
}

func (c *planCache) shard(key string) *planCacheShard {
	if len(c.shards) == 0 {
		return nil
	}
	// FNV-1a over the key; cheap and stable.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%uint32(len(c.shards))]
}

// get returns the cached compilation for key, marking it most recently
// used. The second result reports whether the lookup hit.
func (c *planCache) get(key string) (*CompiledQuery, bool) {
	s := c.shard(key)
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.lru.MoveToFront(el)
	return el.Value.(*planCacheEntry).val, true
}

// put inserts a compilation, evicting the least recently used entry of
// the shard when it is full. Re-inserting an existing key refreshes it.
func (c *planCache) put(key string, val *CompiledQuery) {
	s := c.shard(key)
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*planCacheEntry).val = val
		s.lru.MoveToFront(el)
		return
	}
	for s.lru.Len() >= s.cap {
		oldest := s.lru.Back()
		if oldest == nil {
			break
		}
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*planCacheEntry).key)
		s.evictions++
	}
	s.entries[key] = s.lru.PushFront(&planCacheEntry{key: key, val: val})
}

// stats sums the per-shard counters.
func (c *planCache) stats() stats.CacheStats {
	var out stats.CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out = out.Add(stats.CacheStats{Hits: s.hits, Misses: s.misses, Evictions: s.evictions, Entries: s.lru.Len()})
		s.mu.Unlock()
	}
	return out
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
