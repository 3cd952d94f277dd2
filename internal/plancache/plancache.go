// Package plancache memoizes optimization results. Repeated queries are the
// norm in the serving workloads the ROADMAP targets — the same parameterized
// report runs thousands of times an hour against slowly-changing statistics —
// so a plan that took a full dynamic program to find should be found once.
//
// The cache is a sharded, mutex-protected LRU keyed by an opaque string; use
// Signature to build keys that cover everything the optimizer's answer
// depends on (catalog fingerprint, canonical query shape, environment-law
// digest, plan-space options and algorithm). Because statistics are hashed
// into the key, there is no explicit invalidation: updating the catalog
// changes the key and stale entries simply age out of the LRU.
//
// All methods are safe for concurrent use.
package plancache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

const shardCount = 16 // power of two; low-bits shard selection

// Cache is a sharded LRU mapping string keys to values of type V.
// The zero value is not usable; construct with New.
type Cache[V any] struct {
	shards    [shardCount]shard[V]
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type shard[V any] struct {
	mu    sync.Mutex
	cap   int
	items map[string]*list.Element
	order *list.List // front = most recently used
}

type lruEntry[V any] struct {
	key string
	val V
}

// New returns a cache holding at most capacity entries (minimum one per
// shard is enforced so a tiny capacity still caches something).
func New[V any](capacity int) *Cache[V] {
	perShard := capacity / shardCount
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache[V]{}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].order = list.New()
	}
	return c
}

// shardPrefix bounds how many leading key bytes pick the shard.
const shardPrefix = 8

// shardOf picks a key's shard with 32-bit FNV-1a over its leading bytes.
// Keys are hex SHA-256 digests (Signature), so eight hex digits already
// spread them evenly, at a fixed cost whatever the key length. The
// function is fixed, not seeded per cache: capacity is per shard, so a
// seeded choice would make evictions, and with them the hit counters,
// differ from run to run under cache pressure.
func shardOf[V any, K string | []byte](c *Cache[V], key K) *shard[V] {
	h := uint32(2166136261)
	for i := 0; i < len(key) && i < shardPrefix; i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h&(shardCount-1)]
}

// ProbeBytes returns the value cached under key and whether it was
// present, marking the entry most-recently-used on a hit. It moves no
// counter: one request may probe several keys (band-edge hysteresis tries
// the adjacent-band keys), so the caller records the request's single
// outcome with Record. The key bytes are not retained, and the map
// lookup's string conversion stays on the stack, so a hit allocates
// nothing.
func (c *Cache[V]) ProbeBytes(key []byte) (V, bool) {
	s := shardOf(c, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[string(key)]; ok {
		s.order.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// Record counts one request's lookup outcome: a hit or a miss.
func (c *Cache[V]) Record(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// Put stores key→val, evicting the shard's least-recently-used entry when
// the shard is full. Storing an existing key refreshes its value and recency.
func (c *Cache[V]) Put(key string, val V) {
	s := shardOf(c, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		s.order.MoveToFront(el)
		return
	}
	if s.order.Len() >= s.cap {
		oldest := s.order.Back()
		if oldest != nil {
			s.order.Remove(oldest)
			delete(s.items, oldest.Value.(*lruEntry[V]).key)
			c.evictions.Add(1)
		}
	}
	s.items[key] = s.order.PushFront(&lruEntry[V]{key: key, val: val})
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits   uint64
	Misses uint64
	Size   int
	// Evictions counts LRU evictions since construction. A hit rate that
	// looks healthy while evictions climb means the working set exceeds
	// the capacity — entries are cycling, not resident.
	Evictions uint64
	// ShardSizes is the per-shard occupancy. Keys spread uniformly, so a
	// heavily skewed profile indicates a pathological key population
	// (e.g. everything collapsing into one drift band).
	ShardSizes []int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (st Stats) HitRate() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Stats returns a snapshot of the hit/miss/eviction counters, the current
// size and the per-shard occupancy.
func (c *Cache[V]) Stats() Stats {
	st := Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
		ShardSizes: make([]int, shardCount),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.ShardSizes[i] = s.order.Len()
		s.mu.Unlock()
		st.Size += st.ShardSizes[i]
	}
	return st
}
