// Package plancache is the query service tier's compiled-plan cache: a
// bounded, sharded LRU keyed by normalized query fingerprints
// (internal/sql.Normalize). Hot traffic is thousands of clients sending
// the same query *shape* with different constants; with constants
// lifted out of the key and bound at execution time, the parse → MAL
// codegen → tactical-optimize pipeline runs once per shape and every
// later request is a map hit.
//
// Entries are stamped with the cache epoch at compile start. Bumping
// the epoch (Invalidate) — on a catalog or physical-layout generation
// change — atomically orphans every cached plan: stale entries stop
// being served immediately, and a compile that straddled the bump is
// refused at Put, so a plan compiled against the old catalog can never
// be published into the new one.
//
// Instrument registers the cache's counters on an obs.Registry:
// plancache_hits_total, plancache_misses_total,
// plancache_evictions_total and the plancache_size gauge.
package plancache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"selforg/internal/obs"
)

// numShards bounds lock contention for large caches; small caches use a
// single shard so the LRU order (and tests of it) stay exact.
const numShards = 16

// DefaultCapacity is the entry bound used when New is given cap <= 0.
const DefaultCapacity = 1024

// Cache is a bounded, sharded, epoch-validated LRU of compiled plans.
// All methods are safe for concurrent use.
type Cache struct {
	shards   []*cshard
	seed     maphash.Seed
	epoch    atomic.Int64
	hits     atomic.Int64
	misses   atomic.Int64
	evicts   atomic.Int64
	obsHits  *obs.Counter
	obsMiss  *obs.Counter
	obsEvict *obs.Counter
}

// cshard is one LRU shard: an intrusive doubly-linked list threaded
// through the map entries, most-recent at head.
type cshard struct {
	mu         sync.Mutex
	entries    map[string]*entry
	head, tail *entry
	capacity   int
}

type entry struct {
	key        string
	val        any
	epoch      int64
	prev, next *entry
}

// New builds a cache bounded at capacity entries (DefaultCapacity when
// capacity <= 0). Caches smaller than 2*numShards entries use one shard
// so the bound — and the LRU eviction order — is exact; larger caches
// split the capacity across 16 independently locked shards.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	ns := numShards
	if capacity < 2*numShards {
		ns = 1
	}
	c := &Cache{shards: make([]*cshard, ns), seed: maphash.MakeSeed()}
	per := (capacity + ns - 1) / ns
	for i := range c.shards {
		c.shards[i] = &cshard{entries: make(map[string]*entry), capacity: per}
	}
	return c
}

// Instrument registers the cache's metrics on r (typically the serving
// observer's registry): hit/miss/eviction counters and the live-entry
// size gauge. Counters accumulated before Instrument are carried over.
func (c *Cache) Instrument(r *obs.Registry) {
	c.obsHits = r.Counter("plancache_hits_total")
	c.obsMiss = r.Counter("plancache_misses_total")
	c.obsEvict = r.Counter("plancache_evictions_total")
	c.obsHits.Add(c.hits.Load())
	c.obsMiss.Add(c.misses.Load())
	c.obsEvict.Add(c.evicts.Load())
	r.GaugeFunc("plancache_size", func() int64 { return int64(c.Len()) })
}

func (c *Cache) shard(key string) *cshard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	h := maphash.String(c.seed, key)
	return c.shards[h%uint64(len(c.shards))]
}

// Epoch returns the current cache epoch. Capture it before compiling a
// plan and hand it to Put, so a concurrent Invalidate refuses the
// now-stale plan.
func (c *Cache) Epoch() int64 { return c.epoch.Load() }

// Get returns the plan cached under key, bumping it to most-recently
// used. Entries from earlier epochs are dropped and reported as misses.
func (c *Cache) Get(key string) (any, bool) {
	ep := c.epoch.Load()
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok && e.epoch == ep {
		s.moveToFront(e)
		val := e.val // a same-key Put overwrites e.val under the lock
		s.mu.Unlock()
		c.hits.Add(1)
		if c.obsHits != nil {
			c.obsHits.Inc()
		}
		return val, true
	}
	if ok {
		s.remove(e) // stale epoch: lazily reap
	}
	s.mu.Unlock()
	c.misses.Add(1)
	if c.obsMiss != nil {
		c.obsMiss.Inc()
	}
	return nil, false
}

// Put caches val under key, evicting the least-recently-used entry of
// the shard when full. The put is refused (returning false) when epoch
// is no longer current — the compile raced an Invalidate and its plan
// may reference the previous catalog.
func (c *Cache) Put(key string, val any, epoch int64) bool {
	if c.epoch.Load() != epoch {
		return false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.epoch.Load() != epoch { // re-check under the shard lock
		return false
	}
	if e, ok := s.entries[key]; ok {
		e.val, e.epoch = val, epoch
		s.moveToFront(e)
		return true
	}
	e := &entry{key: key, val: val, epoch: epoch}
	s.entries[key] = e
	s.pushFront(e)
	if len(s.entries) > s.capacity {
		lru := s.tail
		s.remove(lru)
		c.evicts.Add(1)
		if c.obsEvict != nil {
			c.obsEvict.Inc()
		}
	}
	return true
}

// Invalidate bumps the epoch and drops every cached plan: the next Get
// of any key misses, and Puts from compiles that began before the bump
// are refused. Call it when the catalog or the physical layout
// generation a plan was compiled against changes meaning.
func (c *Cache) Invalidate() {
	c.epoch.Add(1)
	for _, s := range c.shards {
		s.mu.Lock()
		s.entries = make(map[string]*entry)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
}

// Len returns the number of live cached entries.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats returns the lifetime hit/miss/eviction counts.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evicts.Load()
}

// --- intrusive LRU list (shard lock held) ---

func (s *cshard) pushFront(e *entry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cshard) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(s.entries, e.key)
}

func (s *cshard) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	// Unlink (without deleting from the map), then relink at head.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
}
