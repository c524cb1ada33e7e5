// Package qcache implements the gateway's query-result cache (paper §4,
// Fig 9): "by utilising the cache, a heavily used GridRM Gateway can return
// a view of the recent status of a site while limiting resource intrusion".
//
// Entries are keyed by (data-source URL, canonical SQL) and expire after a
// TTL. The cached tree view in the paper's JSP interface is the Entries
// listing; real-time polls bypass or refresh the cache.
package qcache

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridrm/internal/resultset"
)

// Options configures a Cache.
type Options struct {
	// TTL is how long entries stay fresh (default 2s, the recent-status
	// window).
	TTL time.Duration
	// MaxEntries bounds the cache; zero means 4096. Oldest entries are
	// evicted first.
	MaxEntries int
	// StaleGrace keeps entries past their TTL for this additional window
	// instead of purging them, so the gateway can serve stale-but-recent
	// data when a source fails (GetStale). Zero disables the grace window
	// and preserves the strict purge-at-TTL behaviour.
	StaleGrace time.Duration
	// Clock is injectable for tests; defaults to time.Now.
	Clock func() time.Time
}

// Stats counts cache activity.
type Stats struct {
	Hits   int64
	Misses int64
	// Stale counts entries dropped as expired: each once, when it leaves
	// the cache past its retention horizon (TTL+StaleGrace).
	Stale     int64
	Evictions int64
	// GraceHits counts GetStale calls satisfied by an entry (fresh or
	// expired-within-grace).
	GraceHits int64
	// Entries is the number of cached entries (fresh or not yet collected).
	Entries int
}

// Entry describes one cached result for the tree view.
type Entry struct {
	// Source is the data-source URL.
	Source string
	// SQL is the canonical query text.
	SQL string
	// Rows is the cached row count.
	Rows int
	// CachedAt is when the result was stored.
	CachedAt time.Time
	// Age is how old the entry was at listing time.
	Age time.Duration
}

// Cache is a TTL query-result cache.
type Cache struct {
	opts Options

	mu      sync.Mutex
	entries map[key]*cached
	// age is the sentinel of a ring through the entries in cachedAt order
	// (next = oldest): Put writes at the back, expiry and eviction read the front.
	age cached

	hits, misses, stale, evictions, graceHits atomic.Int64
}

// key is a comparable struct so that a lookup builds no string.
type key struct{ source, sql string }

// cached is one entry. A ResultSet is never written after the Put that stored
// it: Get and GetStale copy the pointer under the lock and hand the same set to
// every reader, and a later Put of the key swaps the pointer, not the set.
type cached struct {
	key        key
	rs         *resultset.ResultSet
	cachedAt   time.Time
	prev, next *cached
}

// New creates a Cache.
func New(opts Options) *Cache {
	if opts.TTL <= 0 {
		opts.TTL = 2 * time.Second
	}
	if opts.StaleGrace < 0 {
		opts.StaleGrace = 0
	}
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 4096
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	c := &Cache{opts: opts}
	c.resetLocked()
	return c
}

func (c *Cache) resetLocked() {
	c.entries = make(map[key]*cached)
	c.age.prev, c.age.next = &c.age, &c.age
}

// dropLocked takes e out of the map and the age ring.
func (c *Cache) dropLocked(e *cached) {
	delete(c.entries, e.key)
	e.unlink()
}

func (e *cached) unlink() { e.prev.next, e.next.prev = e.next, e.prev }

func (c *Cache) expired(e *cached, now time.Time) bool {
	return now.Sub(e.cachedAt) > c.opts.TTL+c.opts.StaleGrace
}

// Get returns a cached result and when it was harvested, if present and
// fresh. The ResultSet is the stored one, shared with every other reader:
// read it (Len, RowAt, Merge it elsewhere), never move its cursor or sort it.
func (c *Cache) Get(source, sql string) (*resultset.ResultSet, time.Time, bool) {
	now := c.opts.Clock()
	c.mu.Lock()
	e, ok := c.entries[key{source, sql}]
	if !ok || now.Sub(e.cachedAt) > c.opts.TTL {
		// Expired is a miss for freshness purposes, but the entry is kept
		// for GetStale until it ages past TTL+StaleGrace.
		if ok && c.expired(e, now) {
			c.dropLocked(e)
			c.stale.Add(1)
		}
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, time.Time{}, false
	}
	rs, at := e.rs, e.cachedAt
	c.mu.Unlock()
	c.hits.Add(1)
	return rs, at, true
}

// Put stores a result (a copy of its header: the caller keeps its cursor).
// Overwriting an existing key never evicts (the map does not grow) and re-uses
// the entry, moved to the ring's tail; at capacity, expired entries are purged
// before the oldest fresh one is evicted.
func (c *Cache) Put(source, sql string, rs *resultset.ResultSet) {
	now := c.opts.Clock()
	k := key{source, sql}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, exists := c.entries[k]
	if exists {
		e.unlink()
	} else {
		if len(c.entries) >= c.opts.MaxEntries {
			for c.age.next != &c.age && c.expired(c.age.next, now) {
				c.dropLocked(c.age.next)
				c.stale.Add(1)
			}
			if len(c.entries) >= c.opts.MaxEntries {
				c.dropLocked(c.age.next)
				c.evictions.Add(1)
			}
		}
		e = &cached{key: k}
		c.entries[k] = e
	}
	e.rs, e.cachedAt = rs.Clone(), now
	e.prev, e.next = c.age.prev, &c.age
	e.prev.next, c.age.prev = e, e
}

// GetStale returns a cached result regardless of TTL expiry, provided the
// entry is still within the TTL+StaleGrace retention horizon; the ResultSet
// is shared as Get's is. It backs the gateway's serve-stale-on-failure
// degradation tier and never competes with Get for the hit/miss counters.
func (c *Cache) GetStale(source, sql string) (*resultset.ResultSet, time.Time, bool) {
	now := c.opts.Clock()
	c.mu.Lock()
	e, ok := c.entries[key{source, sql}]
	if !ok || c.expired(e, now) {
		c.mu.Unlock()
		return nil, time.Time{}, false
	}
	rs, at := e.rs, e.cachedAt
	c.mu.Unlock()
	c.graceHits.Add(1)
	return rs, at, true
}

// InvalidateSource drops all entries for one data source (used when a
// real-time poll refreshes a source, or a source is removed).
func (c *Cache) InvalidateSource(source string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, e := range c.entries {
		if k.source == source {
			c.dropLocked(e)
			n++
		}
	}
	return n
}

// Clear drops everything.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetLocked()
}

// Entries lists cached results for the tree view, newest first. Expired
// entries are omitted.
func (c *Cache) Entries() []Entry {
	now := c.opts.Clock()
	c.mu.Lock()
	out := make([]Entry, 0, len(c.entries))
	for k, e := range c.entries {
		age := now.Sub(e.cachedAt)
		if age > c.opts.TTL {
			continue
		}
		out = append(out, Entry{Source: k.source, SQL: k.sql, Rows: e.rs.Len(), CachedAt: e.cachedAt, Age: age})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CachedAt.Equal(out[j].CachedAt) {
			return out[i].CachedAt.After(out[j].CachedAt)
		}
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].SQL < out[j].SQL
	})
	return out
}

// Stats returns the cache counters and the entry count as of one instant:
// it reads them all under one hold of the cache lock.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stale:     c.stale.Load(),
		Evictions: c.evictions.Load(),
		GraceHits: c.graceHits.Load(),
		Entries:   len(c.entries),
	}
}

// TTL returns the configured freshness window.
func (c *Cache) TTL() time.Duration { return c.opts.TTL }

// StaleGrace returns the configured serve-stale grace window.
func (c *Cache) StaleGrace() time.Duration { return c.opts.StaleGrace }
