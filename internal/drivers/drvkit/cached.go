package drvkit

import "time"

// Cached is the per-plug-in response cache the paper asks of coarse-grained
// drivers (§3.2.3): one native response is expensive to fetch and parse and
// answers every GLUE group, so it is kept for a TTL and shared by the
// queries that arrive within it.
type Cached[T any] struct {
	// Fetches counts real fetches (the cache-miss cost, E4).
	Fetches int64

	ttl   time.Duration
	clock func() time.Time
	fetch func() (T, error)
	val   T
	at    time.Time
	have  bool
}

// NewCached wraps fetch in a cache with the target's CacheTTL and Clock.
func NewCached[T any](t Target, fetch func() (T, error)) *Cached[T] {
	return &Cached[T]{ttl: t.CacheTTL, clock: t.Clock, fetch: fetch}
}

// Get returns the cached value while it is younger than the TTL and
// fetches otherwise. A failed fetch leaves the previous value in place.
func (c *Cached[T]) Get() (T, error) {
	if c.have && c.ttl > 0 && c.clock().Sub(c.at) <= c.ttl {
		return c.val, nil
	}
	val, err := c.fetch()
	if err != nil {
		return val, err
	}
	c.val, c.at, c.have = val, c.clock(), true
	c.Fetches++
	return val, nil
}

// Last returns the most recently fetched value, if any, without fetching.
func (c *Cached[T]) Last() (T, bool) { return c.val, c.have }
