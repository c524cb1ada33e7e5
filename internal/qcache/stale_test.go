package qcache

import (
	"testing"
	"time"
)

func newGraceCache(ttl, grace time.Duration) (*Cache, *time.Time) {
	now := time.Unix(0, 0)
	c := New(Options{TTL: ttl, StaleGrace: grace, Clock: func() time.Time { return now }})
	return c, &now
}

func TestGetStaleServesExpiredWithinGrace(t *testing.T) {
	c, now := newGraceCache(time.Second, time.Minute)
	c.Put(src, sql, sampleRS(t, "h"))

	// Fresh entries are also visible through GetStale.
	if _, _, ok := c.GetStale(src, sql); !ok {
		t.Fatal("GetStale missed a fresh entry")
	}

	// Past TTL but within grace: Get misses, GetStale serves.
	*now = now.Add(2 * time.Second)
	if _, _, ok := c.Get(src, sql); ok {
		t.Fatal("Get served an expired entry")
	}
	rs, at, ok := c.GetStale(src, sql)
	if !ok {
		t.Fatal("GetStale missed an entry within the grace window")
	}
	if rs.Len() != 1 || !at.Equal(time.Unix(0, 0)) {
		t.Errorf("stale serve rows=%d at=%v", rs.Len(), at)
	}
	if hits := c.Stats().GraceHits; hits < 1 {
		t.Errorf("GraceHits = %d, want >= 1", hits)
	}

	// Beyond TTL+grace the entry is gone for both paths.
	*now = now.Add(2 * time.Minute)
	if _, _, ok := c.GetStale(src, sql); ok {
		t.Error("GetStale served an entry beyond the grace window")
	}
}

// TestStaleCountsAnEntryOnce: gridrm_qcache_stale_total is "entries dropped
// as expired". An expired entry kept for the grace window is not dropped by
// the lookups that miss on it; it is counted when it leaves.
func TestStaleCountsAnEntryOnce(t *testing.T) {
	now := time.Unix(0, 0)
	c := New(Options{TTL: time.Second, StaleGrace: time.Minute, MaxEntries: 1,
		Clock: func() time.Time { return now }})
	c.Put(src, sql, sampleRS(t, "h"))
	now = now.Add(2 * time.Second)
	for i := 0; i < 3; i++ {
		if _, _, ok := c.Get(src, sql); ok {
			t.Fatal("expired entry served fresh")
		}
	}
	if got := c.Stats().Stale; got != 0 {
		t.Errorf("Stale = %d after lookups of an entry still held for grace, want 0", got)
	}
	now = now.Add(2 * time.Minute)
	c.Put("gridrm:snmp://other:1", sql, sampleRS(t, "o")) // at capacity: purges the expired entry
	if got, ev := c.Stats().Stale, c.Stats().Evictions; got != 1 || ev != 0 {
		t.Errorf("Stale = %d, Evictions = %d after the purge, want 1 and 0", got, ev)
	}
	if s := c.Stats(); s.Misses != 3 {
		t.Errorf("Misses = %d, want 3", s.Misses)
	}
}

func TestZeroGracePreservesExpiry(t *testing.T) {
	c, now := newGraceCache(time.Second, 0)
	c.Put(src, sql, sampleRS(t, "h"))
	*now = now.Add(2 * time.Second)
	if _, _, ok := c.Get(src, sql); ok {
		t.Error("expired entry served with no grace configured")
	}
	if _, _, ok := c.GetStale(src, sql); ok {
		t.Error("GetStale served past TTL with zero grace")
	}
	if c.Stats().Entries != 0 {
		t.Errorf("expired entry retained: len=%d", c.Stats().Entries)
	}
}

func TestGraceKeepsEntryAcrossGetMiss(t *testing.T) {
	// A Get miss inside the grace window must not delete the entry — the
	// degraded path needs it moments later.
	c, now := newGraceCache(time.Second, time.Minute)
	c.Put(src, sql, sampleRS(t, "h"))
	*now = now.Add(2 * time.Second)
	if _, _, ok := c.Get(src, sql); ok {
		t.Fatal("expired entry served fresh")
	}
	if _, _, ok := c.GetStale(src, sql); !ok {
		t.Error("Get miss evicted an entry still inside the grace window")
	}
}
