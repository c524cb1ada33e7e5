package qcache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

func sampleRS(t *testing.T, host string) *resultset.ResultSet {
	t.Helper()
	meta, err := resultset.NewMetadata([]resultset.Column{
		{Name: "HostName", Kind: glue.String},
		{Name: "Load", Kind: glue.Float},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := resultset.NewBuilder(meta).Append(host, 1.0).Build()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func newCache(ttl time.Duration, maxEntries int) (*Cache, *time.Time) {
	now := time.Unix(0, 0)
	c := New(Options{TTL: ttl, MaxEntries: maxEntries, Clock: func() time.Time { return now }})
	return c, &now
}

const src = "gridrm:snmp://h:1"
const sql = "SELECT * FROM Processor"

func TestPutGet(t *testing.T) {
	c, _ := newCache(time.Second, 0)
	if _, _, ok := c.Get(src, sql); ok {
		t.Error("empty cache hit")
	}
	c.Put(src, sql, sampleRS(t, "h"))
	rs, at, ok := c.Get(src, sql)
	if !ok {
		t.Fatal("miss after put")
	}
	if at.IsZero() || rs.Len() != 1 {
		t.Errorf("cached at %v, %d rows", at, rs.Len())
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestTTLExpiry(t *testing.T) {
	c, now := newCache(2*time.Second, 0)
	c.Put(src, sql, sampleRS(t, "h"))
	*now = now.Add(time.Second)
	if _, _, ok := c.Get(src, sql); !ok {
		t.Error("fresh entry missed")
	}
	*now = now.Add(2 * time.Second)
	if _, _, ok := c.Get(src, sql); ok {
		t.Error("expired entry hit")
	}
	if c.Stats().Stale != 1 {
		t.Errorf("stale = %d", c.Stats().Stale)
	}
	if c.Stats().Entries != 0 {
		t.Error("expired entry retained")
	}
}

func TestKeyIncludesSQLAndSource(t *testing.T) {
	c, _ := newCache(time.Second, 0)
	c.Put(src, sql, sampleRS(t, "h"))
	if _, _, ok := c.Get(src, "SELECT * FROM Memory"); ok {
		t.Error("different SQL hit")
	}
	if _, _, ok := c.Get("gridrm:snmp://other:1", sql); ok {
		t.Error("different source hit")
	}
}

func TestInvalidateSource(t *testing.T) {
	c, _ := newCache(time.Second, 0)
	c.Put(src, sql, sampleRS(t, "h"))
	c.Put(src, "SELECT * FROM Memory", sampleRS(t, "h"))
	c.Put("gridrm:snmp://other:1", sql, sampleRS(t, "o"))
	if n := c.InvalidateSource(src); n != 2 {
		t.Errorf("invalidated %d, want 2", n)
	}
	if _, _, ok := c.Get("gridrm:snmp://other:1", sql); !ok {
		t.Error("unrelated source invalidated")
	}
}

func TestMaxEntriesEvictsOldest(t *testing.T) {
	c, now := newCache(time.Hour, 3)
	for i := 0; i < 4; i++ {
		*now = now.Add(time.Second)
		c.Put(fmt.Sprintf("gridrm:x://h%d:1", i), sql, sampleRS(t, "h"))
	}
	if c.Stats().Entries != 3 {
		t.Errorf("len = %d", c.Stats().Entries)
	}
	if _, _, ok := c.Get("gridrm:x://h0:1", sql); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, _, ok := c.Get("gridrm:x://h3:1", sql); !ok {
		t.Error("newest entry evicted")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestEntriesListing(t *testing.T) {
	c, now := newCache(10*time.Second, 0)
	c.Put(src, sql, sampleRS(t, "h"))
	*now = now.Add(time.Second)
	c.Put(src, "SELECT * FROM Memory", sampleRS(t, "h"))
	entries := c.Entries()
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	// Newest first.
	if entries[0].SQL != "SELECT * FROM Memory" {
		t.Errorf("order: %v", entries)
	}
	if entries[1].Age != time.Second {
		t.Errorf("age = %v", entries[1].Age)
	}
	if entries[0].Rows != 1 || entries[0].Source != src {
		t.Errorf("entry %+v", entries[0])
	}
	// Expired entries are omitted from the tree view.
	*now = now.Add(time.Minute)
	if got := c.Entries(); len(got) != 0 {
		t.Errorf("expired entries listed: %v", got)
	}
}

func TestClear(t *testing.T) {
	c, _ := newCache(time.Second, 0)
	c.Put(src, sql, sampleRS(t, "h"))
	c.Clear()
	if c.Stats().Entries != 0 {
		t.Error("Clear left entries")
	}
}

func TestDefaultsAndTTLAccessor(t *testing.T) {
	c := New(Options{})
	if c.TTL() != 2*time.Second {
		t.Errorf("default TTL = %v", c.TTL())
	}
}

// Expiry-vs-capacity eviction table: expired entries must be purged before
// any fresh entry is forced out, and overwriting an existing key must never
// evict (the map does not grow).
func TestPutPurgesExpiredBeforeEvicting(t *testing.T) {
	tests := []struct {
		name      string
		expired   int // entries aged past TTL before the cache fills
		fresh     int // entries still within TTL
		max       int
		wantGone  []string // keys expected missing after one more Put
		wantAlive []string // keys expected still fresh
	}{
		{name: "expired garbage purged, fresh survive", expired: 2, fresh: 1, max: 3,
			wantGone: []string{"exp0", "exp1"}, wantAlive: []string{"fresh0"}},
		{name: "all expired", expired: 3, fresh: 0, max: 3,
			wantGone: []string{"exp0", "exp1", "exp2"}},
		{name: "no expired falls back to oldest eviction", expired: 0, fresh: 3, max: 3,
			wantGone: []string{"fresh0"}, wantAlive: []string{"fresh1", "fresh2"}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c, now := newCache(10*time.Second, tc.max)
			for i := 0; i < tc.expired; i++ {
				c.Put(fmt.Sprintf("exp%d", i), sql, sampleRS(t, "h"))
			}
			*now = now.Add(11 * time.Second) // age the first batch past TTL
			for i := 0; i < tc.fresh; i++ {
				c.Put(fmt.Sprintf("fresh%d", i), sql, sampleRS(t, "h"))
				*now = now.Add(time.Millisecond) // distinct ages for oldest-eviction
			}
			c.Put("newcomer", sql, sampleRS(t, "h"))
			if _, _, ok := c.Get("newcomer", sql); !ok {
				t.Error("newcomer not cached")
			}
			for _, k := range tc.wantGone {
				if _, _, ok := c.Get(k, sql); ok {
					t.Errorf("%s still cached, want gone", k)
				}
			}
			for _, k := range tc.wantAlive {
				if _, _, ok := c.Get(k, sql); !ok {
					t.Errorf("%s evicted, want alive", k)
				}
			}
			if c.Stats().Entries > tc.max {
				t.Errorf("len = %d > max %d", c.Stats().Entries, tc.max)
			}
		})
	}
}

func TestPutOverwriteDoesNotEvict(t *testing.T) {
	c, _ := newCache(10*time.Second, 2)
	c.Put("a", sql, sampleRS(t, "h"))
	c.Put("b", sql, sampleRS(t, "h"))
	// At capacity: overwriting "a" must not evict anything.
	c.Put("a", sql, sampleRS(t, "h2"))
	if _, _, ok := c.Get("a", sql); !ok {
		t.Error("overwritten key missing")
	}
	if _, _, ok := c.Get("b", sql); !ok {
		t.Error("sibling evicted by an overwrite")
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Errorf("evictions = %d, want 0", ev)
	}
}

var cloneSink *resultset.ResultSet // keeps a measured Clone on the heap, where Put's is

// TestOverwriteReusesEntry: a re-harvest stores into the entry its key already
// has — nothing allocated beyond the header Clone makes — and the entry moves
// to the ring's tail, so eviction order, evictions and stale_total are what
// they were when an overwrite dropped the entry and made a new one.
func TestOverwriteReusesEntry(t *testing.T) {
	c, now := newCache(10*time.Second, 3)
	rs := sampleRS(t, "h")
	for _, k := range []string{"a", "b", "c"} {
		c.Put(k, sql, rs)
		*now = now.Add(time.Millisecond)
	}
	clone := testing.AllocsPerRun(100, func() { cloneSink = rs.Clone() })
	if got := testing.AllocsPerRun(100, func() { c.Put("a", sql, rs) }); got != clone {
		t.Errorf("overwriting Put allocates %.0f times, want Clone's %.0f", got, clone)
	}
	held, at, ok := c.Get("a", sql)
	if !ok || !at.Equal(*now) {
		t.Fatalf("overwritten entry: ok %v, cached at %v, want %v", ok, at, *now)
	}
	c.Put("a", sql, sampleRS(t, "h2"))
	if host, _ := held.RowAt(0)[0].(string); host != "h" {
		t.Errorf("a reader's set changed under it: host %q", host)
	}

	// "a" is now the newest: the newcomer evicts "b", the oldest.
	c.Put("d", sql, rs)
	for k, want := range map[string]bool{"a": true, "b": false, "c": true, "d": true} {
		if _, _, ok := c.Get(k, sql); ok != want {
			t.Errorf("%s cached = %v, want %v", k, ok, want)
		}
	}
	// Past the horizon every entry leaves once, an overwritten one included.
	*now = now.Add(11 * time.Second)
	c.Put("e", sql, rs)
	if s := c.Stats(); s.Evictions != 1 || s.Stale != 3 || s.Entries != 1 {
		t.Errorf("stats %+v; want 1 eviction, 3 stale, 1 entry", s)
	}
}

// TestSharedResultConcurrentReaders is the shared-result contract under
// -race: Get and GetStale hand every reader the stored ResultSet, so readers
// that only read it (Len, RowAt, Merge into a set of their own) never see a
// torn or mixed answer while a writer keeps replacing the entry, and what one
// reader does to its merged copy never shows in the next reader's.
func TestSharedResultConcurrentReaders(t *testing.T) {
	c := New(Options{TTL: time.Hour, StaleGrace: time.Hour, MaxEntries: 8})
	c.Put(src, sql, sampleRS(t, "h0"))
	a, _, _ := c.Get(src, sql)
	b, _, _ := c.GetStale(src, sql)
	if a != b {
		t.Error("Get and GetStale returned different ResultSets for one entry")
	}
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
				c.Put(src, sql, sampleRS(t, fmt.Sprintf("h%d", i)))
			}
		}
	}()
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func(get func(string, string) (*resultset.ResultSet, time.Time, bool)) {
			defer readers.Done()
			for i := 0; i < 500; i++ {
				rs, _, ok := get(src, sql)
				if !ok || rs.Len() != 1 {
					t.Errorf("read %d: ok=%v", i, ok)
					return
				}
				host := rs.RowAt(0)[0]
				mine := resultset.New(rs.Metadata())
				if err := mine.Merge(rs); err != nil {
					t.Error(err)
					return
				}
				if err := mine.SortBy("HostName", true); err != nil || !mine.Next() {
					t.Errorf("own copy: sort %v", err)
					return
				}
				if got := rs.RowAt(0)[0]; got != host || mine.RowAt(0)[0] != host {
					t.Errorf("shared rows changed under a reader: %v then %v", host, got)
					return
				}
				if _, err := rs.GetString("HostName"); err == nil {
					t.Error("a reader's cursor moved the shared result's")
					return
				}
			}
		}([]func(string, string) (*resultset.ResultSet, time.Time, bool){c.Get, c.GetStale}[r%2])
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestConcurrentGetPutClear exercises the Get/Put/Clear interleavings under
// -race: the entry must be read under the lock.
func TestConcurrentGetPutClear(t *testing.T) {
	c := New(Options{TTL: time.Second, MaxEntries: 8})
	rs := sampleRS(t, "h")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			c.Put(src, sql, rs)
			if i%100 == 0 {
				c.Clear()
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		if got, _, ok := c.Get(src, sql); ok && got.Len() != 1 {
			t.Fatalf("torn read: %d rows", got.Len())
		}
	}
	<-done
}
