// Package history implements the gateway's internal historical store
// (paper §3.1.1: "historical data is retrieved from the Gateway's internal
// database"; Fig 3's "Historical Data & Information Schemas").
//
// Every real-time harvest can be recorded: rows are stored per (source,
// GLUE group) with the sample time, and historical queries read them back
// as ResultSets extended with two provenance columns, SourceURL and
// SampledAt. Retention is bounded both by age and by sample count.
package history

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// SourceColumn and SampledColumn are the provenance columns historical
// results carry in addition to the group's GLUE fields.
const (
	SourceColumn  = "SourceURL"
	SampledColumn = "SampledAt"
)

// Options configures a Store.
type Options struct {
	// MaxAge drops samples older than this (default 1h).
	MaxAge time.Duration
	// MaxSamplesPerKey bounds samples kept per (source, group)
	// (default 1024).
	MaxSamplesPerKey int
	// Clock is injectable for tests; defaults to time.Now.
	Clock func() time.Time
}

// sample is one recorded harvest: the rows of one ResultSet at one time.
type sample struct {
	at   time.Time
	rows [][]any
}

// Store is the historical database.
type Store struct {
	opts Options

	mu   sync.RWMutex
	data map[string][]sample // source+"\x00"+group → samples in time order
}

// New creates a Store.
func New(opts Options) *Store {
	if opts.MaxAge <= 0 {
		opts.MaxAge = time.Hour
	}
	if opts.MaxSamplesPerKey <= 0 {
		opts.MaxSamplesPerKey = 1024
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	return &Store{opts: opts, data: make(map[string][]sample)}
}

func storeKey(source, group string) string { return source + "\x00" + group }

// Record stores the rows of a harvested ResultSet for (source, group) at
// time at. The ResultSet must carry the group's full canonical column set;
// results that were projected by a query should not be recorded.
func (s *Store) Record(source, group string, rs *resultset.ResultSet, at time.Time) error {
	g, ok := glue.Lookup(group)
	if !ok {
		return fmt.Errorf("history: unknown group %q", group)
	}
	meta := rs.Metadata()
	if meta.ColumnCount() != len(g.Fields) {
		return fmt.Errorf("history: result has %d columns, group %s has %d",
			meta.ColumnCount(), g.Name, len(g.Fields))
	}
	for i, f := range g.Fields {
		if meta.ColumnIndex(f.Name) != i {
			return fmt.Errorf("history: result column %d is %q, want %q",
				i, meta.Column(i).Name, f.Name)
		}
	}
	// Deep-copy each row: RowAt returns the ResultSet's own slice, and a
	// caller mutating its harvested rows must not corrupt stored history.
	rows := make([][]any, rs.Len())
	for i := 0; i < rs.Len(); i++ {
		rows[i] = append([]any(nil), rs.RowAt(i)...)
	}
	k := storeKey(source, g.Name)
	s.mu.Lock()
	defer s.mu.Unlock()
	samples := append(s.data[k], sample{at: at, rows: rows})
	samples = s.retainLocked(samples)
	s.data[k] = samples
	return nil
}

func (s *Store) retainLocked(samples []sample) []sample {
	cutoff := s.opts.Clock().Add(-s.opts.MaxAge)
	start := 0
	for start < len(samples) && samples[start].at.Before(cutoff) {
		start++
	}
	if len(samples)-start > s.opts.MaxSamplesPerKey {
		start = len(samples) - s.opts.MaxSamplesPerKey
	}
	if start == 0 {
		return samples
	}
	// Copy the retained window instead of re-slicing: samples[start:] keeps
	// the dropped prefix (and all its row data) reachable through the shared
	// backing array for as long as the key lives, which under source churn
	// is a leak — a key that stops receiving records would pin its pruned
	// samples forever.
	kept := make([]sample, len(samples)-start)
	copy(kept, samples[start:])
	return kept
}

// Query reads back history for a GLUE group across sources. Empty source
// means all sources; zero since/until mean unbounded. Rows are ordered by
// sample time, then source. The result's columns are the group's fields
// plus SourceURL and SampledAt.
func (s *Store) Query(group, source string, since, until time.Time) (*resultset.ResultSet, error) {
	g, ok := glue.Lookup(group)
	if !ok {
		return nil, fmt.Errorf("history: unknown group %q", group)
	}
	meta, err := s.Metadata(g)
	if err != nil {
		return nil, err
	}
	type hit struct {
		at     time.Time
		source string
		rows   [][]any
	}
	var hits []hit
	s.mu.RLock()
	for k, samples := range s.data {
		src, grp, ok := strings.Cut(k, "\x00")
		if !ok || grp != g.Name {
			continue
		}
		if source != "" && src != source {
			continue
		}
		for _, sm := range samples {
			if !since.IsZero() && sm.at.Before(since) {
				continue
			}
			if !until.IsZero() && sm.at.After(until) {
				continue
			}
			hits = append(hits, hit{at: sm.at, source: src, rows: sm.rows})
		}
	}
	s.mu.RUnlock()
	// Stable order: time, then source.
	sort.Slice(hits, func(i, j int) bool {
		if !hits[i].at.Equal(hits[j].at) {
			return hits[i].at.Before(hits[j].at)
		}
		return hits[i].source < hits[j].source
	})
	total := 0
	for _, h := range hits {
		total += len(h.rows)
	}
	b := resultset.NewBuilder(meta).Grow(total)
	for _, h := range hits {
		source, at := any(h.source), any(h.at) // boxed once per sample, not per row
		for _, row := range h.rows {
			full := make([]any, 0, len(row)+2)
			full = append(full, row...)
			b.AppendOwned(append(full, source, at))
		}
	}
	return b.Build()
}

// Latest returns the most recent recorded sample for (source, group) as a
// ResultSet in the group's canonical shape (no provenance columns), plus its
// sample time. Samples older than MaxAge are not served. It backs the
// history tier of the gateway's degradation ladder: when a harvest fails
// and no cache entry survives, the last known-good rows are better than
// nothing.
func (s *Store) Latest(source, group string) (*resultset.ResultSet, time.Time, bool) {
	g, ok := glue.Lookup(group)
	if !ok {
		return nil, time.Time{}, false
	}
	s.mu.RLock()
	samples := s.data[storeKey(source, g.Name)]
	var last sample
	if n := len(samples); n > 0 {
		last = samples[n-1]
	}
	s.mu.RUnlock()
	if last.at.IsZero() {
		return nil, time.Time{}, false
	}
	if s.opts.Clock().Sub(last.at) > s.opts.MaxAge {
		return nil, time.Time{}, false
	}
	meta, err := resultset.MetadataForGroup(g, nil)
	if err != nil {
		return nil, time.Time{}, false
	}
	b := resultset.NewBuilder(meta)
	for _, row := range last.rows {
		// Copy each row: the builder must not alias stored history.
		b.Append(append([]any(nil), row...)...)
	}
	rs, err := b.Build()
	if err != nil {
		return nil, time.Time{}, false
	}
	return rs, last.at, true
}

// Metadata returns the result shape historical queries produce for a group.
func (s *Store) Metadata(g *glue.Group) (*resultset.Metadata, error) {
	base, err := resultset.MetadataForGroup(g, nil)
	if err != nil {
		return nil, err
	}
	cols := base.Columns()
	cols = append(cols,
		resultset.Column{Name: SourceColumn, Kind: glue.String},
		resultset.Column{Name: SampledColumn, Kind: glue.Time},
	)
	return resultset.NewMetadata(cols)
}

// Sources returns the distinct source URLs with history for a group.
func (s *Store) Sources(group string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	suffix := "\x00" + group
	for k := range s.data {
		if len(k) > len(suffix) && k[len(k)-len(suffix):] == suffix {
			out = append(out, k[:len(k)-len(suffix)])
		}
	}
	sort.Strings(out) // deterministic order
	return out
}

// SampleCount returns how many samples are held for (source, group).
func (s *Store) SampleCount(source, group string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data[storeKey(source, group)])
}

// SampleRecord is one recorded sample in flat form — the exchange shape
// between the store and a durability layer (internal/tsdb) that journals
// records and snapshots retained state.
type SampleRecord struct {
	Source string
	Group  string
	At     time.Time
	Rows   [][]any
}

// Snapshot returns every retained sample in stable (key, time) order. Row
// slices are shared with the store — stored rows are immutable once recorded
// (Record deep-copies in, readers copy out) — so callers may read but must
// not mutate them.
func (s *Store) Snapshot() []SampleRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []SampleRecord
	for _, k := range keys {
		src, grp, ok := strings.Cut(k, "\x00")
		if !ok {
			continue
		}
		for _, sm := range s.data[k] {
			out = append(out, SampleRecord{Source: src, Group: grp, At: sm.at, Rows: sm.rows})
		}
	}
	return out
}

// Load inserts a restored sample without Record's shape validation (the
// durability layer only journals records that already passed it). Samples
// are inserted in time order; a sample whose time exactly matches an
// existing one for the key is dropped, so replaying a WAL that overlaps a
// checkpoint is idempotent. Retention applies as usual. The store takes
// ownership of rec.Rows. It reports whether the sample was kept.
func (s *Store) Load(rec SampleRecord) bool {
	g, ok := glue.Lookup(rec.Group)
	if !ok {
		return false
	}
	k := storeKey(rec.Source, g.Name)
	s.mu.Lock()
	defer s.mu.Unlock()
	samples := s.data[k]
	sm := sample{at: rec.At, rows: rec.Rows}
	n := len(samples)
	if n == 0 || rec.At.After(samples[n-1].at) {
		samples = append(samples, sm)
	} else {
		i := sort.Search(n, func(i int) bool { return !samples[i].at.Before(rec.At) })
		if i < n && samples[i].at.Equal(rec.At) {
			return false // checkpoint/WAL overlap: already restored
		}
		samples = append(samples, sample{})
		copy(samples[i+1:], samples[i:])
		samples[i] = sm
	}
	kept := s.retainLocked(samples)
	if len(kept) == 0 {
		delete(s.data, k)
		return false
	}
	s.data[k] = kept
	// The loaded sample survived retention iff it is newer than the
	// retained window's start.
	return !sm.at.Before(kept[0].at)
}

// Keys returns how many (source, group) keys currently hold samples.
func (s *Store) Keys() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// TotalSamples returns the total retained sample count across all keys.
func (s *Store) TotalSamples() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, samples := range s.data {
		n += len(samples)
	}
	return n
}

// Prune applies retention to every key immediately and reports how many
// samples were dropped.
func (s *Store) Prune() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for k, samples := range s.data {
		kept := s.retainLocked(samples)
		dropped += len(samples) - len(kept)
		if len(kept) == 0 {
			delete(s.data, k)
		} else {
			s.data[k] = kept
		}
	}
	return dropped
}
