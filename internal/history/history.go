// Package history implements the gateway's internal historical store
// (paper §3.1.1: "historical data is retrieved from the Gateway's internal
// database"; Fig 3's "Historical Data & Information Schemas").
//
// Every real-time harvest can be recorded: rows are stored per (GLUE group,
// source) with the sample time, and historical queries read them back
// as ResultSets extended with two provenance columns, SourceURL and
// SampledAt. Retention is bounded both by age and by sample count.
//
// Each (group, source) is one series, time-sorted and column-major (see
// series.go): a range read binary-searches the window and copies out only
// the answer, and a sample at rest costs its typed cells, not boxed ones.
// Times — sample times and Time cells — are kept as Unix nanoseconds, the
// journal's own representation, and read back in the local zone.
package history

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// SourceColumn and SampledColumn are the provenance columns historical
// results carry in addition to the group's GLUE fields.
const (
	SourceColumn  = resultset.SourceColumn
	SampledColumn = resultset.SampledColumn
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

// Store is the historical database.
type Store struct {
	opts Options

	mu     sync.RWMutex
	groups map[*glue.Group]map[string]*series // group → source → series

	// Running totals, written under mu, so the gauges that read them on
	// every scrape neither take the lock nor walk the store.
	keys, samples atomic.Int64
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
	return &Store{opts: opts, groups: make(map[*glue.Group]map[string]*series)}
}

// cutoff is the time before which samples have aged out. It reads the
// caller's clock, so it is called before taking the lock.
func (s *Store) cutoff() time.Time { return s.opts.Clock().Add(-s.opts.MaxAge) }

// unixNanos returns t as Unix nanoseconds, and whether t survives the trip.
func unixNanos(t time.Time) (int64, bool) {
	ns := t.UnixNano()
	return ns, time.Unix(0, ns).Equal(t)
}

// checkTime is the store's own limit on a cell: a Time must be representable
// as Unix nanoseconds.
func checkTime(f glue.Field, v resultset.Cell) error {
	if f.Kind != glue.Time || v.Null {
		return nil
	}
	if _, ok := unixNanos(v.Time); !ok {
		return fmt.Errorf("history: field %s: time %v out of range", f.Name, v.Time)
	}
	return nil
}

// Record stores the rows of a harvested ResultSet for (source, group) at
// time at. The ResultSet must carry the group's full canonical column set;
// results that were projected by a query should not be recorded. Samples
// may arrive out of time order; the series stays sorted.
func (s *Store) Record(source, group string, rs *resultset.ResultSet, at time.Time) error {
	_, err := s.record(source, group, rs, at, false)
	return err
}

// Load is Record for a sample a durability layer restores: one whose time
// exactly matches a sample the key already holds is dropped, so replaying a
// WAL that overlaps a checkpoint is idempotent. It checks what Record checks
// — a journal written under another schema, or a foreign directory, must not
// poison the group's reads — and reports whether the sample was kept.
func (s *Store) Load(source, group string, rs *resultset.ResultSet, at time.Time) (bool, error) {
	return s.record(source, group, rs, at, true)
}

func (s *Store) record(source, group string, rs *resultset.ResultSet, at time.Time, dedupe bool) (bool, error) {
	g, ok := glue.Lookup(group)
	if !ok {
		return false, fmt.Errorf("history: unknown group %q", group)
	}
	meta := rs.Metadata()
	// A harvest's result carries the group's own shared Metadata; only
	// another one needs comparing with the group field by field.
	if canonical, _ := resultset.MetadataForGroup(g, nil); meta != canonical {
		if meta.ColumnCount() != len(g.Fields) {
			return false, fmt.Errorf("history: result has %d columns, group %s has %d",
				meta.ColumnCount(), g.Name, len(g.Fields))
		}
		for i, f := range g.Fields {
			if c := meta.Column(i); meta.ColumnIndex(f.Name) != i || c.Kind != f.Kind {
				return false, fmt.Errorf("history: result column %d is %s %q, want %s %q",
					i, c.Kind, c.Name, f.Kind, f.Name)
			}
		}
	}
	n := rs.Len()
	for c, f := range g.Fields {
		for i := 0; f.Kind == glue.Time && i < n; i++ {
			if err := checkTime(f, rs.Cell(i, c)); err != nil {
				return false, err
			}
		}
	}
	ns, ok := unixNanos(at)
	if !ok {
		return false, fmt.Errorf("history: sample time %v out of range", at)
	}
	// The cells are copied into the series' columns, so a caller mutating
	// its harvested result afterwards cannot corrupt stored history.
	return s.add(g, source, ns, n, func(c int, col *column, r int) {
		if src := rs.Column(c); src != nil {
			col.copyIn(r, src, 0, n, 0)
		}
	}, dedupe)
}

// add puts one checked sample into its series in time order — after any
// sample of the same time, or not at all if dedupe is set and one exists —
// and applies retention to the series. It reports whether the sample was
// kept.
func (s *Store) add(g *glue.Group, source string, at int64, n int, put func(c int, col *column, r int), dedupe bool) (bool, error) {
	cutoff := s.cutoff()
	s.mu.Lock()
	defer s.mu.Unlock()
	ser := s.groups[g][source]
	if ser != nil {
		if s.expire(g, ser, cutoff); ser.live() == 0 {
			ser = nil // expire has dropped it from the store
		}
	}
	if time.Unix(0, at).Before(cutoff) {
		return false, nil
	}
	if ser == nil {
		ser = newSeries(g, source)
		if s.groups[g] == nil {
			s.groups[g] = make(map[string]*series)
		}
		s.groups[g][source] = ser
		s.keys.Add(1)
	} else if rows := ser.rowStart(len(ser.times)) + n; rows > math.MaxInt32 {
		return false, fmt.Errorf("history: %s of %s would hold %d rows", g.Name, source, rows)
	}
	i := len(ser.times)
	if i > ser.head && at < ser.times[i-1] {
		i = ser.head + sort.Search(ser.live(), func(k int) bool { return ser.times[ser.head+k] > at })
	}
	if dedupe && i > ser.head && ser.times[i-1] == at {
		return false, nil
	}
	full := ser.live() == s.opts.MaxSamplesPerKey
	switch {
	case i == len(ser.times):
		ser.push(at, n, put)
	case i == ser.head && full:
		return false, nil // older than everything in a full series: the one retention would drop
	default:
		ser.insert(i, at, n, put)
	}
	if full {
		ser.drop(1)
	} else {
		s.samples.Add(1)
	}
	return true, nil
}

// expire drops ser's samples older than cutoff, and ser itself from the
// store once it is empty. Callers hold s.mu.
func (s *Store) expire(g *glue.Group, ser *series, cutoff time.Time) int {
	k := 0
	for ser.head+k < len(ser.times) && time.Unix(0, ser.times[ser.head+k]).Before(cutoff) {
		k++
	}
	if k == 0 {
		return 0
	}
	s.samples.Add(int64(-k))
	if k == ser.live() {
		ser.head += k
		delete(s.groups[g], ser.source)
		s.keys.Add(-1)
		return k
	}
	ser.drop(k)
	return k
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
	// Freeze the series under the lock, read them outside it.
	var wins []series
	s.mu.RLock()
	if source == "" {
		wins = make([]series, 0, len(s.groups[g]))
		for _, ser := range s.groups[g] {
			wins = append(wins, ser.frozen())
		}
	} else if ser := s.groups[g][source]; ser != nil {
		wins = []series{ser.frozen()}
	}
	s.mu.RUnlock()

	// Narrow each series to the window: [head, len) becomes [lo, hi).
	rows, live := 0, 0
	for w := range wins {
		ser := &wins[w]
		lo, hi := ser.head, len(ser.times)
		if !since.IsZero() {
			lo += sort.Search(hi-lo, func(k int) bool { return !time.Unix(0, ser.times[lo+k]).Before(since) })
		}
		if !until.IsZero() {
			hi = lo + sort.Search(hi-lo, func(k int) bool { return time.Unix(0, ser.times[lo+k]).After(until) })
		}
		ser.head, ser.times = lo, ser.times[:hi]
		rows += ser.rowStart(hi) - ser.rowStart(lo)
		live = max(live, ser.liveColumns())
	}

	// Series by series in source order; a stable sort by sample time then
	// gives the order across them: time, then source.
	if len(wins) > 1 {
		sort.Slice(wins, func(i, j int) bool { return wins[i].source < wins[j].source })
	}
	b := resultset.NewBuilder(meta).Grow(rows, live+2)
	for w := range wins {
		wins[w].copyOut(b, wins[w].head, len(wins[w].times), true)
	}
	rs, err := b.Build()
	if err == nil && len(wins) > 1 {
		err = rs.SortBy(SampledColumn, false)
	}
	return rs, err
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
	meta, err := resultset.MetadataForGroup(g, nil)
	if err != nil {
		return nil, time.Time{}, false
	}
	now := s.opts.Clock()
	// One sample is a few rows: copying them out under the read lock costs
	// less than freezing the series to do it outside.
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser := s.groups[g][source]
	if ser == nil {
		return nil, time.Time{}, false
	}
	last := len(ser.times) - 1 // a series in the store holds a sample
	at := time.Unix(0, ser.times[last])
	if now.Sub(at) > s.opts.MaxAge {
		return nil, time.Time{}, false
	}
	b := resultset.NewBuilder(meta).Grow(int(ser.ends[last])-ser.rowStart(last), ser.liveColumns())
	ser.copyOut(b, last, last+1, false)
	rs, err := b.Build()
	if err != nil {
		return nil, time.Time{}, false
	}
	return rs, at, true
}

// Metadata returns the result shape historical queries produce for a group,
// shared with every other reader of that shape (resultset.MetadataWithProvenance).
func (s *Store) Metadata(g *glue.Group) (*resultset.Metadata, error) {
	return resultset.MetadataWithProvenance(g)
}

// Sources returns the distinct source URLs with history for a group.
func (s *Store) Sources(group string) []string {
	g, ok := glue.Lookup(group)
	if !ok {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for source := range s.groups[g] {
		out = append(out, source)
	}
	sort.Strings(out) // deterministic order
	return out
}

// SampleCount returns how many samples are held for (source, group).
func (s *Store) SampleCount(source, group string) int {
	g, ok := glue.Lookup(group)
	if !ok {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ser := s.groups[g][source]; ser != nil {
		return ser.live()
	}
	return 0
}

// View is a point-in-time image of every retained sample, taken in O(keys):
// it holds the series' array headers, not copies of their samples. Reading
// it takes no lock and never blocks Record.
type View struct {
	series []viewSeries
}

type viewSeries struct {
	group string
	series
}

// View freezes the store's retained state for a durability layer to encode.
func (s *Store) View() *View {
	v := &View{}
	s.mu.RLock()
	v.series = make([]viewSeries, 0, s.keys.Load())
	for g, bySource := range s.groups {
		for _, ser := range bySource {
			v.series = append(v.series, viewSeries{g.Name, ser.frozen()})
		}
	}
	s.mu.RUnlock()
	// Stable (source, group) order, whatever the maps' was.
	sort.Slice(v.series, func(i, j int) bool {
		a, b := &v.series[i], &v.series[j]
		if a.source != b.source {
			return a.source < b.source
		}
		return a.group < b.group
	})
	return v
}

// Sample is one retained sample of a View: At's rows of (Source, Group), its
// cells read where the series holds them.
type Sample struct {
	Source, Group string
	At            time.Time
	ser           *series
	from, rows    int
}

// Len returns the number of rows, Width the number of cells in each.
func (s *Sample) Len() int   { return s.rows }
func (s *Sample) Width() int { return len(s.ser.cols) }

// Null reports whether row r of the group's field c is NULL; Cell returns
// its value.
func (s *Sample) Null(r, c int) bool           { return s.ser.cols[c].Null(s.from + r) }
func (s *Sample) Cell(r, c int) resultset.Cell { return s.ser.cols[c].at(s.from + r) }

// Each calls fn with every sample, series by series in (source, group) order
// and in time order within one, stopping at the first error. The Sample is
// reused from call to call: fn must not keep it.
func (v *View) Each(fn func(*Sample) error) error {
	for k := range v.series {
		ser := &v.series[k]
		smp := Sample{Source: ser.source, Group: ser.group, ser: &ser.series}
		for i := ser.head; i < len(ser.times); i++ {
			smp.At, smp.from = time.Unix(0, ser.times[i]), ser.rowStart(i)
			smp.rows = int(ser.ends[i]) - smp.from
			if err := fn(&smp); err != nil {
				return err
			}
		}
	}
	return nil
}

// Keys returns how many (source, group) keys currently hold samples.
func (s *Store) Keys() int { return int(s.keys.Load()) }

// TotalSamples returns the total retained sample count across all keys.
func (s *Store) TotalSamples() int { return int(s.samples.Load()) }

// Prune applies retention to every key immediately and reports how many
// samples were dropped.
func (s *Store) Prune() int {
	cutoff := s.cutoff()
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for g, bySource := range s.groups {
		for _, ser := range bySource {
			dropped += s.expire(g, ser, cutoff)
		}
	}
	return dropped
}
