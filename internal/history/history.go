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
// series.go): sealed chunks of chunkSamples samples, each field encoded by
// its kind (chunk.go), then the open chunk the next sample is appended to.
// A range read searches the window and decodes only the chunks it touches
// straight into the answer. Times — sample times and Time cells — are kept
// as Unix nanoseconds, the journal's own representation, and read back in
// the local zone.
package history

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
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
	sealer sealer                             // used under mu

	// Running totals, written under mu, so the gauges that read them on
	// every scrape neither take the lock nor walk the store.
	keys, samples, bytes atomic.Int64
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
	return s.add(g, source, ns, rs, n, dedupe)
}

// add puts one checked sample, rs's n rows, into its series in time order
// — after any sample of the same time, or not at all if dedupe is set and
// one exists — and applies retention to the series. It reports whether the
// sample was kept.
func (s *Store) add(g *glue.Group, source string, at int64, rs *resultset.ResultSet, n int, dedupe bool) (bool, error) {
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
		ser = &series{source: source}
		if s.groups[g] == nil {
			s.groups[g] = make(map[string]*series)
		}
		s.groups[g][source] = ser
		s.keys.Add(1)
	}
	i := ser.n
	if ser.live() > 0 && at < ser.lastTime() {
		i = ser.search(func(t int64) bool { return t > at })
	}
	if dedupe && i > ser.head && ser.timeAt(i-1) == at {
		return false, nil
	}
	if rows := ser.chunkRows(i) + n; rows > math.MaxInt32 {
		return false, fmt.Errorf("history: %s of %s would hold %d rows in a chunk", g.Name, source, rows)
	}
	full := ser.live() == s.opts.MaxSamplesPerKey
	switch {
	case i == ser.n:
		ser.push(g, at, rs, n)
	case i == ser.head && full:
		return false, nil // older than everything in a full series: the one retention would drop
	default:
		ser.insert(g, &s.sealer, i, at, rs, n)
	}
	if full {
		ser.drop(1)
	} else {
		s.samples.Add(1)
	}
	if len(ser.open.times) == chunkSamples {
		ser.seal(&s.sealer)
	}
	s.account(ser)
	return true, nil
}

// account brings the store's byte total up to date with what ser holds.
// Callers hold s.mu.
func (s *Store) account(ser *series) {
	n := ser.size()
	s.bytes.Add(n - ser.bytes)
	ser.bytes = n
}

// expire drops ser's samples older than cutoff, and ser itself from the
// store once it is empty. Callers hold s.mu.
func (s *Store) expire(g *glue.Group, ser *series, cutoff time.Time) int {
	k := ser.expired(cutoff)
	if k == 0 {
		return 0
	}
	s.samples.Add(int64(-k))
	if k == ser.live() {
		ser.head += k
		delete(s.groups[g], ser.source)
		s.keys.Add(-1)
		s.bytes.Add(-ser.bytes)
		return k
	}
	ser.drop(k)
	s.account(ser)
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
	var one [1]window
	s.mu.RLock()
	if source == "" {
		bySource := s.groups[g]
		n := 0
		for _, ser := range bySource {
			n += len(ser.open.cols)
		}
		wins, cols := make([]window, 0, len(bySource)), make([]column, 0, n)
		for _, ser := range bySource {
			w := window{}
			w.series, cols = ser.image(until, cols)
			wins = append(wins, w)
		}
		s.mu.RUnlock()
		slices.SortFunc(wins, func(a, b window) int { return strings.Compare(a.source, b.source) })
		return s.read(g, meta, wins, since, until)
	}
	wins := one[:0]
	if ser := s.groups[g][source]; ser != nil {
		w := window{}
		w.series, _ = ser.image(until, nil)
		wins = append(wins, w)
	}
	s.mu.RUnlock()
	return s.read(g, meta, wins, since, until)
}

// window is a frozen series and the samples [lo, hi) a read takes from it.
type window struct {
	series
	lo, hi int
}

// read answers a range read from frozen series, in source order.
func (s *Store) read(g *glue.Group, meta *resultset.Metadata, wins []window, since, until time.Time) (*resultset.ResultSet, error) {
	rows, fields := 0, uint64(0)
	for k := range wins {
		w := &wins[k]
		w.lo, w.hi = w.head, w.n
		if !since.IsZero() {
			w.lo = w.search(func(at int64) bool { return !time.Unix(0, at).Before(since) })
		}
		if !until.IsZero() {
			w.hi = max(w.lo, w.search(func(at int64) bool { return time.Unix(0, at).After(until) }))
		}
		r, f := w.shape(w.lo, w.hi)
		rows, fields = rows+r, fields|f
	}
	// Series by series in source order; a stable sort by sample time then
	// gives the order across them: time, then source.
	b := resultset.NewBuilder(meta).Grow(rows, bits.OnesCount64(fields)+2)
	for k := range wins {
		wins[k].put(b, wins[k].lo, wins[k].hi, len(g.Fields), true)
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
	last := ser.n - 1 // a series in the store holds a sample
	at := time.Unix(0, ser.lastTime())
	if now.Sub(at) > s.opts.MaxAge {
		return nil, time.Time{}, false
	}
	rows, fields := ser.shape(last, last+1)
	b := resultset.NewBuilder(meta).Grow(rows, bits.OnesCount64(fields))
	ser.put(b, last, last+1, len(g.Fields), false)
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
// it holds the series' chunks, not copies of their samples. Reading it
// takes no lock and never blocks Record.
type View struct {
	series []viewSeries
}

type viewSeries struct {
	group *glue.Group
	series
}

// View freezes the store's retained state for a durability layer to encode.
func (s *Store) View() *View {
	v := &View{}
	s.mu.RLock()
	v.series = make([]viewSeries, 0, s.keys.Load())
	n := 0
	for _, bySource := range s.groups {
		for _, ser := range bySource {
			n += len(ser.open.cols)
		}
	}
	cols := make([]column, 0, n)
	for g, bySource := range s.groups {
		for _, ser := range bySource {
			vs := viewSeries{group: g}
			vs.series, cols = ser.frozen(cols)
			v.series = append(v.series, vs)
		}
	}
	s.mu.RUnlock()
	// Stable (source, group) order, whatever the maps' was.
	sort.Slice(v.series, func(i, j int) bool {
		a, b := &v.series[i], &v.series[j]
		if a.source != b.source {
			return a.source < b.source
		}
		return a.group.Name < b.group.Name
	})
	return v
}

// Sample is one retained sample of a View: At's rows of (Source, Group), its
// cells read from the chunk they were decoded from.
type Sample struct {
	Source, Group string
	At            time.Time
	rs            *resultset.ResultSet
	from, rows    int
}

// Len returns the number of rows.
func (s *Sample) Len() int { return s.rows }

// Rows returns the sample's rows: rows [from, to) of rs, a set of the
// group's own shape that holds its chunk and that the next chunk reuses.
func (s *Sample) Rows() (rs *resultset.ResultSet, from, to int) {
	return s.rs, s.from, s.from + s.rows
}

// Each calls fn with every sample, series by series in (source, group) order
// and in time order within one, stopping at the first error. Each chunk is
// decoded once, into a set of the group's shape the next chunk reuses. The
// Sample is reused from call to call: fn must not keep it.
func (v *View) Each(fn func(*Sample) error) error {
	sets := make(map[*glue.Group]*resultset.Builder)
	var sp span
	var err error
	for k := range v.series {
		ser := &v.series[k]
		b := sets[ser.group]
		if b == nil {
			meta, merr := resultset.MetadataForGroup(ser.group, nil)
			if merr != nil {
				return merr
			}
			b = resultset.NewBuilder(meta)
			sets[ser.group] = b
		}
		smp := Sample{Source: ser.source, Group: ser.group.Name}
		cols := len(ser.group.Fields)
		ser.parts(ser.head, ser.n, func(c *chunk, a, z int) {
			if err != nil {
				return
			}
			sp.of(c, &ser.open)
			b.Reset()
			ser.putPart(b.Grow(int(sp.starts[z]-sp.starts[a]), 0), c, &sp, a, z, cols, false)
			if smp.rs, err = b.Build(); err != nil {
				return
			}
			for i := a; i < z && err == nil; i++ {
				smp.At = time.Unix(0, sp.times[i])
				smp.from, smp.rows = int(sp.starts[i]-sp.starts[a]), int(sp.starts[i+1]-sp.starts[i])
				err = fn(&smp)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Keys returns how many (source, group) keys currently hold samples.
func (s *Store) Keys() int { return int(s.keys.Load()) }

// TotalSamples returns the total retained sample count across all keys.
func (s *Store) TotalSamples() int { return int(s.samples.Load()) }

// Bytes returns what the store's series hold: sealed chunks, the open
// chunks' arrays and dictionaries, and each series' own header and map
// entry. The strings a dictionary names are not counted: a harvest or the
// intern table may share them.
func (s *Store) Bytes() int64 { return s.bytes.Load() }

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
