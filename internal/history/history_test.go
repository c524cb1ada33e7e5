package history

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

func memRS(t *testing.T, host string, ram int64) *resultset.ResultSet {
	t.Helper()
	g := glue.MustLookup(glue.GroupMemory)
	meta, err := resultset.MetadataForGroup(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := resultset.NewBuilder(meta).
		Append(host, ram, ram/2, ram*2, ram, 0.0, 0.0).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func newStore(opts Options) (*Store, *time.Time) {
	now := time.Unix(10000, 0)
	opts.Clock = func() time.Time { return now }
	return New(opts), &now
}

const srcA = "gridrm:snmp://a:1"
const srcB = "gridrm:ganglia://b:1"

func TestRecordAndQuery(t *testing.T) {
	s, now := newStore(Options{})
	t0 := *now
	if err := s.Record(srcA, glue.GroupMemory, memRS(t, "a", 1024), t0); err != nil {
		t.Fatal(err)
	}
	if err := s.Record(srcB, glue.GroupMemory, memRS(t, "b", 512), t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Query(glue.GroupMemory, "", time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Fatalf("rows = %d", rs.Len())
	}
	rs.Next()
	if h, _ := rs.GetString("HostName"); h != "a" {
		t.Errorf("first row host %q (time order)", h)
	}
	if src, _ := rs.GetString(SourceColumn); src != srcA {
		t.Errorf("source = %q", src)
	}
	if at, _ := rs.GetTime(SampledColumn); !at.Equal(t0) {
		t.Errorf("sampled at %v", at)
	}
}

func TestQueryFilters(t *testing.T) {
	s, now := newStore(Options{})
	t0 := *now
	_ = s.Record(srcA, glue.GroupMemory, memRS(t, "a", 1024), t0)
	_ = s.Record(srcA, glue.GroupMemory, memRS(t, "a", 1024), t0.Add(10*time.Second))
	_ = s.Record(srcB, glue.GroupMemory, memRS(t, "b", 512), t0.Add(20*time.Second))

	rs, err := s.Query(glue.GroupMemory, srcA, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Errorf("source filter rows = %d", rs.Len())
	}
	rs, err = s.Query(glue.GroupMemory, "", t0.Add(5*time.Second), t0.Add(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Errorf("window rows = %d", rs.Len())
	}
	rs, err = s.Query(glue.GroupProcessor, "", time.Time{}, time.Time{})
	if err != nil || rs.Len() != 0 {
		t.Errorf("empty group rows = %d, err %v", rs.Len(), err)
	}
	if _, err := s.Query("Nope", "", time.Time{}, time.Time{}); err == nil {
		t.Error("unknown group accepted")
	}
}

func TestRecordValidation(t *testing.T) {
	s, now := newStore(Options{})
	if err := s.Record(srcA, "Nope", memRS(t, "a", 1), *now); err == nil {
		t.Error("unknown group accepted")
	}
	// Projected result (wrong shape) is rejected.
	rs := memRS(t, "a", 1)
	proj, _ := rs.Project([]string{"HostName"})
	if err := s.Record(srcA, glue.GroupMemory, proj, *now); err == nil {
		t.Error("projected result accepted")
	}
}

func TestRetentionByAge(t *testing.T) {
	s, now := newStore(Options{MaxAge: time.Minute})
	t0 := *now
	_ = s.Record(srcA, glue.GroupMemory, memRS(t, "a", 1), t0.Add(-2*time.Minute))
	_ = s.Record(srcA, glue.GroupMemory, memRS(t, "a", 2), t0)
	// Recording applies retention to the touched key.
	if n := s.SampleCount(srcA, glue.GroupMemory); n != 1 {
		t.Errorf("samples = %d, want 1 (old one dropped)", n)
	}
	*now = now.Add(2 * time.Minute)
	if dropped := s.Prune(); dropped != 1 {
		t.Errorf("pruned %d, want 1", dropped)
	}
	if n := s.SampleCount(srcA, glue.GroupMemory); n != 0 {
		t.Errorf("samples after prune = %d", n)
	}
}

func TestRetentionByCount(t *testing.T) {
	s, now := newStore(Options{MaxSamplesPerKey: 5})
	for i := 0; i < 12; i++ {
		_ = s.Record(srcA, glue.GroupMemory, memRS(t, "a", int64(i+1)), now.Add(time.Duration(i)*time.Second))
	}
	if n := s.SampleCount(srcA, glue.GroupMemory); n != 5 {
		t.Errorf("samples = %d, want 5", n)
	}
	rs, _ := s.Query(glue.GroupMemory, srcA, time.Time{}, time.Time{})
	rs.Next()
	if ram, _ := rs.GetInt("RAMSize"); ram != 8 { // oldest kept is the 8th
		t.Errorf("oldest kept RAMSize = %d, want 8", ram)
	}
}

func TestSources(t *testing.T) {
	s, now := newStore(Options{})
	_ = s.Record(srcB, glue.GroupMemory, memRS(t, "b", 1), *now)
	_ = s.Record(srcA, glue.GroupMemory, memRS(t, "a", 1), *now)
	got := s.Sources(glue.GroupMemory)
	if len(got) != 2 || got[0] != srcB || got[1] != srcA {
		// sorted: ganglia... < snmp...
		t.Errorf("sources = %v", got)
	}
	if got := s.Sources(glue.GroupDisk); len(got) != 0 {
		t.Errorf("disk sources = %v", got)
	}
}

func TestMetadataShape(t *testing.T) {
	s, _ := newStore(Options{})
	g := glue.MustLookup(glue.GroupMemory)
	meta, err := s.Metadata(g)
	if err != nil {
		t.Fatal(err)
	}
	if meta.ColumnCount() != len(g.Fields)+2 {
		t.Errorf("columns = %d", meta.ColumnCount())
	}
	if meta.ColumnIndex(SourceColumn) < 0 || meta.ColumnIndex(SampledColumn) < 0 {
		t.Error("provenance columns missing")
	}
}

// TestRecordCopiesRows guards against callers mutating a harvested
// ResultSet after recording it: stored history must be unaffected.
func TestRecordCopiesRows(t *testing.T) {
	s, now := newStore(Options{})
	rs := memRS(t, "a", 1024)
	if err := s.Record(srcA, glue.GroupMemory, rs, *now); err != nil {
		t.Fatal(err)
	}
	// Mutate the recorded ResultSet's backing row in place.
	rs.RowAt(0)[0] = "CORRUPTED"
	got, err := s.Query(glue.GroupMemory, srcA, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	got.Next()
	if h, _ := got.GetString("HostName"); h != "a" {
		t.Errorf("stored host = %q; caller mutation leaked into history", h)
	}
}

func TestQueryOrderManySamples(t *testing.T) {
	s, now := newStore(Options{})
	t0 := *now
	// Record out of source order at identical and distinct times.
	for i := 9; i >= 0; i-- {
		src := srcB
		if i%2 == 0 {
			src = srcA
		}
		if err := s.Record(src, glue.GroupMemory, memRS(t, "h", 64), t0.Add(time.Duration(i/2)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := s.Query(glue.GroupMemory, "", time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Time
	var prevSrc string
	for rs.Next() {
		at, _ := rs.GetTime(SampledColumn)
		src, _ := rs.GetString(SourceColumn)
		if at.Before(prev) {
			t.Fatalf("rows out of time order: %v after %v", at, prev)
		}
		if at.Equal(prev) && src < prevSrc {
			t.Fatalf("rows out of source order at %v: %q after %q", at, src, prevSrc)
		}
		prev, prevSrc = at, src
	}
}

// The row-wise store this package used to be — one []sample per (source,
// group), rows kept as the boxed [][]any they arrived as — survives here as
// the reference model the columnar store is compared against. It is the old
// code with one behaviour fixed: samples are inserted in time order (after
// any of the same time), where the old Record appended in arrival order and
// let a late sample defeat retention.

type sample struct {
	at   time.Time
	rows [][]any
}

type refStore struct {
	opts Options
	data map[[2]string][]sample // {source, group} → samples in time order
}

func (m *refStore) retain(samples []sample) []sample {
	cutoff := m.opts.Clock().Add(-m.opts.MaxAge)
	start := 0
	for start < len(samples) && samples[start].at.Before(cutoff) {
		start++
	}
	if len(samples)-start > m.opts.MaxSamplesPerKey {
		start = len(samples) - m.opts.MaxSamplesPerKey
	}
	return samples[start:]
}

// add is Record (dedupe false) and Load (dedupe true); it reports whether
// the sample survived retention. Retention is applied to the key whatever
// becomes of the sample.
func (m *refStore) add(source, group string, rows [][]any, at time.Time, dedupe bool) bool {
	k := [2]string{source, group}
	samples := m.data[k]
	i := sort.Search(len(samples), func(i int) bool { return samples[i].at.After(at) })
	inserted := !dedupe || i == 0 || !samples[i-1].at.Equal(at)
	if inserted {
		copied := make([][]any, len(rows))
		for r, row := range rows {
			copied[r] = append([]any(nil), row...)
		}
		sm := sample{at: at, rows: copied}
		samples = append(samples[:i:i], append([]sample{sm}, samples[i:]...)...)
	}
	kept := m.retain(samples)
	if len(kept) == 0 {
		delete(m.data, k)
		return false
	}
	m.data[k] = kept
	return inserted && i >= len(samples)-len(kept) // not among the dropped prefix
}

func (m *refStore) prune() int {
	dropped := 0
	for k, samples := range m.data {
		kept := m.retain(samples)
		dropped += len(samples) - len(kept)
		if len(kept) == 0 {
			delete(m.data, k)
		} else {
			m.data[k] = kept
		}
	}
	return dropped
}

// query returns the rows Query should: each stored row plus source and time,
// ordered by time, then source, then position in the series.
func (m *refStore) query(group, source string, since, until time.Time) [][]any {
	type hit struct {
		at     time.Time
		source string
		rows   [][]any
	}
	var hits []hit
	for _, src := range m.sources(group) {
		if source != "" && src != source {
			continue
		}
		for _, sm := range m.data[[2]string{src, group}] {
			if !since.IsZero() && sm.at.Before(since) || !until.IsZero() && sm.at.After(until) {
				continue
			}
			hits = append(hits, hit{sm.at, src, sm.rows})
		}
	}
	sort.SliceStable(hits, func(i, j int) bool {
		if !hits[i].at.Equal(hits[j].at) {
			return hits[i].at.Before(hits[j].at)
		}
		return hits[i].source < hits[j].source
	})
	var out [][]any
	for _, h := range hits {
		for _, row := range h.rows {
			out = append(out, append(append([]any(nil), row...), h.source, h.at))
		}
	}
	return out
}

func (m *refStore) latest(source, group string) ([][]any, time.Time, bool) {
	samples := m.data[[2]string{source, group}]
	if len(samples) == 0 {
		return nil, time.Time{}, false
	}
	last := samples[len(samples)-1]
	if m.opts.Clock().Sub(last.at) > m.opts.MaxAge {
		return nil, time.Time{}, false
	}
	return last.rows, last.at, true
}

func (m *refStore) sources(group string) []string {
	var out []string
	for k := range m.data {
		if k[1] == group {
			out = append(out, k[0])
		}
	}
	sort.Strings(out)
	return out
}

func (m *refStore) total() int {
	n := 0
	for _, samples := range m.data {
		n += len(samples)
	}
	return n
}

// recount walks the store the way Keys and TotalSamples used to.
func (s *Store) recount() (keys, samples int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, bySource := range s.groups {
		for _, ser := range bySource {
			keys++
			samples += ser.live()
		}
	}
	return keys, samples
}

func sameCell(a, b any) bool {
	if ta, ok := a.(time.Time); ok {
		tb, ok := b.(time.Time)
		return ok && ta.Equal(tb)
	}
	return a == b
}

// sampleRows boxes a view sample's rows, for comparing with boxed references.
func sampleRows(smp *Sample) [][]any {
	rows := make([][]any, smp.Len())
	for r := range rows {
		for c := 0; c < smp.Width(); c++ {
			rows[r] = append(rows[r], smp.Cell(r, c).Value())
		}
	}
	return rows
}

func sameRows(t *testing.T, what string, got *resultset.ResultSet, want [][]any) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, got.Len(), len(want))
	}
	for i, w := range want {
		g := got.RowAt(i)
		if len(g) != len(w) {
			t.Fatalf("%s: row %d has %d cells, want %d", what, i, len(g), len(w))
		}
		for c := range w {
			if !sameCell(g[c], w[c]) {
				t.Fatalf("%s: row %d cell %d = %#v, want %#v", what, i, c, g[c], w[c])
			}
		}
	}
}

// diffGen draws random rows for a group: every cell NULL with the column's
// current probability, strings mostly from a small pool and sometimes
// unique (so a dictionary outgrows its linear scan), times on whole seconds.
type diffGen struct {
	rng   *rand.Rand
	nullP map[string][]float64 // group → per-column NULL probability
	uniq  int
}

func (d *diffGen) rows(g *glue.Group, now time.Time) [][]any {
	rows := make([][]any, d.rng.Intn(4)) // zero-row samples included
	for r := range rows {
		row := make([]any, len(g.Fields))
		for c, f := range g.Fields {
			if d.rng.Float64() < d.nullP[g.Name][c] {
				continue
			}
			switch f.Kind {
			case glue.String:
				if d.rng.Intn(6) == 0 {
					d.uniq++
					row[c] = fmt.Sprintf("uniq-%d", d.uniq)
				} else {
					row[c] = fmt.Sprintf("s%d", d.rng.Intn(3))
				}
			case glue.Int:
				row[c] = d.rng.Int63n(1000) - 500
			case glue.Float:
				row[c] = d.rng.Float64()
			case glue.Time:
				row[c] = now.Add(-time.Duration(d.rng.Intn(1e6)) * time.Second)
			}
		}
		rows[r] = row
	}
	return rows
}

func rowsRS(t *testing.T, g *glue.Group, rows [][]any) *resultset.ResultSet {
	t.Helper()
	meta, err := resultset.MetadataForGroup(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := resultset.NewBuilder(meta)
	for _, row := range rows {
		b.Append(row...)
	}
	rs, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestDifferentialAgainstRowModel drives the store and the reference model
// with the same seeded random operations and requires every answer — rows
// cell for cell and in order, counts, the running totals — to be the same.
func TestDifferentialAgainstRowModel(t *testing.T) {
	groups := []*glue.Group{glue.Memory, glue.OperatingSystem, glue.Processor}
	sources := []string{srcA, srcB, "gridrm:nws://c:1"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := time.Unix(50000, 0)
		opts := Options{
			MaxAge:           90 * time.Second,
			MaxSamplesPerKey: 3 + rng.Intn(12),
			Clock:            func() time.Time { return now },
		}
		s, model := New(opts), &refStore{opts: opts, data: map[[2]string][]sample{}}
		gen := &diffGen{rng: rng, nullP: map[string][]float64{}}
		for _, g := range groups {
			// Start with some columns always NULL and some never; the
			// probabilities are redrawn mid-run so columns turn non-NULL
			// (and NULL) late.
			gen.nullP[g.Name] = make([]float64, len(g.Fields))
		}
		redraw := func() {
			for _, g := range groups { // not a range over the map: the draws must repeat
				p := gen.nullP[g.Name]
				for c := range p {
					p[c] = []float64{0, 0, 1, 0.3}[rng.Intn(4)]
				}
			}
		}
		redraw()
		window := func() (since, until time.Time) {
			if rng.Intn(3) > 0 {
				since = now.Add(-time.Duration(rng.Intn(140)) * time.Second)
			}
			if rng.Intn(3) > 0 {
				until = now.Add(-time.Duration(rng.Intn(140)-20) * time.Second)
			}
			return since, until // sometimes empty, sometimes inverted
		}
		for op := 0; op < 1500; op++ {
			g := groups[rng.Intn(len(groups))]
			src := sources[rng.Intn(len(sources))]
			what := fmt.Sprintf("seed %d op %d (%s, %s)", seed, op, g.Name, src)
			// Mostly the present, often the recent past, sometimes expired
			// already; whole seconds make equal timestamps common.
			at := now
			switch rng.Intn(5) {
			case 0, 1:
				at = now.Add(-time.Duration(rng.Intn(30)) * time.Second)
			case 2:
				at = now.Add(-time.Duration(rng.Intn(150)) * time.Second)
			}
			switch k := rng.Intn(20); {
			case k < 9:
				rows := gen.rows(g, now)
				if err := s.Record(src, g.Name, rowsRS(t, g, rows), at); err != nil {
					t.Fatalf("%s: Record: %v", what, err)
				}
				model.add(src, g.Name, rows, at, false)
			case k < 13:
				rows := gen.rows(g, now)
				kept, err := s.Load(src, g.Name, rowsRS(t, g, rows), at)
				if err != nil {
					t.Fatalf("%s: Load: %v", what, err)
				}
				if want := model.add(src, g.Name, rows, at, true); kept != want {
					t.Fatalf("%s: Load kept = %v, want %v", what, kept, want)
				}
			case k < 15:
				now = now.Add(time.Duration(rng.Intn(20)) * time.Second)
			case k == 15:
				if got, want := s.Prune(), model.prune(); got != want {
					t.Fatalf("%s: Prune dropped %d, want %d", what, got, want)
				}
			case k == 16:
				redraw()
			}

			since, until := window()
			for _, source := range []string{src, ""} {
				rs, err := s.Query(g.Name, source, since, until)
				if err != nil {
					t.Fatalf("%s: Query: %v", what, err)
				}
				sameRows(t, what+" Query "+source, rs, model.query(g.Name, source, since, until))
			}
			rs, at, ok := s.Latest(src, g.Name)
			wantRows, wantAt, wantOK := model.latest(src, g.Name)
			if ok != wantOK || !at.Equal(wantAt) {
				t.Fatalf("%s: Latest = %v %v, want %v %v", what, at, ok, wantAt, wantOK)
			}
			if ok {
				sameRows(t, what+" Latest", rs, wantRows)
			}
			if got, want := s.Sources(g.Name), model.sources(g.Name); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Sources = %v, want %v", what, got, want)
			}
			if got, want := s.SampleCount(src, g.Name), len(model.data[[2]string{src, g.Name}]); got != want {
				t.Fatalf("%s: SampleCount = %d, want %d", what, got, want)
			}
			keys, samples := s.recount()
			if s.Keys() != keys || s.TotalSamples() != samples {
				t.Fatalf("%s: running totals %d keys %d samples, recount %d / %d",
					what, s.Keys(), s.TotalSamples(), keys, samples)
			}
			if keys != len(model.data) || samples != model.total() {
				t.Fatalf("%s: %d keys %d samples, model has %d / %d", what, keys, samples, len(model.data), model.total())
			}
		}
		// The checkpoint view holds exactly the model's samples.
		var seen int
		_ = s.View().Each(func(smp *Sample) error {
			seen++
			for _, sm := range model.data[[2]string{smp.Source, smp.Group}] {
				if sm.at.Equal(smp.At) && len(sm.rows) == smp.Len() {
					return nil
				}
			}
			t.Fatalf("seed %d: view sample %s %s %v not in the model", seed, smp.Source, smp.Group, smp.At)
			return nil
		})
		if seen != model.total() {
			t.Fatalf("seed %d: view has %d samples, model %d", seed, seen, model.total())
		}
	}
}

// TestRangeReadAllocations: a one-source read of 50 samples of two hosts
// copies the window's cells out column by column — an array for each column
// that holds values, the set, its headers and the frozen series — and boxes
// nothing: 16 allocations when written, 656 while a ResultSet row was a
// []any and every cell of the answer its own box.
func TestRangeReadAllocations(t *testing.T) {
	s, now := newStore(Options{MaxSamplesPerKey: 1024})
	meta, err := resultset.MetadataForGroup(glue.Processor, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		b := resultset.NewBuilder(meta)
		for _, h := range []string{"h-a", "h-b"} {
			b.Append(h, "Xeon", "Intel", int64(2700), int64(20480), int64(16), float64(i), 0.9, 0.8, 37.5)
		}
		rs, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Record(srcA, glue.GroupProcessor, rs, now.Add(time.Duration(i-200)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	since, until := now.Add(-50*time.Second), *now
	allocs := testing.AllocsPerRun(100, func() {
		rs, err := s.Query(glue.GroupProcessor, srcA, since, until)
		if err != nil || rs.Len() != 100 {
			t.Fatalf("%v rows, err %v", rs.Len(), err)
		}
	})
	t.Logf("100-row range read: %.0f allocations", allocs)
	if allocs > 20 {
		t.Errorf("a 100-row range read took %.0f allocations, want ≤ 20", allocs)
	}
}
