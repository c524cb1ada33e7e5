package resultset

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gridrm/internal/glue"
)

func mustMeta(t *testing.T, cols []Column) *Metadata {
	t.Helper()
	m, err := NewMetadata(cols)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sampleRS(t *testing.T) *ResultSet {
	t.Helper()
	m := mustMeta(t, []Column{
		{Name: "HostName", Kind: glue.String},
		{Name: "Load", Kind: glue.Float},
		{Name: "CPUs", Kind: glue.Int},
	})
	rs, err := NewBuilder(m).
		Append("alpha", 0.5, int64(4)).
		Append("beta", 1.5, int64(8)).
		Append("gamma", nil, int64(2)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestMetadataValidation(t *testing.T) {
	if _, err := NewMetadata([]Column{{Name: ""}}); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := NewMetadata([]Column{{Name: "A"}, {Name: "a"}}); err == nil {
		t.Error("case-insensitive duplicate accepted")
	}
	m := mustMeta(t, []Column{{Name: "X", Kind: glue.Int, Unit: "MB"}})
	if m.ColumnCount() != 1 || m.Column(0).Unit != "MB" {
		t.Errorf("metadata misbuilt: %+v", m.Columns())
	}
	if m.ColumnIndex("x") != 0 || m.ColumnIndex("y") != -1 {
		t.Error("ColumnIndex wrong")
	}
}

func TestMetadataForGroup(t *testing.T) {
	g := glue.MustLookup(glue.GroupProcessor)
	m, err := MetadataForGroup(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.ColumnCount() != len(g.Fields) {
		t.Errorf("all-field metadata has %d cols, want %d", m.ColumnCount(), len(g.Fields))
	}
	if m.Column(0).Group != g.Name {
		t.Errorf("column group = %q", m.Column(0).Group)
	}
	m2, err := MetadataForGroup(g, []string{"loadlast1min", "HostName"})
	if err != nil {
		t.Fatal(err)
	}
	// Canonical names are restored regardless of request case.
	if m2.Column(0).Name != "LoadLast1Min" || m2.Column(1).Name != "HostName" {
		t.Errorf("canonicalisation failed: %v", m2.ColumnNames())
	}
	if _, err := MetadataForGroup(g, []string{"Bogus"}); err == nil {
		t.Error("unknown field accepted")
	}
}

// MetadataForColumns hands out a group's shared Metadata for exactly that
// group's columns and builds a new one for anything else.
func TestMetadataForColumns(t *testing.T) {
	g := glue.MustLookup(glue.GroupProcessor)
	shared, _ := MetadataForGroup(g, nil)
	cols := shared.Columns()
	if m, err := MetadataForColumns(cols); err != nil || m != shared {
		t.Errorf("the group's own columns: got %p, %v; want the shared %p", m, err, shared)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = MetadataForColumns(cols) }); allocs != 0 {
		t.Errorf("finding the shared Metadata allocates %.0f times", allocs)
	}
	for name, change := range map[string]func([]Column) []Column{
		"a projection":  func(c []Column) []Column { return c[:4] },
		"another order": func(c []Column) []Column { c[0], c[1] = c[1], c[0]; return c },
		"another unit":  func(c []Column) []Column { c[3].Unit = "GHz"; return c },
		"another kind":  func(c []Column) []Column { c[3].Kind = glue.Float; return c },
		"another group": func(c []Column) []Column { c[0].Group = "processor"; return c },
		"no group":      func(c []Column) []Column { c[0].Group = ""; return c },
	} {
		changed := change(shared.Columns())
		m, err := MetadataForColumns(changed)
		if err != nil || m == shared || m.ColumnCount() != len(changed) || m.Column(0) != changed[0] {
			t.Errorf("%s: got %v, %v; want its own Metadata", name, m, err)
		}
	}
	if _, err := MetadataForColumns([]Column{{Name: "A"}, {Name: "a"}}); err == nil {
		t.Error("duplicate columns accepted")
	}
	if m, err := MetadataForColumns(nil); err != nil || m.ColumnCount() != 0 {
		t.Errorf("no columns: %v, %v", m, err)
	}
}

// MetadataForColumns hands out a group's shared historical-answer Metadata for
// its columns followed by the provenance columns, and builds nothing to do it.
func TestMetadataForProvenanceColumns(t *testing.T) {
	g := glue.MustLookup(glue.GroupMemory)
	shared, err := MetadataWithProvenance(g)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := MetadataForGroup(g, nil)
	if n := shared.ColumnCount(); n != base.ColumnCount()+2 ||
		shared.Column(n-2).Name != SourceColumn || shared.Column(n-1).Name != SampledColumn {
		t.Fatalf("provenance shape %v", shared.ColumnNames())
	}
	cols := shared.Columns()
	if m, err := MetadataForColumns(cols); err != nil || m != shared {
		t.Errorf("a historical answer's columns: got %p, %v; want the shared %p", m, err, shared)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = MetadataForColumns(cols) }); allocs != 0 {
		t.Errorf("finding the shared historical Metadata allocates %.0f times", allocs)
	}
	if m, _ := MetadataForColumns(cols[:len(cols)-1]); m == shared || m == base {
		t.Error("a list without SampledAt must get its own Metadata")
	}
}

func TestCursorProtocol(t *testing.T) {
	rs := sampleRS(t)
	if _, err := rs.GetString("HostName"); !errors.Is(err, ErrNoRow) {
		t.Errorf("getter before Next: %v", err)
	}
	count := 0
	for rs.Next() {
		count++
		if _, err := rs.GetString("HostName"); err != nil {
			t.Errorf("getter on row %d: %v", count, err)
		}
	}
	if count != 3 {
		t.Errorf("iterated %d rows, want 3", count)
	}
	if rs.Next() {
		t.Error("Next past end returned true")
	}
	if _, err := rs.GetString("HostName"); !errors.Is(err, ErrNoRow) {
		t.Error("getter past end should fail")
	}
	rs.Reset()
	if !rs.Next() {
		t.Error("Next after Reset failed")
	}
}

func TestTypedGettersAndCoercion(t *testing.T) {
	rs := sampleRS(t)
	rs.Next() // alpha, 0.5, 4
	if s, _ := rs.GetString("HostName"); s != "alpha" {
		t.Errorf("GetString = %q", s)
	}
	if f, _ := rs.GetFloat("Load"); f != 0.5 {
		t.Errorf("GetFloat = %v", f)
	}
	if n, _ := rs.GetInt("CPUs"); n != 4 {
		t.Errorf("GetInt = %d", n)
	}
	// Cross-kind coercions.
	if s, _ := rs.GetString("CPUs"); s != "4" {
		t.Errorf("int as string = %q", s)
	}
	if f, _ := rs.GetFloat("CPUs"); f != 4.0 {
		t.Errorf("int as float = %v", f)
	}
	if n, _ := rs.GetInt("Load"); n != 0 {
		t.Errorf("0.5 truncated = %d", n)
	}
	if b, _ := rs.GetBool("CPUs"); !b {
		t.Error("nonzero int as bool should be true")
	}
	if _, err := rs.GetInt("HostName"); err == nil {
		t.Error("parsing 'alpha' as int should fail")
	}
	if _, err := rs.GetString("Missing"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("missing column error = %v", err)
	}
}

func TestWasNull(t *testing.T) {
	rs := sampleRS(t)
	rs.Next()
	rs.Next()
	rs.Next() // gamma, NULL load
	f, err := rs.GetFloat("Load")
	if err != nil || f != 0 {
		t.Errorf("NULL float = %v, %v", f, err)
	}
	if !rs.WasNull() {
		t.Error("WasNull false after reading NULL")
	}
	if _, err := rs.GetString("HostName"); err != nil {
		t.Fatal(err)
	}
	if rs.WasNull() {
		t.Error("WasNull true after reading non-NULL")
	}
}

func TestBuilderValidation(t *testing.T) {
	m := mustMeta(t, []Column{{Name: "N", Kind: glue.Int}})
	if _, err := NewBuilder(m).Append(int64(1), int64(2)).Build(); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := NewBuilder(m).Append("one").Build(); err == nil {
		t.Error("kind mismatch accepted")
	}
	if _, err := NewBuilder(m).Append(nil).Build(); err != nil {
		t.Errorf("NULL rejected: %v", err)
	}
	// First error sticks.
	b := NewBuilder(m).Append("bad").Append(int64(1))
	if _, err := b.Build(); err == nil {
		t.Error("sticky error lost")
	}
}

func TestBuilderCopiesRows(t *testing.T) {
	m := mustMeta(t, []Column{{Name: "N", Kind: glue.Int}})
	row := []any{int64(1)}
	rs, err := NewBuilder(m).Append(row...).Build()
	if err != nil {
		t.Fatal(err)
	}
	row[0] = int64(99)
	rs.Next()
	if n, _ := rs.GetInt("N"); n != 1 {
		t.Error("builder aliased caller's row slice")
	}
}

// where is the gather a query's WHERE makes: rs's rows keep accepts, in
// order.
func where(rs *ResultSet, keep func(r int) bool) *ResultSet {
	sel := []Ref{}
	for r := 0; r < rs.Len(); r++ {
		if keep(r) {
			sel = append(sel, Ref{Row: int32(r)})
		}
	}
	return Gather(rs.Metadata(), []*ResultSet{rs}, sel, nil)
}

// TestProject: a projection gathers the named columns, in the given order,
// sharing the part's arrays.
func TestProject(t *testing.T) {
	rs := sampleRS(t)
	meta, idx, err := rs.Metadata().Project([]string{"CPUs", "HostName"})
	if err != nil {
		t.Fatal(err)
	}
	p := Gather(meta, []*ResultSet{rs}, nil, idx)
	if got := p.Metadata().ColumnNames(); got[0] != "CPUs" || got[1] != "HostName" {
		t.Errorf("projected columns %v", got)
	}
	p.Next()
	if n, _ := p.GetInt("CPUs"); n != 4 {
		t.Errorf("projected value %d", n)
	}
	if _, _, err := rs.Metadata().Project([]string{"Nope"}); err == nil {
		t.Error("projecting unknown column succeeded")
	}
}

// TestFilterAndLimit: a WHERE gathers the rows it keeps, a LIMIT the first
// n, and no selection at all is the whole part.
func TestFilterAndLimit(t *testing.T) {
	rs := sampleRS(t)
	idx := rs.Metadata().ColumnIndex("CPUs")
	f := where(rs, func(r int) bool { return rs.Cell(r, idx).Int >= 4 })
	if f.Len() != 2 {
		t.Errorf("filtered %d rows, want 2", f.Len())
	}
	if l := where(rs, func(r int) bool { return r < 1 }); l.Len() != 1 || l.RowAt(0)[0] != "alpha" {
		t.Errorf("first row -> %d rows", l.Len())
	}
	if l := where(rs, func(int) bool { return false }); l.Len() != 0 {
		t.Errorf("empty selection -> %d rows", l.Len())
	}
	if l := Gather(rs.Metadata(), []*ResultSet{rs}, nil, nil); l.Len() != 3 {
		t.Errorf("whole part -> %d rows", l.Len())
	}
}

func TestSortBy(t *testing.T) {
	rs := sampleRS(t)
	if err := rs.SortBy("Load", false); err != nil {
		t.Fatal(err)
	}
	rs.Next()
	// NULL sorts first ascending.
	if s, _ := rs.GetString("HostName"); s != "gamma" {
		t.Errorf("first asc = %q, want gamma (NULL load)", s)
	}
	if err := rs.SortBy("Load", true); err != nil {
		t.Fatal(err)
	}
	rs.Next()
	if s, _ := rs.GetString("HostName"); s != "beta" {
		t.Errorf("first desc = %q, want beta", s)
	}
	if err := rs.SortBy("Nope", false); err == nil {
		t.Error("sorting unknown column succeeded")
	}
}

func TestMerge(t *testing.T) {
	a := sampleRS(t)
	b := sampleRS(t)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 6 {
		t.Errorf("merged len %d", a.Len())
	}
	other := mustMeta(t, []Column{{Name: "X", Kind: glue.Int}})
	c := New(other)
	if err := a.Merge(c); err == nil {
		t.Error("column-count mismatch merge succeeded")
	}
	d := New(mustMeta(t, []Column{
		{Name: "HostName", Kind: glue.String},
		{Name: "Different", Kind: glue.Float},
		{Name: "CPUs", Kind: glue.Int},
	}))
	if err := a.Merge(d); err == nil {
		t.Error("column-name mismatch merge succeeded")
	}
}

func TestCompareCells(t *testing.T) {
	now := time.Now()
	cases := []struct {
		a, b any
		want int
	}{
		{nil, nil, 0},
		{nil, int64(1), -1},
		{int64(1), nil, 1},
		{int64(1), int64(2), -1},
		{int64(2), 1.5, 1},
		{1.5, int64(2), -1},
		{"a", "b", -1},
		{"b", "a", 1},
		{"a", "a", 0},
		{false, true, -1},
		{true, true, 0},
		{now, now.Add(time.Second), -1},
		{now, now, 0},
	}
	for _, c := range cases {
		if got := compareBoxed(c.a, c.b); sign(got) != c.want {
			t.Errorf("CompareCells(%v,%v) = %d, want sign %d", c.a, c.b, got, c.want)
		}
	}
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

// compareBoxed is CompareCells over the values a driver hands in.
func compareBoxed(a, b any) int { return CompareCells(CellOf(a), CellOf(b)) }

func TestCompareCellsProperties(t *testing.T) {
	// Antisymmetry and reflexivity over int64/float64 pairs; a non-finite
	// float is NULL, which keeps the order strict where NaN itself would not.
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if compareBoxed(x, 2.0) != -1 || compareBoxed(2.0, x) != 1 || compareBoxed(x, int64(2)) != -1 {
			t.Errorf("%v does not sort before every number, as NULL does", x)
		}
		if compareBoxed(x, nil) != 0 || compareBoxed(x, math.NaN()) != 0 {
			t.Errorf("%v is not NULL's equal", x)
		}
	}
	f := func(a, b int64, x, y float64) bool {
		ok := sign(compareBoxed(a, b)) == -sign(compareBoxed(b, a))
		ok = ok && compareBoxed(a, a) == 0
		ok = ok && sign(compareBoxed(x, y)) == -sign(compareBoxed(y, x))
		ok = ok && compareBoxed(float64(a), a) == 0
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGetTime(t *testing.T) {
	ts := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	m := mustMeta(t, []Column{{Name: "T", Kind: glue.Time}, {Name: "S", Kind: glue.String}})
	rs, err := NewBuilder(m).Append(ts, ts.Format(time.RFC3339)).Append(nil, "not a time").Build()
	if err != nil {
		t.Fatal(err)
	}
	rs.Next()
	if got, _ := rs.GetTime("T"); !got.Equal(ts) {
		t.Errorf("GetTime = %v", got)
	}
	if got, _ := rs.GetTime("S"); !got.Equal(ts) {
		t.Errorf("GetTime from string = %v", got)
	}
	rs.Next()
	if got, err := rs.GetTime("T"); err != nil || !got.IsZero() {
		t.Errorf("NULL time = %v, %v", got, err)
	}
	if !rs.WasNull() {
		t.Error("WasNull after NULL time")
	}
	if _, err := rs.GetTime("S"); err == nil {
		t.Error("parsing junk as time succeeded")
	}
}

func TestStringRendering(t *testing.T) {
	rs := sampleRS(t)
	out := rs.String()
	for _, want := range []string{"HostName", "Load", "CPUs", "alpha", "NULL", "1.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 4 { // header + 3 rows
		t.Errorf("String() has %d lines, want 4", lines)
	}
}

// TestLimitDoesNotAliasParent is the backing-array regression: a Merge into
// a limited set used to clobber the parent's next row because the limited
// slice shared the parent's spare capacity.
func TestLimitDoesNotAliasParent(t *testing.T) {
	parent := sampleRS(t)
	limited := where(parent, func(r int) bool { return r < 1 })

	extra, err := NewBuilder(parent.Metadata()).Append("delta", 9.0, int64(1)).Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := limited.Merge(extra); err != nil {
		t.Fatal(err)
	}
	// Parent row 1 must still be beta, not delta.
	if got := parent.RowAt(1)[0]; got != "beta" {
		t.Fatalf("parent row 1 clobbered by Merge into limited child: %v", got)
	}
	if limited.Len() != 2 {
		t.Errorf("limited set has %d rows, want 2", limited.Len())
	}
}

// TestMergeRejectsKindMismatch: same column names with different kinds must
// not silently merge into a mixed-kind column.
func TestMergeRejectsKindMismatch(t *testing.T) {
	a, err := NewBuilder(mustMeta(t, []Column{{Name: "Load", Kind: glue.Float}})).
		Append(0.5).Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(mustMeta(t, []Column{{Name: "Load", Kind: glue.Int}})).
		Append(int64(2)).Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err == nil {
		t.Fatal("kind-mismatched merge accepted")
	} else if !strings.Contains(err.Error(), "kind") {
		t.Errorf("error %q does not mention the kind mismatch", err)
	}
	if a.Len() != 1 {
		t.Errorf("failed merge still appended rows: %d", a.Len())
	}
}

func TestSortedByLeavesInputAlone(t *testing.T) {
	rs := sampleRS(t)
	sorted, err := rs.SortedBy("Load", true)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.RowAt(0)[0]; got != "alpha" {
		t.Fatalf("SortedBy reordered its receiver: row 0 = %v", got)
	}
	if got := sorted.RowAt(0)[0]; got != "beta" {
		t.Errorf("sorted row 0 = %v, want beta (desc: NULL last)", got)
	}
	if _, err := rs.SortedBy("Bogus", false); err == nil {
		t.Error("SortedBy accepted an unknown column")
	}
}

func TestGroupKey(t *testing.T) {
	key := func(row []any, cols []int) string { return string(AppendGroupKey(nil, row, cols)) }
	rows := [][]any{
		{int64(1), "a"},
		{float64(1), "a"}, // same numeric value, different type
		{nil, "a"},
		{int64(1), "ab"},
		{"1", "a"},
		{int64(1), "a"}, // duplicate of the first
	}
	keys := make(map[string]int)
	for i, row := range rows {
		keys[key(row, []int{0, 1})] = i
	}
	if len(keys) != 5 {
		t.Errorf("got %d distinct keys, want 5: %v", len(keys), keys)
	}
	// Boundary confusion: ("ab","c") must differ from ("a","bc").
	if key([]any{"ab", "c"}, []int{0, 1}) == key([]any{"a", "bc"}, []int{0, 1}) {
		t.Error("string boundaries not preserved in group keys")
	}
}

func TestGrowKeepsRowsAndReservesRoom(t *testing.T) {
	rs := sampleRS(t)
	before := rs.String()
	rs.Grow(100)
	if rs.String() != before {
		t.Error("Grow changed the rows")
	}
	other := sampleRS(t)
	if allocs := testing.AllocsPerRun(1, func() { _ = rs.Merge(other) }); allocs != 0 {
		t.Errorf("Merge into reserved room allocated %.0f times", allocs)
	}
}

// TestBuilderReset: a reset Builder builds the next set in the last one's
// arrays — no allocation once they have the room — and nothing of the last
// set shows through: not its rows, not a value under a NULL, not a column
// the next set leaves empty.
func TestBuilderReset(t *testing.T) {
	m := mustMeta(t, []Column{
		{Name: "HostName", Kind: glue.String},
		{Name: "Load", Kind: glue.Float},
		{Name: "CPUs", Kind: glue.Int},
	})
	b := NewBuilder(m)
	fill := func(rows ...[]any) *ResultSet {
		b.Reset()
		for _, row := range rows {
			for c, v := range row {
				b.Put(0, c, CellOf(v))
			}
			b.Rows(1)
		}
		rs, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	fill([]any{"alpha", 0.5, int64(4)}, []any{"beta", 1.5, int64(8)}, []any{"gamma", 2.5, int64(2)})
	rs := fill([]any{"delta", nil, nil}, []any{nil, nil, nil}, []any{"zeta", 3.5, nil})
	want := [][]any{{"delta", nil, nil}, {nil, nil, nil}, {"zeta", 3.5, nil}}
	if rs.Len() != len(want) {
		t.Fatalf("%d rows after Reset, want %d", rs.Len(), len(want))
	}
	for r, row := range want {
		for c, v := range row {
			if got := rs.Cell(r, c).Value(); got != v {
				t.Errorf("row %d column %d = %v, want %v", r, c, got, v)
			}
		}
	}
	if got := rs.Column(1).Nums[1]; got != 0 {
		t.Errorf("the placeholder under a NULL holds %d of the last set", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { fill(want...) }); allocs != 0 {
		t.Errorf("rebuilding in the kept arrays allocated %.0f times", allocs)
	}
}

// Column lookups by the declared spelling, NewMetadata and the all-fields
// group metadata are on every query's path; none of them folds a name.
func TestNameLookupsDoNotAllocate(t *testing.T) {
	g := glue.MustLookup(glue.GroupProcessor)
	m, err := MetadataForGroup(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if m.ColumnIndex("LoadLast1Min") != 6 || m.ColumnIndex("Bogus") != -1 {
			t.Fatal("ColumnIndex wrong")
		}
		if again, _ := MetadataForGroup(g, nil); again != m {
			t.Fatal("all-fields group metadata rebuilt")
		}
	})
	if allocs != 0 {
		t.Errorf("lookups allocate %.0f times", allocs)
	}
	if m.ColumnIndex("LOADLAST1MIN") != 6 || m.ColumnIndex("loadlast1min") != 6 {
		t.Error("folded ColumnIndex lost")
	}
	cols := m.Columns()
	// NewMetadata: the Metadata, its column copy and its index's buckets;
	// nothing per name (folding each of ten names made it 16).
	if allocs := testing.AllocsPerRun(100, func() { _, _ = NewMetadata(cols) }); allocs > 6 {
		t.Errorf("NewMetadata of %d columns allocates %.0f times", len(cols), allocs)
	}
	if _, err := NewMetadata([]Column{{Name: "HostName"}, {Name: "Load"}, {Name: "HOSTNAME"}}); err == nil {
		t.Error("case-insensitive duplicate accepted")
	}
}

// TestColumnNamesSharedOnce: ColumnNames is made once a Metadata and handed
// to every caller, however many ask at once (the push path asks once a
// publish, from concurrent harvests).
func TestColumnNamesSharedOnce(t *testing.T) {
	meta, err := NewMetadata([]Column{{Name: "HostName", Kind: glue.String}, {Name: "Load", Kind: glue.Float}})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []string, 8)
	for i := 0; i < cap(got); i++ {
		go func() { got <- meta.ColumnNames() }()
	}
	for i := 0; i < cap(got); i++ {
		if names := <-got; strings.Join(names, ",") != "HostName,Load" {
			t.Fatalf("ColumnNames = %v", names)
		}
	}
	first := meta.ColumnNames()
	if n := testing.AllocsPerRun(10, func() { _ = meta.ColumnNames() }); n != 0 || &first[0] != &meta.ColumnNames()[0] {
		t.Fatalf("ColumnNames allocates %.0f a call, or hands out a fresh slice", n)
	}
}
