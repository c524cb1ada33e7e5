package sqlparse

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

func TestParseAggregates(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical form
	}{
		{"SELECT count(*) FROM Processor", "SELECT count(*) FROM Processor"},
		{"SELECT COUNT(*) FROM Processor", "SELECT count(*) FROM Processor"},
		{"select avg(LoadLast1Min) from Processor", "SELECT avg(LoadLast1Min) FROM Processor"},
		{
			"SELECT HostName, avg(LoadLast1Min) FROM Processor GROUP BY HostName",
			"SELECT HostName, avg(LoadLast1Min) FROM Processor GROUP BY HostName",
		},
		{
			"SELECT Model, min(ClockSpeed), max(ClockSpeed), sum(CPUCount) FROM Processor WHERE Vendor = 'acme' GROUP BY Model",
			"SELECT Model, min(ClockSpeed), max(ClockSpeed), sum(CPUCount) FROM Processor WHERE Vendor = 'acme' GROUP BY Model",
		},
		{
			"SELECT Model, count(HostName) FROM Processor GROUP BY Model ORDER BY count(HostName) DESC LIMIT 3",
			"SELECT Model, count(HostName) FROM Processor GROUP BY Model ORDER BY count(HostName) DESC LIMIT 3",
		},
		// Aggregate names are contextual keywords: a column called count
		// still works.
		{"SELECT count FROM t", "SELECT count FROM t"},
		{"SELECT a, b FROM t GROUP BY a, b", "SELECT a, b FROM t GROUP BY a, b"},
	}
	for _, c := range cases {
		q, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := q.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// Canonical form must re-parse to itself.
		q2, err := Parse(q.String())
		if err != nil {
			t.Errorf("canonical %q does not re-parse: %v", q.String(), err)
		} else if q2.String() != q.String() {
			t.Errorf("unstable canonicalisation: %q -> %q", q.String(), q2.String())
		}
	}
}

func TestParseAggregateErrors(t *testing.T) {
	cases := []string{
		"SELECT avg(*) FROM t",                               // * only inside count
		"SELECT sum(*) FROM t",                               //
		"SELECT * FROM t GROUP BY a",                         // star with GROUP BY
		"SELECT a, count(*) FROM t",                          // bare column not grouped
		"SELECT a FROM t GROUP BY b",                         // selected column not in GROUP BY
		"SELECT count(*), count(*) FROM t",                   // duplicate output name
		"SELECT count( FROM t",                               // unclosed call
		"SELECT count(a FROM t",                              //
		"SELECT a FROM t ORDER BY count(*)",                  // aggregate ORDER BY on plain query
		"SELECT count(*) FROM t ORDER BY sum(a)",             // ORDER BY not in select list
		"SELECT a, sum(b) FROM t GROUP BY a ORDER BY avg(b)", //
		"SELECT count(*) FROM t GROUP BY",                    // missing group columns
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) accepted, want error", sql)
		}
	}
}

func TestParseIntOverflowRejected(t *testing.T) {
	// Regression: integers overflowing int64 used to silently demote to
	// float64, losing precision for large-ID comparisons.
	_, err := Parse("SELECT * FROM t WHERE id = 99999999999999999999999")
	if err == nil {
		t.Fatal("overflowing integer literal accepted")
	}
	if !strings.Contains(err.Error(), "overflows") {
		t.Errorf("error %q does not mention overflow", err)
	}
	// In-range integers and genuine floats still parse.
	q, err := Parse("SELECT * FROM t WHERE id = 9223372036854775807 AND x = 1e30")
	if err != nil {
		t.Fatalf("valid literals rejected: %v", err)
	}
	_ = q
}

// buildLoad builds a Processor-shaped set with a NULL load on one host.
func buildLoad(t *testing.T) *resultset.ResultSet {
	t.Helper()
	g := glue.MustLookup(glue.GroupProcessor)
	meta, err := resultset.MetadataForGroup(g, []string{"HostName", "Model", "CPUCount", "LoadLast1Min"})
	if err != nil {
		t.Fatal(err)
	}
	b := resultset.NewBuilder(meta)
	b.Append("n1", "alpha", int64(4), 1.0)
	b.Append("n2", "alpha", int64(8), 3.0)
	b.Append("n3", "beta", int64(2), nil) // NULL load: skipped by aggregates
	b.Append("n4", "beta", int64(2), 6.0)
	b.Append("n5", nil, int64(16), 2.0) // NULL group key forms its own group
	rs, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestAggregateGroupBy(t *testing.T) {
	rs := buildLoad(t)
	q := mustParse(t, "SELECT Model, count(*), count(LoadLast1Min), avg(LoadLast1Min), min(LoadLast1Min), max(LoadLast1Min), sum(CPUCount) FROM Processor GROUP BY Model")
	out, err := ApplyToResultSet(q, rs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("got %d groups, want 3", out.Len())
	}
	type row struct {
		stars, loads, cpus int64
		avg, min, max      float64
	}
	got := map[string]row{}
	for out.Next() {
		model, _ := out.GetString("Model")
		if out.WasNull() {
			model = "<null>"
		}
		stars, _ := out.GetInt("count(*)")
		loads, _ := out.GetInt("count(LoadLast1Min)")
		avg, _ := out.GetFloat("avg(LoadLast1Min)")
		min, _ := out.GetFloat("min(LoadLast1Min)")
		max, _ := out.GetFloat("max(LoadLast1Min)")
		cpus, _ := out.GetInt("sum(CPUCount)")
		got[model] = row{stars, loads, cpus, avg, min, max}
	}
	want := map[string]row{
		"alpha":  {2, 2, 12, 2.0, 1.0, 3.0},
		"beta":   {2, 1, 4, 6.0, 6.0, 6.0}, // NULL load skipped everywhere but count(*)
		"<null>": {1, 1, 16, 2.0, 2.0, 2.0},
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("missing group %q (got %v)", k, got)
			continue
		}
		if g != w {
			t.Errorf("group %q = %+v, want %+v", k, g, w)
		}
	}
}

func TestAggregateGlobalAndZeroRows(t *testing.T) {
	rs := buildLoad(t)
	q := mustParse(t, "SELECT count(*), avg(LoadLast1Min), sum(CPUCount) FROM Processor WHERE CPUCount > 100")
	out, err := ApplyToResultSet(q, rs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("global aggregate over zero rows: got %d rows, want 1", out.Len())
	}
	out.Next()
	if n, _ := out.GetInt("count(*)"); n != 0 {
		t.Errorf("count(*) = %d, want 0", n)
	}
	out.GetFloat("avg(LoadLast1Min)")
	if !out.WasNull() {
		t.Error("avg over zero rows should be NULL")
	}
	out.GetInt("sum(CPUCount)")
	if !out.WasNull() {
		t.Error("sum over zero rows should be NULL")
	}
}

func TestAggregateKindValidation(t *testing.T) {
	rs := buildLoad(t)
	for _, sql := range []string{
		"SELECT sum(Model) FROM Processor",
		"SELECT avg(HostName) FROM Processor",
	} {
		q := mustParse(t, sql)
		if _, err := ApplyToResultSet(q, rs); err == nil {
			t.Errorf("%s accepted over a string column", sql)
		}
	}
	// min/max are fine on strings (lexicographic).
	q := mustParse(t, "SELECT min(HostName), max(HostName) FROM Processor")
	out, err := ApplyToResultSet(q, rs)
	if err != nil {
		t.Fatal(err)
	}
	out.Next()
	if s, _ := out.GetString("min(HostName)"); s != "n1" {
		t.Errorf("min(HostName) = %q", s)
	}
	if s, _ := out.GetString("max(HostName)"); s != "n5" {
		t.Errorf("max(HostName) = %q", s)
	}
}

func TestAggregateOrderByLimit(t *testing.T) {
	rs := buildLoad(t)
	q := mustParse(t, "SELECT Model, sum(CPUCount) FROM Processor GROUP BY Model ORDER BY sum(CPUCount) DESC LIMIT 1")
	out, err := ApplyToResultSet(q, rs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("got %d rows", out.Len())
	}
	out.Next()
	if n, _ := out.GetInt("sum(CPUCount)"); n != 16 {
		t.Errorf("top sum = %d, want 16", n)
	}
}

func TestPartialQueryRewrite(t *testing.T) {
	q := mustParse(t, "SELECT Model, avg(LoadLast1Min), count(*) FROM Processor GROUP BY Model ORDER BY avg(LoadLast1Min) LIMIT 2")
	pq := q.PartialQuery()
	want := "SELECT Model, sum(LoadLast1Min), count(LoadLast1Min), count(*) FROM Processor GROUP BY Model"
	if got := pq.String(); got != want {
		t.Errorf("partial = %q, want %q", got, want)
	}
	// avg + sum over the same column must not produce duplicate items.
	q = mustParse(t, "SELECT avg(CPUCount), sum(CPUCount) FROM Processor")
	pq = q.PartialQuery()
	if got := pq.String(); got != "SELECT sum(CPUCount), count(CPUCount) FROM Processor" {
		t.Errorf("partial = %q", got)
	}
}

// TestFinalizeAggregateEquivalence is the avg-merge contract: splitting the
// rows over "sites", aggregating each part with the partial query, and
// finalizing the partials — merged into one set, or read where they are —
// must equal aggregating all rows directly.
func TestFinalizeAggregateEquivalence(t *testing.T) {
	// Three "sites": one gets a single row, one gets none for some groups.
	rs, parts := splitLoad(t)
	q := mustParse(t, "SELECT Model, count(*), avg(LoadLast1Min), min(LoadLast1Min), max(LoadLast1Min), sum(CPUCount) FROM Processor GROUP BY Model")

	direct, err := ApplyToResultSet(q, rs)
	if err != nil {
		t.Fatal(err)
	}

	pq := q.PartialQuery()
	var merged *resultset.ResultSet
	partials := make([]*resultset.ResultSet, len(parts))
	for i, part := range parts {
		if partials[i], err = ApplyToResultSet(pq, part); err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = resultset.New(partials[i].Metadata())
		}
		if err := merged.Merge(partials[i]); err != nil {
			t.Fatal(err)
		}
	}
	final, err := FinalizeAggregate(q, merged)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rowsByGroup(t, final, "Model"), rowsByGroup(t, direct, "Model"); !equalGroupRows(got, want) {
		t.Errorf("finalized partials != direct aggregate:\n  got  %v\n  want %v", got, want)
	}
	overParts, err := FinalizeParts(q, merged.Metadata(), partials)
	if err != nil {
		t.Fatal(err)
	}
	if rendered(overParts) != rendered(final) {
		t.Errorf("finalized over the partials as parts:\n%s\nmerged first:\n%s", rendered(overParts), rendered(final))
	}
}

// rowsByGroup indexes a grouped aggregate result by its group column value.
func rowsByGroup(t *testing.T, rs *resultset.ResultSet, groupCol string) map[string][]any {
	t.Helper()
	gi := rs.Metadata().ColumnIndex(groupCol)
	if gi < 0 {
		t.Fatalf("no %s column", groupCol)
	}
	out := make(map[string][]any, rs.Len())
	for i := 0; i < rs.Len(); i++ {
		row := rs.RowAt(i)
		out[fmt.Sprint(row[gi])] = row
	}
	return out
}

func equalGroupRows(a, b map[string][]any) bool {
	if len(a) != len(b) {
		return false
	}
	for k, ra := range a {
		rb, ok := b[k]
		if !ok || len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			fa, aok := ra[i].(float64)
			fb, bok := rb[i].(float64)
			if aok && bok {
				if math.Abs(fa-fb) > 1e-9 {
					return false
				}
				continue
			}
			if resultset.CompareCells(resultset.CellOf(ra[i]), resultset.CellOf(rb[i])) != 0 {
				return false
			}
		}
	}
	return true
}

// TestApplyToResultSetDoesNotMutateInput is the copy-on-write regression:
// ORDER BY with no WHERE used to sort the caller's shared rows in place.
func TestApplyToResultSetDoesNotMutateInput(t *testing.T) {
	rs := buildLoad(t)
	before := make([]string, rs.Len())
	for i := 0; i < rs.Len(); i++ {
		before[i] = fmt.Sprint(rs.RowAt(i)[0])
	}
	q := mustParse(t, "SELECT * FROM Processor ORDER BY LoadLast1Min DESC")
	out, err := ApplyToResultSet(q, rs)
	if err != nil {
		t.Fatal(err)
	}
	if out == rs {
		t.Fatal("ApplyToResultSet returned its input for an ORDER BY query")
	}
	for i := 0; i < rs.Len(); i++ {
		if got := fmt.Sprint(rs.RowAt(i)[0]); got != before[i] {
			t.Fatalf("input row %d reordered: %q -> %q", i, before[i], got)
		}
	}
}

// TestApplyToResultSetConcurrentOrderBy runs concurrent ORDER BY queries in
// both directions against one shared snapshot; under -race the old in-place
// sort reports a data race, and either way the final row order must be the
// original one.
func TestApplyToResultSetConcurrentOrderBy(t *testing.T) {
	rs := buildLoad(t)
	before := make([]string, rs.Len())
	for i := 0; i < rs.Len(); i++ {
		before[i] = fmt.Sprint(rs.RowAt(i)[0])
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		desc := i%2 == 0
		wg.Add(1)
		go func(desc bool) {
			defer wg.Done()
			sql := "SELECT HostName FROM Processor ORDER BY HostName"
			if desc {
				sql += " DESC"
			}
			q, err := Parse(sql)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 50; j++ {
				if _, err := ApplyToResultSet(q, rs); err != nil {
					t.Error(err)
					return
				}
			}
		}(desc)
	}
	wg.Wait()
	for i := 0; i < rs.Len(); i++ {
		if got := fmt.Sprint(rs.RowAt(i)[0]); got != before[i] {
			t.Fatalf("shared snapshot row %d reordered: %q -> %q", i, before[i], got)
		}
	}
}

func TestPlanCache(t *testing.T) {
	c := NewPlanCache(2)
	q1, err := c.Parse("SELECT * FROM Processor")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := c.Parse("SELECT * FROM Processor")
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Error("repeated parse did not return the cached plan")
	}
	if _, err := c.Parse("SELECT * FROM Memory"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Parse("SELECT * FROM Disk"); err != nil {
		t.Fatal(err) // evicts the LRU entry (Processor was touched last)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want hits=1 misses=3 evictions=1 entries=2", st)
	}
	// Errors are not cached.
	if _, err := c.Parse("SELECT FROM"); err == nil {
		t.Fatal("bad SQL accepted")
	}
	if got := c.Stats().Entries; got != 2 {
		t.Errorf("error cached: entries = %d", got)
	}
	// Disabled and nil caches degrade to plain Parse.
	var nilCache *PlanCache
	if _, err := nilCache.Parse("SELECT * FROM t"); err != nil {
		t.Errorf("nil cache: %v", err)
	}
	if _, err := NewPlanCache(0).Parse("SELECT * FROM t"); err != nil {
		t.Errorf("zero-cap cache: %v", err)
	}
}

// TestPlanCacheSizedByUse: a gateway's 512-plan cache holding the three
// texts its clients send retains a few KB, not the map slots of all 512
// (27 KB); filled, it evicts the least recently used plan as before.
func TestPlanCacheSizedByUse(t *testing.T) {
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	texts := []string{"SELECT * FROM Processor", "SELECT HostName FROM Memory WHERE RAMSize > 4", "SELECT * FROM Disk"}
	for _, sql := range texts { // the parser's first-use state
		if _, err := Parse(sql); err != nil {
			t.Fatal(err)
		}
	}
	before := heap()
	c := NewPlanCache(512)
	for _, sql := range texts {
		if _, err := c.Plan(sql); err != nil {
			t.Fatal(err)
		}
	}
	grew := heap() - before
	t.Logf("a 512-plan cache holding %d plans retains %d bytes", len(texts), grew)
	if grew > 8<<10 {
		t.Errorf("a 512-plan cache holding %d plans retains %d bytes, want ≤ 8 KB", len(texts), grew)
	}

	text := func(i int) string { return fmt.Sprintf("SELECT * FROM t%d", i) }
	for i := 0; i < 512; i++ {
		if _, err := c.Plan(text(i)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := c.Plan(text(0)) // touched: t1 is now the least recently used
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Plan("SELECT * FROM past_the_cap"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 512 || st.Evictions != uint64(len(texts))+1 {
		t.Errorf("stats = %+v, want 512 entries and %d evictions", st, len(texts)+1)
	}
	if again, _ := c.Plan(text(0)); again != first {
		t.Error("the most recently used plan was evicted")
	}
	misses := c.Stats().Misses
	if _, err := c.Plan(text(1)); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Misses != misses+1 {
		t.Error("the least recently used plan was kept past the cap")
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	c := NewPlanCache(4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				sql := fmt.Sprintf("SELECT * FROM t%d", (i+j)%6)
				if _, err := c.Parse(sql); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*200)
	}
	if st.Entries > 4 {
		t.Errorf("entries = %d exceeds capacity", st.Entries)
	}
}

// TestPlanCacheHarvestTextIsFree: what a driver shell pays to resolve the
// canonical harvest text through the plan cache it owns is a map hit, and the
// cached Query is shared: two harvests apply it to their own rows at once
// (-race holds the immutable-plan contract).
func TestPlanCacheHarvestTextIsFree(t *testing.T) {
	const harvest = "SELECT * FROM Processor"
	c := NewPlanCache(DriverPlans)
	q, err := c.Parse(harvest)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if again, err := c.Parse(harvest); err != nil || again != q {
			t.Fatalf("hit returned %p, %v; want %p", again, err, q)
		}
	}); got != 0 {
		t.Errorf("a plan-cache hit on the harvest text allocates %.0f times, want 0", got)
	}

	meta, err := resultset.MetadataForGroup(glue.MustLookup(glue.GroupProcessor), nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				shared, err := c.Parse(harvest)
				if err != nil {
					t.Error(err)
					return
				}
				b := resultset.NewBuilder(meta)
				b.Put(0, 0, resultset.Cell{Kind: glue.String, Str: fmt.Sprintf("h%d-%d", i, j)})
				b.Rows(1)
				full, _ := b.Build()
				out, err := ApplyToResultSet(shared, full)
				if err != nil || out.Len() != 1 || out.Metadata().ColumnCount() != meta.ColumnCount() {
					t.Errorf("apply: %v, %+v", err, out)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestGroupByAllocatesPerGroupNotPerRow: a group's key string is made when
// the group is first seen, so a thousand rows in four groups cost no more
// allocations than four rows in four groups — for the local aggregate and
// for the partial merge alike.
func TestGroupByAllocatesPerGroupNotPerRow(t *testing.T) {
	g := glue.MustLookup(glue.GroupProcessor)
	meta, err := resultset.MetadataForGroup(g, []string{"HostName", "Model", "CPUCount", "LoadLast1Min"})
	if err != nil {
		t.Fatal(err)
	}
	build := func(rows int) *resultset.ResultSet {
		b := resultset.NewBuilder(meta)
		for i := 0; i < rows; i++ {
			b.Append(fmt.Sprint("n", i), fmt.Sprint("model-", i%4), int64(2+i%4), 1.5)
		}
		rs, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	q := mustParse(t, "SELECT Model, CPUCount, count(*), sum(LoadLast1Min), max(LoadLast1Min) FROM Processor GROUP BY Model, CPUCount")
	small, large := build(4), build(1000)
	apply := func(rs *resultset.ResultSet) float64 {
		return testing.AllocsPerRun(20, func() {
			if out, err := ApplyToResultSet(q, rs); err != nil || out.Len() != 4 {
				t.Fatalf("aggregate: %d groups, err %v", out.Len(), err)
			}
		})
	}
	if few, many := apply(small), apply(large); many > few {
		t.Errorf("GROUP BY over 1,000 rows = %v allocs, over 4 rows = %v: rows must not allocate", many, few)
	}
	pq := q.PartialQuery()
	partial := func(rs *resultset.ResultSet) *resultset.ResultSet {
		out := resultset.New(nil)
		for site := 0; site < rs.Len()/4; site++ { // every "site" reports the same four groups
			p, err := ApplyToResultSet(pq, small)
			if err != nil {
				t.Fatal(err)
			}
			if site == 0 {
				out = resultset.New(p.Metadata())
			}
			if err := out.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	finalize := func(rs *resultset.ResultSet) float64 {
		return testing.AllocsPerRun(20, func() {
			if out, err := FinalizeAggregate(q, rs); err != nil || out.Len() != 4 {
				t.Fatalf("finalize: %d groups, err %v", out.Len(), err)
			}
		})
	}
	if few, many := finalize(partial(small)), finalize(partial(large)); many > few {
		t.Errorf("FinalizeAggregate over 1,000 partial rows = %v allocs, over 4 = %v: rows must not allocate", many, few)
	}
}
