package sqlparse

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"gridrm/internal/resultset"
)

// splitLoad splits buildLoad's rows over three parts: one row, two rows and
// the rest, so every query below sees a part boundary.
func splitLoad(t *testing.T) (*resultset.ResultSet, []*resultset.ResultSet) {
	rs := buildLoad(t)
	part := func(keep func(host string) bool) *resultset.ResultSet {
		sel := []resultset.Ref{}
		for r := 0; r < rs.Len(); r++ {
			if keep(rs.Cell(r, 0).Str) {
				sel = append(sel, resultset.Ref{Row: int32(r)})
			}
		}
		return resultset.Gather(rs.Metadata(), []*resultset.ResultSet{rs}, sel, nil)
	}
	return rs, []*resultset.ResultSet{
		part(func(h string) bool { return h == "n1" }),
		part(func(h string) bool { return h == "n2" || h == "n3" }),
		part(func(h string) bool { return h > "n3" }),
	}
}

func rendered(rs *resultset.ResultSet) string {
	return fmt.Sprint(rs.Metadata().ColumnNames(), "\n", rs.String())
}

// TestApplyToPartsEqualsOneSet: a query over parts answers what it answers
// over the one set their rows make, in the same order, for every stage.
func TestApplyToPartsEqualsOneSet(t *testing.T) {
	rs, parts := splitLoad(t)
	for _, sql := range []string{
		"SELECT * FROM Processor",
		"SELECT HostName FROM Processor",
		"SELECT * FROM Processor WHERE LoadLast1Min > 1.5",
		"SELECT * FROM Processor WHERE LoadLast1Min > 100",
		"SELECT Model, HostName FROM Processor WHERE Model IS NOT NULL ORDER BY LoadLast1Min DESC LIMIT 3",
		"SELECT HostName FROM Processor ORDER BY Model",
		"SELECT HostName FROM Processor LIMIT 2",
		"SELECT Model, count(*), avg(LoadLast1Min), sum(CPUCount) FROM Processor GROUP BY Model ORDER BY count(*) DESC LIMIT 2",
		"SELECT count(*), min(HostName), max(LoadLast1Min) FROM Processor WHERE CPUCount > 100",
	} {
		q := mustParse(t, sql)
		want, err := ApplyToResultSet(q, rs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ApplyToParts(q, rs.Metadata(), parts)
		if err != nil {
			t.Fatal(err)
		}
		if rendered(got) != rendered(want) {
			t.Errorf("%s over parts:\n%s\nover one set:\n%s", sql, rendered(got), rendered(want))
		}
		if got.Source != "" || !got.Fetched.IsZero() {
			t.Errorf("%s: an answer over parts carries provenance %q %v", sql, got.Source, got.Fetched)
		}
	}
}

// TestApplyToPartsCopiesOnce: an answer that is one whole part shares its
// arrays; several whole parts are copied once, and no part is written.
func TestApplyToPartsCopiesOnce(t *testing.T) {
	rs, parts := splitLoad(t)
	star := mustParse(t, "SELECT * FROM Processor")
	c := rs.Metadata().ColumnIndex("HostName")
	one, err := ApplyToParts(star, rs.Metadata(), parts[1:2])
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(one.Column(c).Strs) != unsafe.SliceData(parts[1].Column(c).Strs) {
		t.Error("an answer that is one whole part copied its arrays")
	}
	before := rendered(parts[1])
	all, err := ApplyToParts(star, rs.Metadata(), parts)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != rs.Len() || unsafe.SliceData(all.Column(c).Strs) == unsafe.SliceData(parts[0].Column(c).Strs) {
		t.Errorf("three parts: %d rows, want %d in arrays of the answer's own", all.Len(), rs.Len())
	}
	// Both answers are written to; the part they came from is not.
	if err := one.Merge(all); err != nil {
		t.Fatal(err)
	}
	if err := all.SortBy("HostName", true); err != nil {
		t.Fatal(err)
	}
	if rendered(parts[1]) != before {
		t.Error("writing to an answer wrote to its part")
	}
	if _, err := ApplyToParts(star, rs.Metadata(), []*resultset.ResultSet{buildHosts(t)}); err == nil {
		t.Error("a part of another shape was evaluated")
	}
}

// TestPlanSiteSQL: the per-site sub-query of a plain query keeps its WHERE
// and projection, drops ORDER BY and LIMIT, and carries the ORDER BY column
// when the projection lacks it; the entry consolidates with the query minus
// its WHERE.
func TestPlanSiteSQL(t *testing.T) {
	for _, c := range []struct{ sql, site, consolidate string }{
		{"SELECT HostName FROM Processor WHERE Model = 'a' ORDER BY LoadLast1Min DESC LIMIT 2",
			"SELECT HostName, LoadLast1Min FROM Processor WHERE Model = 'a'",
			"SELECT HostName FROM Processor ORDER BY LoadLast1Min DESC LIMIT 2"},
		{"SELECT hostname, loadlast1min FROM Processor ORDER BY LoadLast1Min",
			"SELECT hostname, loadlast1min FROM Processor",
			"SELECT hostname, loadlast1min FROM Processor ORDER BY LoadLast1Min"},
		{"SELECT * FROM Processor ORDER BY Model LIMIT 1", "SELECT * FROM Processor", "SELECT * FROM Processor ORDER BY Model LIMIT 1"},
		{"SELECT Model, avg(LoadLast1Min) FROM Processor WHERE CPUCount > 2 GROUP BY Model ORDER BY Model",
			"SELECT Model, sum(LoadLast1Min), count(LoadLast1Min) FROM Processor WHERE CPUCount > 2 GROUP BY Model",
			"SELECT Model, avg(LoadLast1Min) FROM Processor WHERE CPUCount > 2 GROUP BY Model ORDER BY Model"},
	} {
		p, err := NewPlanCache(0).Plan(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if p.SiteSQL != c.site || p.Consolidate.String() != c.consolidate {
			t.Errorf("%s:\n site %s, want %s\n consolidate %s, want %s", c.sql, p.SiteSQL, c.site, p.Consolidate, c.consolidate)
		}
	}
}

// TestApplyToPartsExpandsConcatenations: a part that is itself a whole-part
// concatenation — the entry's own site among the legs of an all-sites
// answer — is read as the parts it holds. A WHERE over it answers as over
// those parts, copies each kept cell once and never flattens the leg: it
// costs what the same WHERE over the parts costs, give or take the slice
// the parts are listed in, where flattening the leg would copy every one of
// its 2,000 rows.
func TestApplyToPartsExpandsConcatenations(t *testing.T) {
	meta := buildLoad(t).Metadata()
	site := func(name string, hosts int) *resultset.ResultSet {
		b := resultset.NewBuilder(meta)
		for h := 0; h < hosts; h++ {
			b.Append(fmt.Sprint(name, "-", h), "alpha", int64(4), float64(h%100))
		}
		rs, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, b, c := site("a", 1000), site("b", 1000), site("c", 10)
	star := mustParse(t, "SELECT * FROM Processor")
	leg := func() *resultset.ResultSet {
		rs, err := ApplyToParts(star, meta, []*resultset.ResultSet{a, b})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	if n := len(resultset.Expand([]*resultset.ResultSet{leg()})); n != 2 {
		t.Fatalf("the own-site leg holds %d parts, want 2", n)
	}
	q := mustParse(t, "SELECT HostName, LoadLast1Min FROM Processor WHERE LoadLast1Min > 98")
	over := func(parts ...*resultset.ResultSet) *resultset.ResultSet {
		rs, err := ApplyToParts(q, meta, parts)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	want, got := over(a, b, c), over(leg(), c)
	if rendered(got) != rendered(want) || got.Len() != 20 {
		t.Fatalf("over the leg:\n%s\nover its parts:\n%s", rendered(got), rendered(want))
	}
	bytes := func(f func()) uint64 {
		var before, after runtime.MemStats
		f()
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 20
	}
	viaLeg := bytes(func() { over(leg(), c) })
	viaParts := bytes(func() { leg(); over(a, b, c) })
	if viaLeg > viaParts+1024 {
		t.Fatalf("a WHERE over the own-site leg allocated %d bytes, over its parts %d: the leg was copied", viaLeg, viaParts)
	}
}

// TestAggregatePlanIsKeptPerShape: a plan-cache entry's Query builds its
// aggregate plan once per input shape, so its answers — a site's partial
// ones, and the entry's over them — share one Metadata and answer as a plan
// built afresh does; a copy of the Query builds its own.
func TestAggregatePlanIsKeptPerShape(t *testing.T) {
	rs, parts := splitLoad(t)
	c := NewPlanCache(8)
	plan, err := c.Plan("SELECT Model, count(*), avg(LoadLast1Min) FROM Processor GROUP BY Model ORDER BY Model")
	if err != nil {
		t.Fatal(err)
	}
	site, err := c.Plan(plan.SiteSQL)
	if err != nil {
		t.Fatal(err)
	}
	var partials []*resultset.ResultSet
	for _, p := range parts {
		partial, err := ApplyToParts(site.Query, rs.Metadata(), []*resultset.ResultSet{p})
		if err != nil {
			t.Fatal(err)
		}
		if len(partials) > 0 && partial.Metadata() != partials[0].Metadata() {
			t.Fatal("a site's partial answers of one shape do not share their Metadata")
		}
		partials = append(partials, partial)
	}
	first, err := FinalizeParts(plan.Query, partials[0].Metadata(), partials)
	if err != nil {
		t.Fatal(err)
	}
	again, err := FinalizeParts(plan.Query, partials[0].Metadata(), partials)
	if err != nil {
		t.Fatal(err)
	}
	if again.Metadata() != first.Metadata() {
		t.Error("the entry's second answer built its plan again")
	}
	copied := *plan.Query
	fresh, err := FinalizeParts(&copied, partials[0].Metadata(), partials)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Metadata() == first.Metadata() {
		t.Error("a copy of the Query used the plan its original kept")
	}
	if rendered(fresh) != rendered(first) {
		t.Errorf("kept plan answers\n%s\nfresh plan answers\n%s", rendered(first), rendered(fresh))
	}
}
