package gridrm_test

import (
	"fmt"
	"testing"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/sqlparse"
)

// buildSiteRows builds one "site"'s raw Processor snapshot: rows hosts,
// spread over groups distinct models.
func buildSiteRows(b *testing.B, site, rows, groups int) *resultset.ResultSet {
	b.Helper()
	g := glue.MustLookup(glue.GroupProcessor)
	meta, err := resultset.MetadataForGroup(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	rb := resultset.NewBuilder(meta)
	for i := 0; i < rows; i++ {
		row := make([]any, len(g.Fields))
		row[g.FieldIndex("HostName")] = fmt.Sprintf("s%02d-n%04d", site, i)
		row[g.FieldIndex("Model")] = fmt.Sprintf("model-%d", i%groups)
		row[g.FieldIndex("CPUCount")] = int64(4)
		row[g.FieldIndex("LoadLast1Min")] = float64(i%16) / 2
		rb.Append(row...)
	}
	rs, err := rb.Build()
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// BenchmarkApplyToResultSetAggregate measures aggregate query shapes on a
// single snapshot — the driver-boundary cost of GROUP BY.
func BenchmarkApplyToResultSetAggregate(b *testing.B) {
	rs := buildSiteRows(b, 0, 64, 8)
	for _, bc := range []struct{ name, sql string }{
		{"global-count", "SELECT count(*) FROM Processor"},
		{"global-avg", "SELECT avg(LoadLast1Min) FROM Processor"},
		{"group-by-avg", "SELECT Model, avg(LoadLast1Min) FROM Processor GROUP BY Model"},
		{"group-by-multi", "SELECT Model, count(*), min(LoadLast1Min), max(LoadLast1Min), sum(CPUCount) FROM Processor GROUP BY Model"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			q, err := sqlparse.Parse(bc.sql)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sqlparse.ApplyToResultSet(q, rs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAggregatePushdown is the tentpole comparison: what the entry
// gateway does per federated aggregate query. raw-merge is the old path —
// every site ships all its rows, the entry gateway merges them and
// aggregates. partial-merge is the pushdown path — each site ships only
// its partial-aggregate rows and the entry gateway merges and finalizes
// those. Site-side work is excluded from both: it happens at the remote
// sites in parallel. Target: ≥10x fewer allocations and lower ns/op for
// partial-merge.
func BenchmarkAggregatePushdown(b *testing.B) {
	const sites, rows, groups = 8, 512, 8
	q, err := sqlparse.Parse("SELECT Model, count(*), avg(LoadLast1Min), max(LoadLast1Min) FROM Processor GROUP BY Model")
	if err != nil {
		b.Fatal(err)
	}

	siteRows := make([]*resultset.ResultSet, sites)
	for s := range siteRows {
		siteRows[s] = buildSiteRows(b, s, rows, groups)
	}
	// Per-site partial results, precomputed once — in production each
	// remote site computes its own.
	pq := q.PartialQuery()
	partials := make([]*resultset.ResultSet, sites)
	for s := range partials {
		p, err := sqlparse.ApplyToResultSet(pq, siteRows[s])
		if err != nil {
			b.Fatal(err)
		}
		partials[s] = p
	}

	b.Run("raw-merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			merged := resultset.New(siteRows[0].Metadata())
			for _, rs := range siteRows {
				if err := merged.Merge(rs); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := sqlparse.ApplyToResultSet(q, merged); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("partial-merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			merged := resultset.New(partials[0].Metadata())
			for _, rs := range partials {
				if err := merged.Merge(rs); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := sqlparse.FinalizeAggregate(q, merged); err != nil {
				b.Fatal(err)
			}
		}
	})
}
