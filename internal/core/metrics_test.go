package core

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRuntimeSeriesAroundQueries answers the operator's question "what does a
// query cost in allocations" from the gateway's own /metrics alone: two
// scrapes around 1,000 cached queries, the rise of gridrm_runtime_mallocs_total
// over the rise of gridrm_queries_total.
func TestRuntimeSeriesAroundQueries(t *testing.T) {
	f := newFixture(t)
	scrape := func() map[string]float64 {
		var sb strings.Builder
		if err := f.g.Metrics().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		samples := map[string]float64{}
		for _, m := range regexp.MustCompile(`(?m)^(gridrm_runtime_\w+|gridrm_queries_total) (\S+)$`).FindAllStringSubmatch(sb.String(), -1) {
			samples[m[1]], _ = strconv.ParseFloat(m[2], 64)
		}
		return samples
	}
	f.query(t, "SELECT * FROM Processor", ModeCached) // warm the cache
	before := scrape()
	for i := 0; i < 1000; i++ {
		f.query(t, "SELECT * FROM Processor", ModeCached)
	}
	after := scrape()
	if len(after) != 7 || after["gridrm_runtime_goroutines"] < 1 {
		t.Fatalf("runtime series: %v", after)
	}
	queries := after["gridrm_queries_total"] - before["gridrm_queries_total"]
	mallocs := after["gridrm_runtime_mallocs_total"] - before["gridrm_runtime_mallocs_total"]
	if queries != 1000 || mallocs < queries {
		t.Errorf("%v allocations over %v queries", mallocs, queries)
	}
	for _, name := range []string{"gridrm_runtime_gc_cycles_total", "gridrm_runtime_gc_pause_seconds_total"} {
		if after[name] < before[name] {
			t.Errorf("%s fell from %v to %v", name, before[name], after[name])
		}
	}
	t.Logf("%.0f allocations a cached query, read from /metrics", mallocs/queries)
}
