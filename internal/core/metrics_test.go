package core

import (
	"os"
	"strings"
	"testing"

	"gridrm/internal/metrics"
)

// TestRuntimeSeriesAroundQueries answers the operator's question "what does a
// query cost in allocations" from the gateway's own /metrics alone: two
// scrapes around 1,000 cached queries, the rise of gridrm_runtime_mallocs_total
// over the rise of gridrm_queries_total.
func TestRuntimeSeriesAroundQueries(t *testing.T) {
	f := newFixture(t)
	scrape := func() map[string]float64 {
		ex, err := metrics.Scrape(f.g.Metrics())
		if err != nil {
			t.Fatal(err)
		}
		samples := map[string]float64{"gridrm_queries_total": ex.Samples["gridrm_queries_total"]}
		for name, v := range ex.Samples {
			if strings.HasPrefix(name, "gridrm_runtime_") {
				samples[name] = v
			}
		}
		return samples
	}
	f.query(t, "SELECT * FROM Processor", ModeCached) // warm the cache
	before := scrape()
	for i := 0; i < 1000; i++ {
		f.query(t, "SELECT * FROM Processor", ModeCached)
	}
	after := scrape()
	series := 7
	if _, err := os.Stat("/proc/self/fd"); err == nil {
		series++ // gridrm_runtime_open_fds
	}
	if len(after) != series || after["gridrm_runtime_goroutines"] < 1 {
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

// TestTraceFootprintOnMetrics: once the trace store is full, /metrics shows
// what the tracer holds and how many evicted traces it took back for reuse.
func TestTraceFootprintOnMetrics(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 300; i++ { // every query is sampled; the store keeps 256
		f.query(t, "SELECT * FROM Processor", ModeCached)
	}
	ex, err := metrics.Scrape(f.g.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	samples := ex.Samples
	st := f.g.Tracer().Stats()
	if samples["gridrm_trace_bytes"] != float64(st.Bytes) || st.Bytes == 0 {
		t.Errorf("gridrm_trace_bytes = %v, the tracer reports %d", samples["gridrm_trace_bytes"], st.Bytes)
	}
	if r := samples["gridrm_traces_recycled_total"]; r < 1 || r > samples["gridrm_traces_evicted_total"] {
		t.Errorf("recycled %v of %v evicted traces", r, samples["gridrm_traces_evicted_total"])
	}
}
