package core

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"gridrm/internal/event"
	"gridrm/internal/glue"
)

func TestWatchMetricValidation(t *testing.T) {
	f := newFixture(t)
	if err := f.g.WatchMetric("Nope", "X"); err == nil {
		t.Error("unknown group accepted")
	}
	if err := f.g.WatchMetric(glue.GroupProcessor, "Nope"); err == nil {
		t.Error("unknown field accepted")
	}
	if err := f.g.WatchMetric(glue.GroupProcessor, "HostName"); err == nil {
		t.Error("non-numeric field accepted")
	}
	if err := f.g.WatchMetric(glue.GroupProcessor, "LoadLast1Min"); err != nil {
		t.Fatal(err)
	}
	if err := f.g.WatchMetric(glue.GroupProcessor, "LoadLast1Min"); err == nil {
		t.Error("duplicate watch accepted")
	}
	if got := f.g.WatchedMetrics(); len(got) != 1 || got[0] != "Processor.LoadLast1Min" {
		t.Errorf("WatchedMetrics = %v", got)
	}
}

func TestHarvestPublishesWatchedMetrics(t *testing.T) {
	f := newFixture(t)
	if err := f.g.WatchMetric(glue.GroupProcessor, "LoadLast1Min"); err != nil {
		t.Fatal(err)
	}
	f.query(t, "SELECT * FROM Processor", ModeRealTime)
	f.g.Events().Drain()
	evs := f.g.Events().History(event.Filter{Name: "Processor.LoadLast1Min"}, time.Time{})
	// 2 hosts from source A + 1 from source B.
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	byHost := map[string]float64{}
	for _, ev := range evs {
		if ev.Severity != event.SeverityUsage {
			t.Errorf("severity %q", ev.Severity)
		}
		byHost[ev.Host] = ev.Value
	}
	if byHost["a1"] != 1.0 || byHost["b1"] != 5.0 {
		t.Errorf("values %v", byHost)
	}
	// Cached queries do not re-publish (no new harvest).
	before := len(f.g.Events().History(event.Filter{Name: "Processor.%"}, time.Time{}))
	f.query(t, "SELECT * FROM Processor", ModeCached)
	f.g.Events().Drain()
	after := len(f.g.Events().History(event.Filter{Name: "Processor.%"}, time.Time{}))
	if after != before {
		t.Errorf("cached query published %d new events", after-before)
	}
}

func TestHarvestToAlertPath(t *testing.T) {
	// Fig 3 end to end: a real-time query harvests rows, the watched
	// metric flows into the Event Manager, the threshold rule fires, and
	// an alert is delivered — no separate polling loop.
	f := newFixture(t)
	if err := f.g.WatchMetric(glue.GroupProcessor, "LoadLast1Min"); err != nil {
		t.Fatal(err)
	}
	if err := f.g.Events().AddRule(event.ThresholdRule{
		Name:      "overload",
		Match:     event.Filter{Name: "Processor.LoadLast1Min"},
		Op:        event.Above,
		Threshold: 4.0,
	}); err != nil {
		t.Fatal(err)
	}
	f.query(t, "SELECT * FROM Processor", ModeRealTime)
	f.g.Events().Drain()
	alerts := f.g.Events().History(event.Filter{Name: "overload"}, time.Time{})
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d", len(alerts))
	}
	// Only the 5.0-load host from driver 2 crossed.
	if alerts[0].Host != "b1" || alerts[0].Value != 5.0 {
		t.Errorf("alert %+v", alerts[0])
	}
}

func TestNullWatchedFieldSkipped(t *testing.T) {
	f := newFixture(t)
	// Utilization is unmapped in the memDriver's schema → NULL on every
	// row → no events.
	if err := f.g.WatchMetric(glue.GroupProcessor, "Utilization"); err != nil {
		t.Fatal(err)
	}
	f.query(t, "SELECT * FROM Processor", ModeRealTime)
	f.g.Events().Drain()
	if evs := f.g.Events().History(event.Filter{Name: "Processor.Utilization"}, time.Time{}); len(evs) != 0 {
		t.Errorf("NULL field published %d events", len(evs))
	}
}

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
