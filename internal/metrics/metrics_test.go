package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}
	r.CounterFunc("test_func_total", "from fn", func() int64 { return 7 })
	r.GaugeFunc("test_func_gauge", "from fn", func() float64 { return -1.5 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP test_total a counter",
		"# TYPE test_total counter",
		"test_total 5",
		"# TYPE test_gauge gauge",
		"test_gauge 2.5",
		"test_func_total 7",
		"test_func_gauge -1.5",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 56.05 {
		t.Fatalf("sum = %v", h.Sum())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 56.05`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("stage_seconds", "per stage", "stage", []float64{1})
	hv.With("parse").Observe(0.5)
	hv.With("parse").Observe(2)
	hv.With("harvest").Observe(0.25)
	snap := hv.Snapshot()
	if len(snap) != 2 || snap[0].Label != "harvest" || snap[1].Label != "parse" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[1].Count != 2 || snap[1].Sum != 2.5 {
		t.Fatalf("parse snapshot = %+v", snap[1])
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`stage_seconds_bucket{stage="parse",le="1"} 1`,
		`stage_seconds_bucket{stage="parse",le="+Inf"} 2`,
		`stage_seconds_count{stage="parse"} 2`,
		`stage_seconds_bucket{stage="harvest",le="1"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c_seconds", "c", []float64{1})
	c := r.Counter("c_total", "c")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.5)
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || c.Value() != 8000 {
		t.Fatalf("count = %d, counter = %d", h.Count(), c.Value())
	}
	if h.Sum() != 4000 {
		t.Fatalf("sum = %v", h.Sum())
	}
}

// TestScrapeReadsEverySample: Scrape parses back what WritePrometheus
// writes, labelled series and family types included, and Parse refuses a
// line that is not a sample.
func TestScrapeReadsEverySample(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "a counter").Add(3)
	r.GaugeFunc("test_gauge", "a gauge", func() float64 { return -0.25 })
	r.HistogramVec("test_seconds", "a vec", "stage", []float64{1}).With(`a "b"`).Observe(0.5)
	ex, err := Scrape(r)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"test_total": 3,
		"test_gauge": -0.25,
		`test_seconds_bucket{stage="a \"b\"",le="1"}`: 1,
		`test_seconds_sum{stage="a \"b\""}`:           0.5,
	} {
		if got, ok := ex.Samples[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if ex.Types["test_total"] != "counter" || ex.Types["test_gauge"] != "gauge" || ex.Types["test_seconds"] != "histogram" {
		t.Errorf("types = %v", ex.Types)
	}
	for _, bad := range []string{"lonely\n", "test_total x\n", `test{a="b" 1` + "\n"} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) took it", bad)
		}
	}
}
