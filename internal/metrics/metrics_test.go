package metrics

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	r.Collect(func(c *Collection) {
		c.Counter("test_total", "a counter", 5)
		c.Gauge("test_gauge", "a gauge", -1.5)
		c.Counter("test_seconds_total", "a fractional counter", 0.25)
		c.Gauge("test_bytes", "a large gauge", 1<<40)
	})

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
		"test_gauge -1.5",
		"test_seconds_total 0.25",
		"test_bytes 1099511627776",
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

// TestConcurrentObserve: observers and a collected counter updated from
// eight goroutines while two more scrape lose no update.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c_seconds", "c", []float64{1})
	var n atomic.Int64
	r.Collect(func(c *Collection) { c.Counter("c_total", "c", float64(n.Load())) })
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if i >= 8 {
					if j%100 == 0 {
						if _, err := Scrape(r); err != nil {
							t.Error(err)
						}
					}
					continue
				}
				h.Observe(0.5)
				n.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if h.Count() != 8000 || h.Sum() != 4000 {
		t.Fatalf("count = %d, sum = %v", h.Count(), h.Sum())
	}
	if ex, err := Scrape(r); err != nil || ex.Samples["c_total"] != 8000 {
		t.Fatalf("c_total = %v (%v)", ex.Samples["c_total"], err)
	}
}

// TestScrapeReadsEverySample: Scrape parses back what WritePrometheus
// writes, labelled series and family types included, and Parse refuses a
// line that is not a sample.
func TestScrapeReadsEverySample(t *testing.T) {
	r := NewRegistry()
	r.Collect(func(c *Collection) {
		c.Counter("test_total", "a counter", 3)
		c.Gauge("test_gauge", "a gauge", -0.25)
	})
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

// TestCollectReadsOncePerScrape: a collect's read runs once per
// WritePrometheus however many series it emits, every series renders that
// one reading, and the exposition keeps registration order across collects
// and settable instruments.
func TestCollectReadsOncePerScrape(t *testing.T) {
	r := NewRegistry()
	reads := 0
	r.Histogram("a_seconds", "first", nil)
	r.Collect(func(c *Collection) {
		reads++
		v := float64(reads)
		c.Counter("b_total", "reads", v)
		c.Gauge("c", "reads again", v)
		c.Counter("d_seconds_total", "a fractional counter", v/4)
	})
	r.Collect(func(c *Collection) { c.Gauge("e", "last", 2) })
	declared := reads
	for scrape := 1; scrape <= 3; scrape++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if got := reads - declared; got != scrape {
			t.Fatalf("%d scrapes ran the read %d times", scrape, got)
		}
		var names []string
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				names = append(names, strings.Fields(line)[2])
			}
		}
		if strings.Join(names, " ") != "a_seconds b_total c d_seconds_total e" {
			t.Errorf("order %v", names)
		}
		ex, err := Parse(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		if v := float64(reads); ex.Samples["b_total"] != v || ex.Samples["c"] != v || ex.Samples["d_seconds_total"] != v/4 {
			t.Errorf("scrape %d rendered %v from reading %v", scrape, ex.Samples, v)
		}
	}
}

// TestRegisteredTwicePanics: a name is registered once, whether the second
// claim comes from the same collect, another collect or an instrument.
func TestRegisteredTwicePanics(t *testing.T) {
	for name, register := range map[string]func(r *Registry){
		"within one collect": func(r *Registry) {
			r.Collect(func(c *Collection) {
				c.Counter("x_total", "x", 1)
				c.Gauge("x_total", "x again", 1)
			})
		},
		"across two collects": func(r *Registry) {
			r.Collect(func(c *Collection) { c.Counter("x_total", "x", 1) })
			r.Collect(func(c *Collection) { c.Counter("x_total", "x again", 1) })
		},
		"histogram then collect": func(r *Registry) {
			r.Histogram("x_total", "x", nil)
			r.Collect(func(c *Collection) { c.Counter("x_total", "x again", 1) })
		},
	} {
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(p.(string), `"x_total" registered twice`) {
					t.Errorf("%s: panic %v", name, p)
				}
			}()
			register(NewRegistry())
		}()
	}
}

// TestCollectOffDeclarationFails: a read that emits a series it did not
// declare at registration, leaves a declared one out or changes its type
// fails the scrape with an error naming the series, before anything is
// written.
func TestCollectOffDeclarationFails(t *testing.T) {
	for _, tc := range []struct {
		name string
		emit func(c *Collection)
		want string
	}{
		{"undeclared", func(c *Collection) { c.Counter("y_total", "y", 1); c.Counter("z_total", "z", 1) },
			`emitted counter "z_total", not the series it declared`},
		{"missing", func(c *Collection) {}, `did not emit "y_total"`},
		{"retyped", func(c *Collection) { c.Gauge("y_total", "y", 1) }, `emitted gauge "y_total"`},
	} {
		r := NewRegistry()
		r.Histogram("before_seconds", "before", nil)
		scraped := false
		r.Collect(func(c *Collection) {
			if scraped {
				tc.emit(c)
				return
			}
			c.Counter("y_total", "y", 1)
		})
		scraped = true
		var sb strings.Builder
		err := r.WritePrometheus(&sb)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		if sb.Len() != 0 {
			t.Errorf("%s: a failed scrape wrote:\n%s", tc.name, sb.String())
		}
	}
}
