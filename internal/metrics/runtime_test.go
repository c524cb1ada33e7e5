package metrics

import (
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// scrape renders the registry and returns every sample by name, checking
// that each of the runtime series is there once under the type it should be.
func scrape(t *testing.T, r *Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for name, kind := range map[string]string{
		"gridrm_runtime_goroutines":             "gauge",
		"gridrm_runtime_heap_alloc_bytes":       "gauge",
		"gridrm_runtime_heap_objects":           "gauge",
		"gridrm_runtime_mallocs_total":          "counter",
		"gridrm_runtime_gc_cycles_total":        "counter",
		"gridrm_runtime_gc_pause_seconds_total": "counter",
	} {
		if n := strings.Count(text, fmt.Sprintf("# TYPE %s %s\n", name, kind)); n != 1 {
			t.Errorf("%d lines say %s is a %s, want 1:\n%s", n, name, kind, text)
		}
	}
	samples := map[string]float64{}
	for _, m := range regexp.MustCompile(`(?m)^(\w+) (\S+)$`).FindAllStringSubmatch(text, -1) {
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Errorf("sample %q: %v", m[0], err)
		}
		samples[m[1]] = v
	}
	return samples
}

var sink [][]byte

// TestRuntimeCollectors: two scrapes around some allocation and a GC. Every
// series is present under its type, the counters only rise, and each scrape
// reads the runtime's memory statistics once, not once a series.
func TestRuntimeCollectors(t *testing.T) {
	r := NewRegistry()
	reads := 0
	registerRuntime(r, func(ms *runtime.MemStats) { reads++; runtime.ReadMemStats(ms) })
	before := scrape(t, r)
	if reads != 1 {
		t.Errorf("the first scrape read the memory statistics %d times, want once", reads)
	}
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 64))
	}
	runtime.GC()
	after := scrape(t, r)
	if reads != 2 {
		t.Errorf("two scrapes read the memory statistics %d times, want twice", reads)
	}
	if after["gridrm_runtime_goroutines"] < 1 || after["gridrm_runtime_heap_alloc_bytes"] <= 0 || after["gridrm_runtime_heap_objects"] <= 0 {
		t.Errorf("gauges: %v", after)
	}
	if d := after["gridrm_runtime_mallocs_total"] - before["gridrm_runtime_mallocs_total"]; d < 1000 {
		t.Errorf("mallocs_total rose by %v over 1000 allocations", d)
	}
	if d := after["gridrm_runtime_gc_cycles_total"] - before["gridrm_runtime_gc_cycles_total"]; d < 1 {
		t.Errorf("gc_cycles_total rose by %v over a GC", d)
	}
	if after["gridrm_runtime_gc_pause_seconds_total"] < before["gridrm_runtime_gc_pause_seconds_total"] {
		t.Errorf("gc_pause_seconds_total fell: %v then %v", before, after)
	}
}
