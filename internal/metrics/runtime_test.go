package metrics

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridrm/internal/intern"
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
	ex, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return ex.Samples
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

// TestOpenFDsGauge: opening N files raises gridrm_runtime_open_fds by N, and
// closing them lowers it again. The gauge exists only where /proc/self/fd
// does.
func TestOpenFDsGauge(t *testing.T) {
	if _, err := os.Stat(fdDir); err != nil {
		t.Skipf("no %s here: %v", fdDir, err)
	}
	r := NewRegistry()
	RegisterRuntime(r)
	before := scrape(t, r)["gridrm_runtime_open_fds"]
	if before < 3 {
		t.Fatalf("open fds = %v, want at least stdin, stdout and stderr", before)
	}
	const n = 5
	var files []*os.File
	for i := 0; i < n; i++ {
		f, err := os.Create(filepath.Join(t.TempDir(), fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if d := scrape(t, r)["gridrm_runtime_open_fds"] - before; d != n {
		t.Errorf("opening %d files moved open fds by %v", n, d)
	}
	for _, f := range files {
		f.Close()
	}
	if d := scrape(t, r)["gridrm_runtime_open_fds"] - before; d != 0 {
		t.Errorf("closing them left open fds %v from where they began", d)
	}
}

// TestInternSeries: the intern table's four series are registered beside the
// runtime's, and a batch's lookups reach the counters.
func TestInternSeries(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for name, kind := range map[string]string{
		"gridrm_intern_entries":      "gauge",
		"gridrm_intern_bytes":        "gauge",
		"gridrm_intern_hits_total":   "counter",
		"gridrm_intern_misses_total": "counter",
	} {
		if n := strings.Count(sb.String(), fmt.Sprintf("# TYPE %s %s\n", name, kind)); n != 1 {
			t.Errorf("%d lines say %s is a %s, want 1", n, name, kind)
		}
	}
	before := scrape(t, r)
	var bt intern.Batch
	name := []byte(fmt.Sprintf("metrics-test-%d", time.Now().UnixNano()))
	bt.Bytes(name)
	bt.Bytes(name)
	bt.Done()
	after := scrape(t, r)
	if after["gridrm_intern_hits_total"] <= before["gridrm_intern_hits_total"] ||
		after["gridrm_intern_misses_total"] <= before["gridrm_intern_misses_total"] {
		t.Errorf("a batch with a hit and a miss left the counters at %v, then %v", before, after)
	}
	if after["gridrm_intern_entries"] < 1 || after["gridrm_intern_bytes"] < float64(len(name)) {
		t.Errorf("after an admission the table reads %v entries, %v bytes", after["gridrm_intern_entries"], after["gridrm_intern_bytes"])
	}
}
