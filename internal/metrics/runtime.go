package metrics

import (
	"os"
	"runtime"
	"sync"

	"gridrm/internal/intern"
)

// RegisterRuntime exports what the process itself costs — goroutines, live
// heap, allocations, GC, open files and the wire decoders' intern table — so
// that an operator can read, say, allocations per query
// (gridrm_runtime_mallocs_total over gridrm_queries_total), or whether the
// table thrashes (misses against hits), from the gateway's own /metrics.
func RegisterRuntime(r *Registry) {
	registerRuntime(r, runtime.ReadMemStats)
	if _, err := os.Stat(fdDir); err == nil {
		r.GaugeFunc("gridrm_runtime_open_fds", "File descriptors the process holds open.",
			func() float64 { return float64(openFDs()) })
	}
	r.GaugeFunc("gridrm_intern_entries", "Strings the wire decoders' intern table holds.",
		func() float64 { return float64(intern.Read().Entries) })
	r.GaugeFunc("gridrm_intern_bytes", "Bytes of the strings the intern table holds.",
		func() float64 { return float64(intern.Read().Bytes) })
	r.CounterFunc("gridrm_intern_hits_total", "Decoded names found in the intern table.",
		func() int64 { return intern.Read().Hits })
	r.CounterFunc("gridrm_intern_misses_total", "Decoded names the intern table did not hold.",
		func() int64 { return intern.Read().Misses })
}

// fdDir lists the process's open file descriptors, on Linux.
const fdDir = "/proc/self/fd"

// openFDs counts the entries of fdDir but the one reading it opens; -1 if
// it cannot be read.
func openFDs() int {
	d, err := os.Open(fdDir)
	if err != nil {
		return -1
	}
	defer d.Close()
	names, err := d.Readdirnames(-1)
	if err != nil {
		return -1
	}
	return len(names) - 1
}

// registerRuntime is RegisterRuntime over a given reader of the runtime's
// memory statistics. Reading them stops the world, so a scrape reads them
// once: the first of the series below, which WritePrometheus renders in
// registration order, takes the reading and the rest share it.
func registerRuntime(r *Registry, read func(*runtime.MemStats)) {
	var (
		mu sync.Mutex
		ms runtime.MemStats
	)
	stat := func(refresh bool, field func(*runtime.MemStats) uint64) uint64 {
		mu.Lock()
		defer mu.Unlock()
		if refresh {
			read(&ms)
		}
		return field(&ms)
	}
	r.GaugeFunc("gridrm_runtime_goroutines", "Goroutines that currently exist.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("gridrm_runtime_heap_alloc_bytes", "Bytes of allocated heap objects.", func() float64 {
		return float64(stat(true, func(m *runtime.MemStats) uint64 { return m.HeapAlloc }))
	})
	r.GaugeFunc("gridrm_runtime_heap_objects", "Allocated heap objects.", func() float64 {
		return float64(stat(false, func(m *runtime.MemStats) uint64 { return m.HeapObjects }))
	})
	r.CounterFunc("gridrm_runtime_mallocs_total", "Heap objects allocated since the process started.", func() int64 {
		return int64(stat(false, func(m *runtime.MemStats) uint64 { return m.Mallocs }))
	})
	r.CounterFunc("gridrm_runtime_gc_cycles_total", "Completed GC cycles.", func() int64 {
		return int64(stat(false, func(m *runtime.MemStats) uint64 { return uint64(m.NumGC) }))
	})
	// A counter of seconds is fractional, which CounterFunc's int64 cannot say.
	r.add(&family{name: "gridrm_runtime_gc_pause_seconds_total", help: "Time spent in GC stop-the-world pauses.",
		kind: kindCounter, gaugeFunc: func() float64 {
			return float64(stat(false, func(m *runtime.MemStats) uint64 { return m.PauseTotalNs })) / 1e9
		}})
}
