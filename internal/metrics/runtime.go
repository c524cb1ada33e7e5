package metrics

import (
	"runtime"
	"sync"
)

// RegisterRuntime exports what the process itself costs — goroutines, live
// heap, allocations and GC — so that an operator can read, say, allocations
// per query (gridrm_runtime_mallocs_total over gridrm_queries_total) from the
// gateway's own /metrics.
func RegisterRuntime(r *Registry) { registerRuntime(r, runtime.ReadMemStats) }

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
