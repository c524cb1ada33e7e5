package metrics

import (
	"os"
	"runtime"
	"strings"

	"gridrm/internal/intern"
)

// RegisterRuntime exports what the process itself costs — goroutines, live
// heap, allocations, GC, open files and the wire decoders' intern table — so
// that an operator can read, say, allocations per query
// (gridrm_runtime_mallocs_total over gridrm_queries_total), or whether the
// table thrashes (misses against hits), from the gateway's own /metrics.
func RegisterRuntime(r *Registry) { registerRuntime(r, runtime.ReadMemStats) }

// ProcessWide reports whether a series is one of RegisterRuntime's. They
// describe the process, not the registry: every registry in one process
// reports the same values, so a reader that sums several in-process
// registries takes them once.
func ProcessWide(series string) bool {
	return strings.HasPrefix(series, "gridrm_runtime_") || strings.HasPrefix(series, "gridrm_intern_")
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
// once, in the one collect that emits every series here.
func registerRuntime(r *Registry, read func(*runtime.MemStats)) {
	_, err := os.Stat(fdDir)
	fds := err == nil
	r.Collect(func(c *Collection) {
		var ms runtime.MemStats
		read(&ms)
		in := intern.Read()
		c.Gauge("gridrm_runtime_goroutines", "Goroutines that currently exist.", float64(runtime.NumGoroutine()))
		c.Gauge("gridrm_runtime_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
		c.Gauge("gridrm_runtime_heap_objects", "Allocated heap objects.", float64(ms.HeapObjects))
		c.Counter("gridrm_runtime_mallocs_total", "Heap objects allocated since the process started.", float64(ms.Mallocs))
		c.Counter("gridrm_runtime_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC))
		c.Counter("gridrm_runtime_gc_pause_seconds_total", "Time spent in GC stop-the-world pauses.", float64(ms.PauseTotalNs)/1e9)
		if fds {
			c.Gauge("gridrm_runtime_open_fds", "File descriptors the process holds open.", float64(openFDs()))
		}
		c.Gauge("gridrm_intern_entries", "Strings the wire decoders' intern table holds.", float64(in.Entries))
		c.Gauge("gridrm_intern_bytes", "Bytes the intern table retains: its strings plus an estimate of its maps' slots.", float64(in.Bytes))
		c.Counter("gridrm_intern_hits_total", "Decoded names found in the intern table.", float64(in.Hits))
		c.Counter("gridrm_intern_misses_total", "Decoded names the intern table did not hold.", float64(in.Misses))
	})
}
