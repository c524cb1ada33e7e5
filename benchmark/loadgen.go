package main

import (
	"context"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/web"
)

// sample is one completed request as the client saw it.
type sample struct {
	cls  class
	lat  time.Duration // closed: send -> answer; open: due time -> answer
	late time.Duration // open: how long after its due time the request left
	ok   bool
}

// client is one load-generating connection: its own keep-alive transport,
// its own slice of the request stream, its own sample log.
type client struct {
	id      int
	web     *web.Client
	stream  []request
	next    int
	samples []sample
	failed  []string // first few defects, for the report
	spans   *spanLog // traced runs only
}

func newClient(id int, baseURL string, stream []request) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{id: id, stream: stream, web: &web.Client{
		BaseURL:    baseURL,
		Principal:  stream[0].opts.Principal,
		HTTPClient: &http.Client{Transport: tr, Timeout: 10 * time.Second},
	}}
}

func (c *client) close() {
	c.web.HTTPClient.CloseIdleConnections()
}

// phase drives every client through one timed phase. rate 0 is the closed
// loop: a client sends its next request when the last returns. A positive
// rate is the open loop: request k of the phase is due at k/rate, clients
// take alternate slots, a late client sends at once, and latency runs from
// the due time so a stall is charged to every request it delayed.
type phase struct {
	rt       *testbed
	clients  []*client
	dur      time.Duration
	rate     float64
	record   bool      // false for warm-up
	corrupt  bool      // damage one response before the oracle sees it
	spanID   uint64    // traced runs: the phase span client spans hang under
	pairInto *captured // traced runs: replay layers under every pairEvery-th request
}

// phaseStats is what the process-wide counters moved by across a phase.
type phaseStats struct {
	cpu        time.Duration
	allocBytes uint64
	allocs     uint64
	harvests   int64
}

func (s *phaseStats) add(o phaseStats) {
	s.cpu += o.cpu
	s.allocBytes += o.allocBytes
	s.allocs += o.allocs
	s.harvests += o.harvests
}

func (p *phase) run() phaseStats {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, harvests0 := processCPU(), p.rt.harvests()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range p.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			p.drive(c, start)
		}(c)
	}
	wg.Wait()
	st := phaseStats{cpu: processCPU() - cpu0, harvests: p.rt.harvests() - harvests0}
	runtime.ReadMemStats(&after)
	st.allocBytes, st.allocs = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	return st
}

func (p *phase) drive(c *client, start time.Time) {
	ctx := context.Background()
	for k := 0; ; k++ {
		var due time.Time
		if p.rate > 0 {
			due = start.Add(time.Duration(float64(k*len(p.clients)+c.id) / p.rate * float64(time.Second)))
			if due.Sub(start) >= p.dur {
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
		} else if time.Since(start) >= p.dur {
			return
		}
		r := &c.stream[c.next%len(c.stream)]
		c.next++
		sent := time.Now()
		resp, err := c.web.Query(ctx, r.opts)
		end := time.Now()
		if !p.record {
			continue
		}
		// Everything below is outside the latency timer.
		s := sample{cls: r.cls, lat: end.Sub(sent)}
		if p.rate > 0 {
			s.lat, s.late = end.Sub(due), sent.Sub(due)
		}
		if r.cls == cachedRaw || r.cls == cachedFilter {
			if harvested(resp) {
				s.cls = cachedMiss
			}
		}
		full := r.full
		if p.corrupt && c.id == 0 && k == 0 {
			corrupt(resp)
			full = true
		}
		why := p.rt.truth.check(r, full, resp, err)
		s.ok = why == ""
		if !s.ok && len(c.failed) < 3 {
			c.failed = append(c.failed, classNames[r.cls]+": "+why)
		}
		c.samples = append(c.samples, s)
		if p.spanID != 0 {
			c.trace(p, r, k, sent, end)
		}
	}
}

// harvested reports whether a cached-mode answer had to go to a driver for
// at least one source.
func harvested(resp *core.Response) bool {
	if resp == nil {
		return false
	}
	for _, st := range resp.Sources {
		if !st.Cached {
			return true
		}
	}
	return false
}

// harvests sums driver harvests over every site's gateway: a harvest at a
// leaf intrudes on a resource as much as one at the entry.
func (rt *testbed) harvests() int64 {
	var n int64
	for _, site := range rt.h.SiteOrder {
		n += rt.h.SiteGateway(site).Stats().Harvests
	}
	return n
}

// processCPU is the process's user+system CPU time so far (getrusage), the
// study's "host load". It includes the load generator: see the README.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// drain empties every client's sample log into one slice.
func drain(clients []*client) []sample {
	var all []sample
	for _, c := range clients {
		all = append(all, c.samples...)
		c.samples = c.samples[:0]
	}
	return all
}

// correctPerSecond is a closed burst's rate of correct answers.
func correctPerSecond(samples []sample, dur time.Duration) float64 {
	return float64(len(samples)-countFailed(samples)) / dur.Seconds()
}

// quantileSorted interpolates the q-quantile of an ascending slice.
func quantileSorted(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

// latencyMS returns the q-quantile of the chosen durations in milliseconds.
func latencyMS(samples []sample, q float64, pick func(sample) (time.Duration, bool)) float64 {
	var v []float64
	for _, s := range samples {
		if d, ok := pick(s); ok {
			v = append(v, float64(d)/float64(time.Millisecond))
		}
	}
	sort.Float64s(v)
	return quantileSorted(v, q)
}

func anyLatency(s sample) (time.Duration, bool) { return s.lat, true }

func classLatency(c class) func(sample) (time.Duration, bool) {
	return func(s sample) (time.Duration, bool) { return s.lat, s.cls == c }
}

func lateness(s sample) (time.Duration, bool) { return s.late, true }

func countFailed(samples []sample) int {
	n := 0
	for _, s := range samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// calibrator is a fixed piece of work run on every core at once: strided
// read-modify-write passes over a buffer larger than the caches. The work
// never changes, so a change in its reading is the host — a noisy neighbour
// on the sibling thread, the cache or the memory bus. The buffers are mapped
// outside the Go heap so they do not move the collector's pacing.
type calibrator [][]byte

const calibrationBytes = 16 << 20

func newCalibrator(cores int) (calibrator, error) {
	c := make(calibrator, cores)
	for i := range c {
		buf, err := syscall.Mmap(-1, 0, calibrationBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, err
		}
		c[i] = buf
	}
	return c, nil
}

func (c calibrator) close() {
	for _, buf := range c {
		_ = syscall.Munmap(buf)
	}
}

// run returns the process CPU time one calibration took.
func (c calibrator) run() time.Duration {
	start := processCPU()
	var wg sync.WaitGroup
	for _, buf := range c {
		wg.Add(1)
		go func(buf []byte) {
			defer wg.Done()
			x := byte(1)
			for pass := 0; pass < 4; pass++ {
				for i := 0; i < len(buf); i += 64 {
					x = x*31 + buf[i]
					buf[i] = x
				}
			}
		}(buf)
	}
	wg.Wait()
	return processCPU() - start
}
