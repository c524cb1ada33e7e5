package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/gma"
	"gridrm/internal/pool"
	"gridrm/internal/qcache"
	"gridrm/internal/repub"
	"gridrm/internal/router"
	"gridrm/internal/web"
)

// pairEvery is how often a traced request is followed by the same options
// run in-process: the difference between the two is the web share.
const pairEvery = 8

// span is one benchmark-side span. Spans are recorded from the benchmark's
// own files, around the calls into each layer; they are kept in memory and
// written out when the run ends. Times are nanoseconds from the run start.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"` // shared by the spans of one request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog is one goroutine's span buffer; ids carry the owner in their high
// bits so logs merge without coordination.
type spanLog struct {
	t0    time.Time
	owner uint64
	spans []span
}

func newSpanLog(t0 time.Time, owner int) *spanLog {
	return &spanLog{t0: t0, owner: uint64(owner+1) << 40}
}

func (l *spanLog) add(name string, parent, req uint64, start, end time.Time) uint64 {
	id := l.owner | uint64(len(l.spans)+1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0))})
	return id
}

// begin opens a span that covers a stretch of the run; the returned func
// closes it. A nil log (an untraced run) records nothing.
func (l *spanLog) begin(name string) (id uint64, end func()) {
	if l == nil {
		return 0, func() {}
	}
	now := time.Now()
	id = l.add(name, 0, 0, now, now)
	i := len(l.spans) - 1
	return id, func() { l.spans[i].End = int64(time.Since(l.t0)) }
}

// captured holds what the traced phases hand on: per class, the first
// request that was paired with its in-process response (the probes' inputs),
// and for every pair what the HTTP call took beyond the in-process one and
// how much of it the replayed children cover.
type captured struct {
	mu        sync.Mutex
	reqs      [numClasses]*request
	resps     [numClasses]*core.Response
	webShare  []float64 // client.query - core.query, microseconds
	accounted []float64 // sum of children / client.query
}

// trace records the spans of one finished request: client.query around the
// HTTP call and, on every pairEvery-th request of a pairing phase, its
// layers replayed one by one as children, under the load the request itself
// ran under: web.request is the request's codec on both sides, core.query
// the same options run straight against the entry gateway, web.encode and
// web.decode the servlet's codec on that answer, web.http a bodiless round
// trip on the same connection. What client.query took beyond its children
// is its self time: copying the bodies, scheduling.
func (c *client) trace(p *phase, r *request, k int, sent, end time.Time) {
	req := uint64(c.id+1)<<40 | uint64(c.next)
	parent := c.spans.add("client.query", p.spanID, req, sent, end)
	if p.pairInto == nil || k%pairEvery != 0 {
		return
	}
	ctx := context.Background()
	var resp *core.Response
	var body []byte
	var err error
	var children, inproc time.Duration
	child := func(name string, fn func()) {
		start := time.Now()
		fn()
		stop := time.Now()
		c.spans.add(name, parent, req, start, stop)
		children += stop.Sub(start)
		if name == "core.query" {
			inproc = stop.Sub(start)
		}
	}
	child("web.request", func() {
		var wr web.WireRequest
		if buf, err := json.Marshal(web.FromCoreRequest(r.opts)); err == nil && json.Unmarshal(buf, &wr) == nil {
			_, _ = wr.ToCoreRequest()
		}
	})
	child("core.query", func() { resp, err = p.rt.h.EntryGateway().QueryContext(ctx, r.opts) })
	if err != nil {
		return
	}
	child("web.encode", func() { body = encodeResponse(resp) })
	child("web.decode", func() { decodeResponse(body) })
	child("web.http", func() { _, _ = c.web.Sites(ctx) })
	cp := p.pairInto
	cp.mu.Lock()
	cp.webShare = append(cp.webShare, float64(end.Sub(sent)-inproc)/float64(time.Microsecond))
	cp.accounted = append(cp.accounted, float64(children)/float64(end.Sub(sent)))
	if cp.reqs[r.cls] == nil {
		cp.reqs[r.cls], cp.resps[r.cls] = r, resp
	}
	cp.mu.Unlock()
}

// encodeResponse and decodeResponse are the servlet's response codec as
// handleQuery and Client.Query run it, for the paired spans and the probes.
func encodeResponse(resp *core.Response) []byte {
	body, _ := json.Marshal(web.EncodeResponse(resp)) // a decoded gateway response always marshals
	return body
}

func decodeResponse(body []byte) {
	var wr web.WireResponse
	if json.Unmarshal(body, &wr) == nil {
		_, _ = web.DecodeResponse(wr)
	}
}

func writeTrace(dir, workload string, logs []*spanLog) (string, error) {
	var all []span
	for _, l := range logs {
		all = append(all, l.spans...)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(map[string]any{"workload": workload, "spans": all})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// counters is one reading of every existing output the traced run diffs
// across its phases.
type counters struct {
	gw      core.Stats // entry gateway
	stages  map[string]stageSum
	cache   qcache.Stats
	pool    pool.Stats
	push    router.Stats
	gma     gma.Stats
	repub   repub.Stats
	gc      uint32
	gcPause uint64
	fleet   int64 // harvests over every site
}

type stageSum struct {
	count int64
	sum   float64
}

func readCounters(rt *testbed) counters {
	gw := rt.h.EntryGateway()
	c := counters{gw: gw.Stats(), stages: map[string]stageSum{}, cache: gw.Cache().Stats(),
		pool: gw.Pool().Stats(), push: gw.PushRouter().Stats(), repub: rt.h.RepubStats(), fleet: rt.harvests()}
	for _, s := range gw.QueryStageLatencies() {
		c.stages[s.Label] = stageSum{s.Count, s.Sum}
	}
	if rt.h.Router != nil {
		c.gma = rt.h.Router.Stats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gc, c.gcPause = ms.NumGC, ms.PauseTotalNs
	return c
}

// stageUS is the mean time per observation of one query stage between two
// readings, in microseconds.
func stageUS(before, after counters, stage string) float64 {
	n := after.stages[stage].count - before.stages[stage].count
	if n <= 0 {
		return 0
	}
	return (after.stages[stage].sum - before.stages[stage].sum) / float64(n) * 1e6
}

func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}
