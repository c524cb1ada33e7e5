// Package trace is a stdlib-only distributed-tracing layer for the GridRM
// gateway: spans with trace/parent identity, a bounded in-memory store of
// finished traces, and a ring-buffer slow-query log. The query path threads
// a span through context.Context (internal/core, internal/pool,
// internal/gma all add children), and trace context propagates across
// gateway-to-gateway hops in the X-GridRM-Trace header so a federated
// all-sites query yields one stitched span tree: remote gateways record
// their own spans and return them on the wire, and the parent gateway
// attaches them to its trace before publishing.
//
// The whole API is nil-tolerant: an unsampled query carries a nil *Span and
// every span operation on it is a no-op, so the untraced hot path costs a
// context lookup and a nil check per stage. A sampled query allocates one
// recorder; its spans are slots inside it (see recorder).
package trace

import (
	"cmp"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// HeaderName is the HTTP header that propagates trace context between
// gateways: "<traceID>-<parentSpanID>-<sampled>". It is spelled in net/http's
// canonical form (documentation writes X-GridRM-Trace; header names are
// case-insensitive), so setting and getting it copies nothing.
const HeaderName = "X-Gridrm-Trace"

const (
	defaultCapacity      = 256
	defaultMaxSpans      = 512
	defaultSlowLog       = 128
	defaultSlowThreshold = 500 * time.Millisecond
)

// Options configures a Tracer. Zero values take the defaults noted;
// negative values disable where noted.
type Options struct {
	// Capacity is how many finished traces the in-memory store retains;
	// the oldest trace is evicted first (default 256).
	Capacity int
	// MaxSpans caps the spans recorded per trace, across every leg stored
	// under one trace ID; spans beyond the cap are counted in
	// Stats.DroppedSpans (default 512).
	MaxSpans int
	// SlowLog is the slow-query ring buffer size (default 128).
	SlowLog int
	// SlowThreshold is the elapsed time at or above which a finished query
	// is recorded in the slow-query log (default 500ms; negative disables
	// the log).
	SlowThreshold time.Duration
	// Sample is the fraction of root queries traced, 0..1 (default 1.0;
	// negative disables tracing). Queries carrying a propagated remote
	// trace context follow the parent gateway's decision instead, and
	// callers can force tracing per query with DecideOn.
	Sample float64
	// Clock is injectable for tests; nil uses time.Now.
	Clock func() time.Time
}

// Decision selects how one query's sampling is decided.
type Decision int

const (
	DecideSample Decision = iota // the default: the tracer's Sample rate decides
	DecideOn                     // force the query to be traced
	DecideOff                    // disable tracing for the query
)

// SpanData is a finished span: the wire form, made when something reads it.
type SpanData struct {
	TraceID  string            `json:"traceId"`          // the whole request tree
	SpanID   string            `json:"spanId"`           // this span
	Parent   string            `json:"parent,omitempty"` // the parent span's ID; "" for a locally rooted trace
	Name     string            `json:"name"`             // the operation: "query", "harvest", "pool-checkout" ...
	Site     string            `json:"site,omitempty"`   // the gateway that recorded the span
	Remote   bool              `json:"remote,omitempty"` // stitched in from a remote gateway's response
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"durationNs"`
	Attrs    map[string]string `json:"attrs,omitempty"` // annotations: sql, url, driver ...
	Err      string            `json:"err,omitempty"`   // the operation's failure, if any
}

// Span is a live span: one slot of its trace's recorder, so starting one
// allocates nothing while the current chunk has room. A nil *Span is valid:
// every method no-ops, which is how unsampled requests skip all bookkeeping.
// The fields are guarded by rec.mu and frozen once the span has ended.
type Span struct {
	rec    *recorder
	name   string
	err    string
	start  time.Duration // offset from rec.base
	dur    time.Duration
	id     int32 // slot number; the span ID is "<prefix>.<id+1>"
	parent int32 // parent's slot number; -1 on the root, whose parent is rec.parent
	endSeq int32 // 1-based position among the trace's ended spans; 0 while live
	nattr  uint8
	attrs  [inlineAttrs]attr
}

// inlineAttrs is how many attributes a slot holds itself (no span on the
// cached or real-time path sets more); the rest spill to recorder.spill.
const inlineAttrs = 2

// attr is one annotation. A number stays a number until something reads it.
type attr struct {
	key, str string
	num      int64
	slot     int32 // the owning slot, for a spilled attr
	isNum    bool
}

func (a attr) value() string {
	if a.isNum {
		return strconv.FormatInt(a.num, 10)
	}
	return a.str
}

// SetAttr annotates the span; a repeated key overwrites.
func (s *Span) SetAttr(key, value string) { s.set(attr{key: key, str: value}) }

// SetAttrInt annotates the span with a number, formatted only when read.
func (s *Span) SetAttrInt(key string, v int) { s.set(attr{key: key, num: int64(v), isNum: true}) }

func (s *Span) set(a attr) {
	if s == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.endSeq != 0 {
		return
	}
	a.slot = s.id
	if old := r.find(s, a.key); old != nil {
		*old = a
	} else if s.nattr < inlineAttrs {
		s.attrs[s.nattr] = a
		s.nattr++
	} else {
		r.spill = append(r.spill, a)
	}
}

// SetError records err on the span (no-op for nil err).
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	msg := err.Error()
	s.rec.mu.Lock()
	if s.endSeq == 0 {
		s.err = msg
	}
	s.rec.mu.Unlock()
}

// TraceID returns the span's trace ID ("" for a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.traceID
}

// SpanID returns the span's ID ("" for a nil span).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.rec.spanID(s.id)
}

// ParentID returns the parent span's ID. A root span with a non-empty
// parent is continuing a trace propagated from a remote gateway.
func (s *Span) ParentID() string {
	if s == nil {
		return ""
	}
	return s.rec.spanID(s.parent)
}

// IsRoot reports whether this span is its trace's local root.
func (s *Span) IsRoot() bool { return s != nil && s.id == 0 }

// Child begins a child of s without deriving a context: the form for a span
// nothing hangs off (parse, consolidate, pool-checkout ...), and what
// StartSpan is built on. It returns nil when s is nil or the trace is full.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.rec.start(name, s.id)
}

// End finishes the span in place; ending the root moves the whole recorder
// into the tracer's store. End is idempotent. A span that ends after its
// root (a coalesced harvest outliving the query that began it, a hedged
// loser) still ends in its own slot and shows up in the stored trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	if s.endSeq != 0 {
		r.mu.Unlock()
		return
	}
	s.dur = r.tracer.opts.Clock().Sub(r.base) - s.start
	r.ended++
	s.endSeq = r.ended
	r.mu.Unlock()
	if s.id == 0 {
		r.tracer.store(r)
	}
}

// Collected materialises every span ended in this span's trace so far, in
// the order they ended, then the spans stitched in from remote gateways.
// Call it on the root after End to ship the trace on the wire.
func (s *Span) Collected() []SpanData {
	if s == nil {
		return nil
	}
	return s.rec.appendSpans(nil)
}

// slotsPerChunk lets a single-source query (7 spans) live entirely in the
// recorder's own first chunk: one allocation per traced query.
const slotsPerChunk = 8

// chunk is a block of slots. Chunks are only ever appended and never
// reused, so a *Span stays valid, and private to its trace, for as long as
// anything holds it: a late End cannot reach another trace's memory.
type chunk struct {
	slots [slotsPerChunk]Span
	next  *chunk
}

// recorder is one serving leg of one trace: the trace-wide facts once, and
// the spans as slots. Span IDs, SpanData and the carrier are strings only
// where something reads them: Collected, Tracer.Trace, CarrierFromContext.
type recorder struct {
	tracer  *Tracer
	traceID string
	parent  string    // the remote caller's span ID; "" for a locally rooted trace
	site    string    // the gateway recording this leg
	base    time.Time // the root's start; slots hold offsets from it
	// prefix + slot number make span IDs: one crypto/rand draw per serving
	// leg, and "." keeps IDs clear of the carrier's "-" separator.
	prefix  [4]byte
	nextLeg *recorder // a later leg stored under the same trace ID (tracer.mu)

	mu     sync.Mutex
	slots  int32 // started
	ended  int32
	tail   *chunk
	spill  []attr
	remote []SpanData
	head   chunk
}

// start claims the next slot; nil (and one DroppedSpans) at the cap.
func (r *recorder) start(name string, parent int32) *Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(r.slots)+len(r.remote) >= r.tracer.opts.MaxSpans {
		r.tracer.droppedSpans.Add(1)
		return nil
	}
	i := r.slots % slotsPerChunk
	if i == 0 && r.slots > 0 {
		r.tail.next = new(chunk)
		r.tail = r.tail.next
	}
	now := r.tracer.opts.Clock()
	if r.slots == 0 {
		r.base = now
	}
	s := &r.tail.slots[i]
	s.rec, s.name, s.id, s.parent, s.start = r, name, r.slots, parent, now.Sub(r.base)
	r.slots++
	return s
}

// find returns s's attribute named key, or nil. Called with r.mu held.
func (r *recorder) find(s *Span, key string) *attr {
	for i := range s.attrs[:s.nattr] {
		if s.attrs[i].key == key {
			return &s.attrs[i]
		}
	}
	for i := range r.spill {
		if r.spill[i].slot == s.id && r.spill[i].key == key {
			return &r.spill[i]
		}
	}
	return nil
}

// spanID renders a slot number as its span ID; -1 is the root's parent.
func (r *recorder) spanID(slot int32) string {
	if slot < 0 {
		return r.parent
	}
	var b [20]byte
	hex.Encode(b[:], r.prefix[:])
	b[8] = '.'
	return string(strconv.AppendInt(b[:9], int64(slot)+1, 10))
}

func (r *recorder) attachRemote(spans []SpanData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	room := max(r.tracer.opts.MaxSpans-int(r.slots)-len(r.remote), 0)
	if len(spans) > room {
		r.tracer.droppedSpans.Add(int64(len(spans) - room))
		spans = spans[:room]
	}
	n := len(r.remote)
	r.remote = append(r.remote, spans...)
	for i := n; i < len(r.remote); i++ {
		r.remote[i].Remote = true
	}
}

func (r *recorder) appendSpans(dst []SpanData) []SpanData {
	r.mu.Lock()
	defer r.mu.Unlock()
	base, left := len(dst), r.slots
	dst = append(dst, make([]SpanData, r.ended)...)
	for c := &r.head; c != nil; c, left = c.next, left-slotsPerChunk {
		for i := range c.slots[:min(left, slotsPerChunk)] {
			s := &c.slots[i]
			if s.endSeq == 0 {
				continue
			}
			d := &dst[base+int(s.endSeq)-1]
			*d = SpanData{TraceID: r.traceID, SpanID: r.spanID(s.id), Parent: r.spanID(s.parent),
				Name: s.name, Site: r.site, Start: r.base.Add(s.start), Duration: s.dur, Err: s.err}
			if s.nattr > 0 {
				d.Attrs = make(map[string]string, s.nattr)
			}
			for _, a := range s.attrs[:s.nattr] {
				d.Attrs[a.key] = a.value()
			}
			for _, a := range r.spill {
				if a.slot == s.id {
					d.Attrs[a.key] = a.value()
				}
			}
		}
	}
	return append(dst, r.remote...)
}

// summary is the leg's /traces row. The root slot it reads is frozen: a
// recorder reaches the store only by its root ending.
func (r *recorder) summary() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	root := &r.head.slots[0]
	s := Summary{TraceID: r.traceID, Name: root.name, Site: r.site, Start: r.base,
		Duration: root.dur, Spans: int(r.ended) + len(r.remote), Err: root.err}
	if sql := r.find(root, "sql"); sql != nil {
		s.SQL = sql.value()
	}
	return s
}

// SlowQuery is one slow-query log entry.
type SlowQuery struct {
	Time    time.Time     `json:"time"`           // when the query started
	Site    string        `json:"site,omitempty"` // the gateway that served it
	SQL     string        `json:"sql"`
	Mode    string        `json:"mode,omitempty"`    // the execution mode
	Elapsed time.Duration `json:"elapsedNs"`         // gateway-side processing time
	TraceID string        `json:"traceId,omitempty"` // the stored trace, when the query was sampled
	Err     string        `json:"err,omitempty"`     // the query's failure, if it failed outright
}

// Stats counts tracer activity.
type Stats struct {
	Started      int64 // sampled root spans begun
	Stored       int64 // traces published to the store
	Evicted      int64 // traces evicted by the store's capacity
	SlowQueries  int64 // queries recorded in the slow-query log
	DroppedSpans int64 // spans discarded by the per-trace cap
}

// Tracer owns the sampling decision, the bounded trace store and the
// slow-query log. A nil *Tracer is valid and never samples.
type Tracer struct {
	opts Options

	seq atomic.Uint64

	mu     sync.Mutex
	traces map[string]*recorder // the first leg stored under each trace ID
	order  []string             // trace IDs, oldest first

	slowMu sync.Mutex
	slow   []SlowQuery // a ring once full: entry i of the log is slow[i%SlowLog]
	slowN  int         // entries ever logged

	started, stored, evicted atomic.Int64
	slowCount, droppedSpans  atomic.Int64
}

// New creates a Tracer.
func New(o Options) *Tracer {
	o.Capacity = cmp.Or(max(o.Capacity, 0), defaultCapacity)
	o.MaxSpans = cmp.Or(max(o.MaxSpans, 0), defaultMaxSpans)
	o.SlowLog = cmp.Or(max(o.SlowLog, 0), defaultSlowLog)
	o.SlowThreshold = cmp.Or(o.SlowThreshold, defaultSlowThreshold)
	o.Sample = cmp.Or(o.Sample, 1)
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return &Tracer{opts: o, traces: make(map[string]*recorder)}
}

// StartTrace begins the root span of one query. An inbound remote trace
// context (ContextWithRemote) takes precedence: the new root continues the
// remote trace ID under the remote parent span, sampled per the parent
// gateway's decision. Otherwise d and the tracer's Sample rate decide. The
// returned span is nil — and every operation on it a no-op — when the query
// is not sampled.
func (t *Tracer) StartTrace(ctx context.Context, name, site string, d Decision) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	car, remote := remoteFromContext(ctx)
	if !remote {
		car.Sampled = d == DecideOn || d == DecideSample && t.shouldSample()
	}
	if !car.Sampled {
		return ctx, nil
	}
	t.started.Add(1)
	rec := &recorder{tracer: t, traceID: car.TraceID, parent: car.Parent, site: site}
	rec.tail = &rec.head
	// One draw makes both identities: 16 bytes of trace ID, unless the
	// caller's continues, and the leg's span-ID prefix. Should crypto/rand
	// fail, a process-unique counter keeps IDs distinct.
	var rnd [20]byte
	if _, err := crand.Read(rnd[:]); err != nil {
		binary.BigEndian.PutUint64(rnd[12:], idFallback.Add(1))
	}
	copy(rec.prefix[:], rnd[16:])
	if !remote {
		rec.traceID = hex.EncodeToString(rnd[:16])
	}
	sp := rec.start(name, -1)
	return ContextWithSpan(ctx, sp), sp
}

var idFallback atomic.Uint64

// shouldSample decides deterministically (a multiplicative hash over a
// sequence counter) so tests are reproducible and no lock is taken.
func (t *Tracer) shouldSample() bool {
	r := t.opts.Sample
	if r <= 0 || r >= 1 {
		return r >= 1
	}
	h := (t.seq.Add(1) * 2654435761) & 0xffffffff
	return float64(h) < r*float64(uint64(1)<<32)
}

// store files one finished leg (the recorder itself, not a copy), evicting
// the oldest stored traces beyond capacity. A trace ID stored again —
// several serving legs of one parent trace on the same gateway — links the
// leg behind the first while the trace is under MaxSpans; whatever the
// trace and the new leg hold beyond the cap counts as dropped, so a
// replayed X-GridRM-Trace header cannot grow the store.
func (t *Tracer) store(r *recorder) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if last, ok := t.traces[r.traceID]; ok {
		total := last.summary().Spans
		for ; last.nextLeg != nil; last = last.nextLeg {
			total += last.nextLeg.summary().Spans
		}
		n := r.summary().Spans
		t.droppedSpans.Add(int64(min(n, max(total+n-t.opts.MaxSpans, 0))))
		if total < t.opts.MaxSpans {
			last.nextLeg = r
		}
		return
	}
	for len(t.order) >= t.opts.Capacity {
		delete(t.traces, t.order[0])
		t.order = t.order[1:]
		t.evicted.Add(1)
	}
	t.traces[r.traceID] = r
	t.order = append(t.order, r.traceID)
	t.stored.Add(1)
}

// Node is one span with its children, for the /traces/<id> JSON tree.
type Node struct {
	SpanData
	Children []*Node `json:"children,omitempty"`
}

// TraceData is one stored trace rendered as a span tree.
type TraceData struct {
	TraceID string  `json:"traceId"`
	Spans   int     `json:"spans"`
	Roots   []*Node `json:"roots"`
}

// Trace returns one stored trace as a span tree.
func (t *Tracer) Trace(id string) (*TraceData, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	leg, ok := t.traces[id]
	var spans []SpanData
	for ; leg != nil; leg = leg.nextLeg {
		spans = leg.appendSpans(spans)
	}
	t.mu.Unlock()
	if !ok {
		return nil, false
	}
	spans = spans[:min(len(spans), t.opts.MaxSpans)]
	return &TraceData{TraceID: id, Spans: len(spans), Roots: BuildTree(spans)}, true
}

// BuildTree links spans into parent/child trees ordered by start time.
// Spans whose parent is absent — the local root, or a remote fragment whose
// parent span lives on another gateway — become roots.
func BuildTree(spans []SpanData) []*Node {
	nodes := make(map[string]*Node, len(spans))
	ordered := make([]*Node, len(spans))
	for i := range spans {
		ordered[i] = &Node{SpanData: spans[i]}
		if _, dup := nodes[spans[i].SpanID]; !dup {
			nodes[spans[i].SpanID] = ordered[i]
		}
	}
	// Sorted once, so roots and every Children list come out in start order.
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Start.Before(ordered[j].Start) })
	var roots []*Node
	for _, n := range ordered {
		if p, ok := nodes[n.Parent]; ok && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// Summary is one stored trace's listing row (GET /traces).
type Summary struct {
	TraceID  string        `json:"traceId"`
	Name     string        `json:"name"`
	Site     string        `json:"site,omitempty"`
	SQL      string        `json:"sql,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	Spans    int           `json:"spans"`
	Err      string        `json:"err,omitempty"`
}

// Traces lists stored traces, newest first: the first leg's root, and the
// span count across legs.
func (t *Tracer) Traces() []Summary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Summary, 0, len(t.order))
	for i := len(t.order) - 1; i >= 0; i-- {
		head := t.traces[t.order[i]]
		s := head.summary()
		for leg := head.nextLeg; leg != nil; leg = leg.nextLeg {
			s.Spans += leg.summary().Spans
		}
		s.Spans = min(s.Spans, t.opts.MaxSpans)
		out = append(out, s)
	}
	return out
}

// ObserveQuery records q in the slow-query log when its Elapsed is at or
// above SlowThreshold. Unsampled queries are observed too (with an empty
// TraceID), so the log catches slowness the sampler missed.
func (t *Tracer) ObserveQuery(q SlowQuery) {
	if t == nil || t.opts.SlowThreshold <= 0 || q.Elapsed < t.opts.SlowThreshold {
		return
	}
	t.slowCount.Add(1)
	t.slowMu.Lock()
	if len(t.slow) < t.opts.SlowLog {
		t.slow = append(t.slow, q)
	} else {
		t.slow[t.slowN%t.opts.SlowLog] = q
	}
	t.slowN++
	t.slowMu.Unlock()
}

// SlowQueries returns the slow-query log, newest first.
func (t *Tracer) SlowQueries() []SlowQuery {
	if t == nil {
		return nil
	}
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	out := make([]SlowQuery, len(t.slow))
	for i := range out {
		out[i] = t.slow[(t.slowN-1-i)%t.opts.SlowLog]
	}
	return out
}

// SlowThreshold returns the effective slow-query threshold (0 = disabled).
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return max(t.opts.SlowThreshold, 0)
}

// Stats returns tracer counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Started:      t.started.Load(),
		Stored:       t.stored.Load(),
		Evicted:      t.evicted.Load(),
		SlowQueries:  t.slowCount.Load(),
		DroppedSpans: t.droppedSpans.Load(),
	}
}
