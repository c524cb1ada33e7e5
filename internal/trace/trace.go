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
// The whole API tolerates the untraced case: an unsampled query carries the
// zero Span and every span operation on it is a no-op, so the untraced hot
// path costs a context lookup and a nil check per stage. A sampled query
// takes one recorder, reused from a trace the store evicted when one is
// free; its spans are slots inside it (see recorder).
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
	"unsafe"
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

// Span is a handle on a live span: its recorder, its slot there, and the
// recorder's generation when the slot was claimed. The zero Span is the
// untraced no-op: every method does nothing. Recorders are reused once the
// store evicts their trace, so every method takes the recorder's lock and
// does nothing when the generation has moved on: a handle kept past its
// trace cannot reach the trace that reuses the memory.
type Span struct {
	rec  *recorder
	slot int32
	gen  uint32
}

// slot is one span's state inside a recorder, guarded by rec.mu and frozen
// once the span has ended.
type slot struct {
	name   string
	err    string
	start  time.Duration // offset from rec.base
	dur    time.Duration
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

// lock returns s's recorder locked, or nil when s is the zero Span or past
// its generation.
func (s Span) lock() *recorder {
	r := s.rec
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if r.gen != s.gen {
		r.mu.Unlock()
		return nil
	}
	return r
}

// Recording reports whether s belongs to a sampled trace: false for the
// zero Span of an untraced request. It takes no lock, so it stays true for
// a handle kept past its trace, whose methods do nothing.
func (s Span) Recording() bool { return s.rec != nil }

// SetAttr annotates the span; a repeated key overwrites.
func (s Span) SetAttr(key, value string) { s.set(attr{key: key, str: value}) }

// SetAttrInt annotates the span with a number, formatted only when read.
func (s Span) SetAttrInt(key string, v int) { s.set(attr{key: key, num: int64(v), isNum: true}) }

func (s Span) set(a attr) {
	r := s.lock()
	if r == nil {
		return
	}
	defer r.mu.Unlock()
	sl := r.at(s.slot)
	if sl.endSeq != 0 {
		return
	}
	a.slot = s.slot
	if old := r.find(sl, s.slot, a.key); old != nil {
		*old = a
	} else if sl.nattr < inlineAttrs {
		sl.attrs[sl.nattr] = a
		sl.nattr++
	} else {
		r.spill = append(r.spill, a)
	}
}

// SetError records err on the span (no-op for nil err).
func (s Span) SetError(err error) {
	if s.rec == nil || err == nil {
		return
	}
	msg := err.Error()
	r := s.lock()
	if r == nil {
		return
	}
	if sl := r.at(s.slot); sl.endSeq == 0 {
		sl.err = msg
	}
	r.mu.Unlock()
}

// TraceID returns the span's trace ID ("" for the zero Span or a handle
// past its trace).
func (s Span) TraceID() string {
	r := s.lock()
	if r == nil {
		return ""
	}
	defer r.mu.Unlock()
	return r.traceID
}

// SpanID returns the span's ID ("" for the zero Span or a handle past its
// trace).
func (s Span) SpanID() string {
	r := s.lock()
	if r == nil {
		return ""
	}
	defer r.mu.Unlock()
	return r.spanID(s.slot)
}

// ParentID returns the parent span's ID. A root span with a non-empty
// parent is continuing a trace propagated from a remote gateway.
func (s Span) ParentID() string {
	r := s.lock()
	if r == nil {
		return ""
	}
	defer r.mu.Unlock()
	return r.spanID(r.at(s.slot).parent)
}

// IsRoot reports whether this span is its trace's local root.
func (s Span) IsRoot() bool { return s.rec != nil && s.slot == 0 }

// Child begins a child of s without deriving a context: the form for a span
// nothing hangs off (parse, consolidate, pool-checkout ...), and what
// StartSpan is built on. It returns the zero Span when s is the zero Span,
// past its trace, or the trace is full.
func (s Span) Child(name string) Span {
	r := s.lock()
	if r == nil {
		return Span{}
	}
	defer r.mu.Unlock()
	return r.start(name, s.slot)
}

// End finishes the span in place; ending the root moves the whole recorder
// into the tracer's store. End is idempotent. A span that ends after its
// root (a coalesced harvest outliving the query that began it, a hedged
// loser) still ends in its own slot and shows up in the stored trace. The
// store recycles an evicted trace only once every span of it has ended.
func (s Span) End() { s.end(false) }

// EndCollected ends s as End does and returns what Collected would return
// just after, read under the same lock: the form for a root that ships its
// trace on the wire, whose recorder may be evicted and reused as soon as
// it is stored. It returns nil when s had already ended.
func (s Span) EndCollected() []SpanData { return s.end(true) }

func (s Span) end(collect bool) []SpanData {
	r := s.lock()
	if r == nil {
		return nil
	}
	sl := r.at(s.slot)
	if sl.endSeq != 0 {
		r.mu.Unlock()
		return nil
	}
	sl.dur = r.tracer.opts.Clock().Sub(r.base) - sl.start
	r.ended++
	sl.endSeq = r.ended
	var out []SpanData
	if collect {
		out = r.appendSpans(nil)
	}
	r.mu.Unlock()
	if s.slot == 0 {
		r.tracer.store(r)
	}
	return out
}

// Collected materialises every span ended in this span's trace so far, in
// the order they ended, then the spans stitched in from remote gateways.
// Read it on a root before End, or take EndCollected, to ship the trace on
// the wire.
func (s Span) Collected() []SpanData {
	r := s.lock()
	if r == nil {
		return nil
	}
	defer r.mu.Unlock()
	return r.appendSpans(nil)
}

// attachRemote stitches spans recorded by a remote gateway into s's trace.
func (s Span) attachRemote(spans []SpanData) {
	r := s.lock()
	if r == nil {
		return
	}
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

// slotsPerChunk lets a single-source query (7 spans) live entirely in the
// recorder's own first chunk.
const slotsPerChunk = 8

// chunk is a block of slots. A recorder's chunks are only ever appended
// while its trace is live; they return to the tracer's free list when the
// store evicts the trace, every span of it ended.
type chunk struct {
	slots [slotsPerChunk]slot
	next  *chunk
}

// recorder is one serving leg of one trace: the trace-wide facts once, and
// the spans as slots. Span IDs, SpanData and the carrier are strings only
// where something reads them: Collected, Tracer.Trace, CarrierFromContext.
// A recorder outlives its trace when it is recycled; gen tells its traces
// apart.
type recorder struct {
	tracer *Tracer
	// nextLeg is a later leg stored under the same trace ID (tracer.mu),
	// or the next free recorder (tracer.freeMu).
	nextLeg *recorder

	mu      sync.Mutex
	gen     uint32 // bumped when the store retires the recorder; a Span from before no longer matches
	traceID string
	parent  string    // the remote caller's span ID; "" for a locally rooted trace
	site    string    // the gateway recording this leg
	base    time.Time // the root's start; slots hold offsets from it
	// rnd is one crypto/rand draw per serving leg, made into the recorder
	// so it escapes nowhere: 16 bytes of trace ID, unless the caller's
	// continues, then the span-ID prefix. Prefix + slot number make span
	// IDs, and "." keeps them clear of the carrier's "-" separator.
	rnd    [20]byte
	slots  int32 // started
	ended  int32
	stored bool // filed in the store: its chunks count in tracer.held
	tail   *chunk
	spill  []attr
	remote []SpanData
	head   chunk
}

// start claims the next slot; the zero Span (and one DroppedSpans) at the
// cap. Called with r.mu held.
func (r *recorder) start(name string, parent int32) Span {
	t := r.tracer
	if int(r.slots)+len(r.remote) >= t.opts.MaxSpans {
		t.droppedSpans.Add(1)
		return Span{}
	}
	i := r.slots % slotsPerChunk
	if i == 0 && r.slots > 0 {
		r.tail.next = t.takeChunk()
		r.tail = r.tail.next
		if r.stored {
			t.held.Add(chunkBytes)
		}
	}
	now := t.opts.Clock()
	if r.slots == 0 {
		r.base = now
	}
	r.tail.slots[i] = slot{name: name, parent: parent, start: now.Sub(r.base)}
	sp := Span{rec: r, slot: r.slots, gen: r.gen}
	r.slots++
	return sp
}

// at returns slot i. Called with r.mu held.
func (r *recorder) at(i int32) *slot {
	c := &r.head
	for ; i >= slotsPerChunk; i -= slotsPerChunk {
		c = c.next
	}
	return &c.slots[i]
}

// find returns slot i's attribute named key, or nil. Called with r.mu held.
func (r *recorder) find(sl *slot, i int32, key string) *attr {
	for j := range sl.attrs[:sl.nattr] {
		if sl.attrs[j].key == key {
			return &sl.attrs[j]
		}
	}
	for j := range r.spill {
		if r.spill[j].slot == i && r.spill[j].key == key {
			return &r.spill[j]
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
	hex.Encode(b[:], r.rnd[16:])
	b[8] = '.'
	return string(strconv.AppendInt(b[:9], int64(slot)+1, 10))
}

// appendSpans materialises the leg's ended spans, then its remote ones.
// Called with r.mu held.
func (r *recorder) appendSpans(dst []SpanData) []SpanData {
	base, left := len(dst), r.slots
	dst = append(dst, make([]SpanData, r.ended)...)
	for c := &r.head; c != nil && left > 0; c, left = c.next, left-slotsPerChunk {
		for i := range c.slots[:min(left, slotsPerChunk)] {
			s := &c.slots[i]
			if s.endSeq == 0 {
				continue
			}
			id := r.slots - left + int32(i)
			d := &dst[base+int(s.endSeq)-1]
			*d = SpanData{TraceID: r.traceID, SpanID: r.spanID(id), Parent: r.spanID(s.parent),
				Name: s.name, Site: r.site, Start: r.base.Add(s.start), Duration: s.dur, Err: s.err}
			if s.nattr > 0 {
				d.Attrs = make(map[string]string, s.nattr)
			}
			for _, a := range s.attrs[:s.nattr] {
				d.Attrs[a.key] = a.value()
			}
			for _, a := range r.spill {
				if a.slot == id {
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
	if sql := r.find(root, 0, "sql"); sql != nil {
		s.SQL = sql.value()
	}
	return s
}

// heldBytes is what the leg's recorder and its chunks occupy. Called with
// r.mu held.
func (r *recorder) heldBytes() int64 {
	return recorderBytes + int64(max(r.slots-1, 0)/slotsPerChunk)*chunkBytes
}

// hold files the leg's memory under the store's. Called with tracer.mu held.
func (r *recorder) hold() {
	r.mu.Lock()
	r.stored = true
	r.tracer.held.Add(r.heldBytes())
	r.mu.Unlock()
}

// retire takes an evicted leg out of the store's memory, and back for
// reuse when every span it started has ended, reporting whether it did; a
// leg with a live span is left to the GC, which is where its straggler's
// handle keeps it. Bumping gen makes every handle on the leg inert. It
// returns the leg's extra chunks, unlinked. Called with tracer.mu held.
func (r *recorder) retire() (extra *chunk, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stored = false
	r.tracer.held.Add(-r.heldBytes())
	if r.ended != r.slots {
		return nil, false
	}
	r.gen++
	extra, r.head.next, r.tail = r.head.next, nil, &r.head
	r.slots, r.ended = 0, 0
	r.spill, r.remote = nil, nil
	return extra, true
}

// The free lists are bounded by constants: a few traces' worth, since the
// store evicts one trace for each it stores and each new trace takes one.
const (
	maxFreeRecorders = 16
	maxFreeChunks    = 64
)

// Sizes as the allocator hands them out: objects of 1 to 1.5 KB, as
// recorders and chunks are, fall in size classes 128 bytes apart.
var (
	recorderBytes = (int64(unsafe.Sizeof(recorder{})) + 127) &^ 127
	chunkBytes    = (int64(unsafe.Sizeof(chunk{})) + 127) &^ 127
)

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
	// Recycled counts evicted legs retired for reuse: every span they
	// started had ended, so their handles went inert. Those that find the
	// free lists full are left to the GC.
	Recycled int64
	// Bytes is what the recorders and chunks held by the store and the
	// free lists occupy, kept as they come and go.
	Bytes int64
}

// Tracer owns the sampling decision, the bounded trace store and the
// slow-query log. A nil *Tracer is valid and never samples.
type Tracer struct {
	opts Options

	seq atomic.Uint64

	mu     sync.Mutex
	traces map[string]*recorder // the first leg stored under each trace ID
	order  []string             // trace IDs, oldest first from order[first]: a ring once Capacity long
	first  int

	// freeMu guards the free lists: evicted recorders linked by nextLeg
	// and their chunks linked by next. It is taken last, under a
	// recorder's lock when start needs a chunk.
	freeMu                 sync.Mutex
	freeRecs               *recorder
	freeChunks             *chunk
	nFreeRecs, nFreeChunks int

	slowMu sync.Mutex
	slow   []SlowQuery // a ring once full: entry i of the log is slow[i%SlowLog]
	slowN  int         // entries ever logged

	started, stored, evicted, recycled atomic.Int64
	slowCount, droppedSpans            atomic.Int64
	held                               atomic.Int64 // Stats.Bytes
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
// returned span is the zero Span — and every operation on it a no-op —
// when the query is not sampled.
func (t *Tracer) StartTrace(ctx context.Context, name, site string, d Decision) (context.Context, Span) {
	if t == nil {
		return ctx, Span{}
	}
	car, remote := remoteFromContext(ctx)
	if !remote {
		car.Sampled = d == DecideOn || d == DecideSample && t.shouldSample()
	}
	if !car.Sampled {
		return ctx, Span{}
	}
	t.started.Add(1)
	rec := t.takeRecorder()
	rec.mu.Lock()
	// Should crypto/rand fail, a process-unique counter keeps IDs distinct.
	if _, err := crand.Read(rec.rnd[:]); err != nil {
		binary.BigEndian.PutUint64(rec.rnd[12:], idFallback.Add(1))
	}
	if !remote {
		var id [32]byte
		hex.Encode(id[:], rec.rnd[:16])
		car.TraceID = string(id[:])
	}
	rec.traceID, rec.parent, rec.site = car.TraceID, car.Parent, site
	sp := rec.start(name, -1)
	rec.mu.Unlock()
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

// takeRecorder returns a recycled recorder, or a new one when none is free.
func (t *Tracer) takeRecorder() *recorder {
	t.freeMu.Lock()
	r := t.freeRecs
	if r != nil {
		t.freeRecs, r.nextLeg = r.nextLeg, nil
		t.nFreeRecs--
		t.held.Add(-recorderBytes)
	}
	t.freeMu.Unlock()
	if r == nil {
		r = &recorder{tracer: t}
		r.tail = &r.head
	}
	return r
}

// takeChunk returns a recycled chunk, or a new one when none is free.
func (t *Tracer) takeChunk() *chunk {
	t.freeMu.Lock()
	c := t.freeChunks
	if c != nil {
		t.freeChunks, c.next = c.next, nil
		t.nFreeChunks--
		t.held.Add(-chunkBytes)
	}
	t.freeMu.Unlock()
	if c == nil {
		c = new(chunk)
	}
	return c
}

// evict drops the oldest stored trace, recycling each of its legs whose
// spans have all ended into the free lists, as far as their caps allow.
// Called with t.mu held.
func (t *Tracer) evict() {
	id := t.order[t.first]
	leg := t.traces[id]
	delete(t.traces, id)
	t.evicted.Add(1)
	for leg != nil {
		r := leg
		leg, r.nextLeg = r.nextLeg, nil
		extra, ok := r.retire()
		if !ok {
			continue
		}
		t.recycled.Add(1)
		t.freeMu.Lock()
		if t.nFreeRecs < maxFreeRecorders {
			r.nextLeg, t.freeRecs = t.freeRecs, r
			t.nFreeRecs++
			t.held.Add(recorderBytes)
		}
		for c := extra; c != nil && t.nFreeChunks < maxFreeChunks; {
			next := c.next
			c.next, t.freeChunks = t.freeChunks, c
			t.nFreeChunks++
			t.held.Add(chunkBytes)
			c = next
		}
		t.freeMu.Unlock()
	}
}

// store files one finished leg (the recorder itself, not a copy), evicting
// the oldest stored trace once the store holds Capacity. A trace ID stored
// again — several serving legs of one parent trace on the same gateway —
// links the leg behind the first while the trace is under MaxSpans;
// whatever the trace and the new leg hold beyond the cap counts as dropped,
// so a replayed X-GridRM-Trace header cannot grow the store.
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
			r.hold()
		}
		return
	}
	if len(t.order) < t.opts.Capacity {
		t.order = append(t.order, r.traceID)
	} else {
		t.evict()
		t.order[t.first] = r.traceID
		t.first = (t.first + 1) % len(t.order)
	}
	t.traces[r.traceID] = r
	r.hold()
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
		leg.mu.Lock()
		spans = leg.appendSpans(spans)
		leg.mu.Unlock()
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
		head := t.traces[t.order[(t.first+i)%len(t.order)]]
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
		Recycled:     t.recycled.Load(),
		Bytes:        t.held.Load(),
	}
}
