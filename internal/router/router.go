// Package router implements the metric router behind GridRM's continuous
// queries (R-GMA's third query class): harvested rows flow in through
// Publish and fan out to subscribers and sinks, each behind its own
// *bounded* queue. The invariant the whole package defends: a stuck
// subscriber or a dead sink can never block Publish — and therefore never
// the harvest path — and never block shutdown.
//
// Overflow policy is drop-oldest with per-subscriber drop accounting, so a
// slow consumer sees the freshest rows and an honest gap count instead of
// silently wedging the pipeline. A consumer whose queue stays full past a
// configurable stall is evicted outright. Every row carries a router-wide
// sequence number; a bounded replay ring lets reconnecting consumers
// (SSE's Last-Event-ID) resume from the last row they saw, or learn that
// the gap is unrecoverable.
package router

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Metric is one routed row: a harvested GLUE-table row stamped with the
// router-wide sequence number assigned at publish.
type Metric struct {
	// Seq is the router-wide publish sequence number (1-based).
	Seq uint64 `json:"seq"`
	// Source is the data-source URL the row was harvested from.
	Source string `json:"source"`
	// Group is the GLUE group (table) name.
	Group string `json:"group"`
	// Time is the harvest time.
	Time time.Time `json:"time"`
	// Columns names the row's columns. Shared, not copied: treat as
	// read-only.
	Columns []string `json:"columns"`
	// Row holds the column values, aligned with Columns.
	Row []any `json:"row"`
}

// Options configures a Router.
type Options struct {
	// QueueSize bounds each subscriber's queue (default 256). When full,
	// the oldest queued metric is dropped and counted against the
	// subscriber.
	QueueSize int
	// ReplaySize bounds the replay ring used for resume-after-reconnect
	// (default 1024; negative disables replay). The ring grows to it as
	// rows arrive.
	ReplaySize int
	// Stall is how long a subscriber's queue may stay continuously full
	// before the subscriber is evicted (default 10s; negative disables
	// eviction).
	Stall time.Duration
	// Clock is injectable for tests; defaults to time.Now.
	Clock func() time.Time
}

func (o Options) fill() Options {
	if o.QueueSize <= 0 {
		o.QueueSize = 256
	}
	if o.ReplaySize == 0 {
		o.ReplaySize = 1024
	}
	if o.Stall == 0 {
		o.Stall = 10 * time.Second
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// Stats is a snapshot of router activity.
type Stats struct {
	// Published counts metrics accepted by Publish.
	Published int64
	// Enqueued counts per-subscriber enqueues (one metric fanned out to
	// three subscribers counts three).
	Enqueued int64
	// Dropped counts metrics dropped from subscriber queues (overflow)
	// or discarded at eviction.
	Dropped int64
	// Evicted counts subscribers evicted for stalling.
	Evicted int64
	// Subscribers is the current subscriber count (sinks excluded).
	Subscribers int
	// Sinks is the current sink count.
	Sinks int
	// SinkDelivered, SinkDropped, SinkRetries, SinkErrors and
	// SinkBreakerOpens aggregate every sink's counters; see SinkStats for
	// the per-sink split.
	SinkDelivered    int64
	SinkDropped      int64
	SinkRetries      int64
	SinkErrors       int64
	SinkBreakerOpens int64
}

// SubscriberStat is one subscriber's management view.
type SubscriberStat struct {
	ID        uint64 `json:"id"`
	Name      string `json:"name,omitempty"`
	Enqueued  int64  `json:"enqueued"`
	Dropped   int64  `json:"dropped"`
	Pending   int    `json:"pending"`
	Evicted   bool   `json:"evicted,omitempty"`
	Gapped    bool   `json:"gapped,omitempty"`
	LastSeq   uint64 `json:"last_seq"`
	SinceSecs int64  `json:"age_secs"`
}

// Router fans published metrics out to subscribers and sinks.
type Router struct {
	opts Options

	mu     sync.RWMutex
	subs   map[uint64]*Subscription
	sinks  map[string]*sinkRunner
	nextID uint64
	closed bool // intake closed: Publish is a no-op
	active atomic.Int64

	replay replayRing

	published atomic.Int64
	enqueued  atomic.Int64
	dropped   atomic.Int64
	evicted   atomic.Int64

	// Sink counters live on the router so totals survive sink removal.
	sinkDelivered    atomic.Int64
	sinkDropped      atomic.Int64
	sinkRetries      atomic.Int64
	sinkErrors       atomic.Int64
	sinkBreakerOpens atomic.Int64
}

// New creates a Router.
func New(opts Options) *Router {
	o := opts.fill()
	r := &Router{
		opts:  o,
		subs:  make(map[uint64]*Subscription),
		sinks: make(map[string]*sinkRunner),
	}
	r.replay.size = max(o.ReplaySize, 0)
	return r
}

// Idle reports whether the router has no consumers at all; the harvest
// path uses it to skip row publication entirely when nothing listens.
func (r *Router) Idle() bool { return r.active.Load() == 0 }

// Publish records a harvested result's rows in the replay ring and fans
// them out to every matching subscriber and sink. It never blocks: full
// queues drop their oldest entry, and consumers stalled past Options.Stall
// are evicted. Rows are recorded even when nothing listens; callers that
// would box rows for nobody check Idle first. Returns the number of rows
// accepted (0 after Close).
func (r *Router) Publish(source, group string, columns []string, rows [][]any, at time.Time) int {
	if len(rows) == 0 {
		return 0
	}
	now := r.opts.Clock()
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return 0
	}
	var evict []*Subscription
	n := 0
	for _, row := range rows {
		m := Metric{Source: source, Group: group, Time: at, Columns: columns, Row: row}
		m.Seq = r.replay.append(m)
		r.published.Add(1)
		n++
		for _, s := range r.subs {
			out, ok := s.match(m)
			if !ok {
				continue
			}
			if s.offer(out, now) && !s.sink {
				evict = append(evict, s)
			}
		}
	}
	r.mu.RUnlock()
	for _, s := range evict {
		r.evict(s, now)
	}
	return n
}

// evict removes a stalled subscriber: its Done channel closes, queued
// metrics are discarded and counted as drops.
func (r *Router) evict(s *Subscription, now time.Time) {
	if !s.evicted.CompareAndSwap(false, true) {
		return
	}
	s.evictedAt = now
	r.mu.Lock()
	delete(r.subs, s.id)
	r.mu.Unlock()
	r.active.Add(-1)
	r.evicted.Add(1)
	// Drain what the consumer never took so the drop count is honest, and
	// final by the time Done closes.
	defer s.close()
	for {
		select {
		case <-s.ch:
			s.dropped.Add(1)
			r.dropped.Add(1)
		default:
			return
		}
	}
}

// SubscribeOptions configures one subscription.
type SubscribeOptions struct {
	// Name labels the subscriber in stats (optional).
	Name string
	// Match filters and optionally transforms each published metric; nil
	// passes everything through unchanged. It runs on the publish path
	// and must be fast and lock-free.
	Match func(Metric) (Metric, bool)
	// FromSeq, when non-zero, replays buffered metrics with Seq > FromSeq
	// before live delivery begins. If the replay ring no longer reaches
	// back that far the subscription is marked Gapped.
	FromSeq uint64
	// Queue overrides Options.QueueSize for this subscriber.
	Queue int
}

// Subscribe registers a consumer. The returned subscription's channel is
// closed never; consumers select on C() and Done().
func (r *Router) Subscribe(opts SubscribeOptions) (*Subscription, error) {
	queue := opts.Queue
	if queue <= 0 {
		queue = r.opts.QueueSize
	}
	match := opts.Match
	if match == nil {
		match = func(m Metric) (Metric, bool) { return m, true }
	}
	s := &Subscription{
		r:     r,
		name:  opts.Name,
		match: match,
		ch:    make(chan Metric, queue),
		done:  make(chan struct{}),
		born:  r.opts.Clock(),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("router: closed")
	}
	r.nextID++
	s.id = r.nextID
	if opts.FromSeq > 0 {
		replayed, gapped := r.replay.since(opts.FromSeq, func(m Metric) {
			if out, ok := s.match(m); ok {
				s.offer(out, s.born)
			}
		})
		s.gapped = gapped
		_ = replayed
	}
	r.subs[s.id] = s
	r.active.Add(1)
	return s, nil
}

// Subscription is one consumer's bounded mailbox.
type Subscription struct {
	r     *Router
	id    uint64
	name  string
	match func(Metric) (Metric, bool)
	ch    chan Metric
	done  chan struct{}
	once  sync.Once
	born  time.Time

	enqueued atomic.Int64
	dropped  atomic.Int64
	lastSeq  atomic.Uint64
	// mu serialises offers: a send landing in the slot another publisher's
	// drop-oldest just freed would read as the consumer catching up.
	mu sync.Mutex
	// fullSince (under mu) is when the current full stretch first
	// overflowed; zero while the queue accepts sends.
	fullSince time.Time
	evicted   atomic.Bool
	evictedAt time.Time // set once at eviction, before Done closes
	gapped    bool      // set once at Subscribe, read-only afterwards
	sink      bool      // owned by a sinkRunner: hidden from Subscribers, never evicted
}

// offer enqueues m with drop-oldest overflow, returning true when the
// subscriber has been continuously full past the stall threshold and
// should be evicted.
func (s *Subscription) offer(m Metric, now time.Time) (stalled bool) {
	if s.evicted.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- m:
		s.noteEnqueue(m.Seq)
		s.fullSince = time.Time{}
		return false
	default:
	}
	// Full: start (or continue) the stall clock, then drop the oldest.
	if s.fullSince.IsZero() {
		s.fullSince = now
	} else if s.r.opts.Stall > 0 && now.Sub(s.fullSince) >= s.r.opts.Stall {
		stalled = true
	}
	select {
	case <-s.ch:
		s.dropped.Add(1)
		s.r.dropped.Add(1)
	default: // the consumer emptied the queue meanwhile
	}
	s.ch <- m // cannot block: mu admits no other sender and a slot is free
	s.noteEnqueue(m.Seq)
	return stalled
}

func (s *Subscription) noteEnqueue(seq uint64) {
	s.enqueued.Add(1)
	s.r.enqueued.Add(1)
	for {
		last := s.lastSeq.Load()
		if seq <= last || s.lastSeq.CompareAndSwap(last, seq) {
			return
		}
	}
}

// C is the metric channel. It is never closed; select on Done too.
func (s *Subscription) C() <-chan Metric { return s.ch }

// Done closes when the subscription ends — Close, eviction, or router
// shutdown. Buffered metrics may still be drained from C afterwards.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Close unsubscribes. Idempotent, safe concurrently with Publish.
func (s *Subscription) Close() {
	s.r.mu.Lock()
	if _, ok := s.r.subs[s.id]; ok {
		delete(s.r.subs, s.id)
		s.r.active.Add(-1)
	}
	s.r.mu.Unlock()
	s.close()
}

func (s *Subscription) close() { s.once.Do(func() { close(s.done) }) }

// ID returns the subscription's router-local id.
func (s *Subscription) ID() uint64 { return s.id }

// Dropped counts metrics this subscriber lost to overflow or eviction.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Enqueued counts metrics enqueued for this subscriber.
func (s *Subscription) Enqueued() int64 { return s.enqueued.Load() }

// Evicted reports whether the router evicted this subscriber for
// stalling.
func (s *Subscription) Evicted() bool { return s.evicted.Load() }

// EvictedAt is when the router evicted this subscriber; read it after Done.
func (s *Subscription) EvictedAt() time.Time { return s.evictedAt }

// Gapped reports whether a FromSeq resume could not be fully served from
// the replay ring — rows between FromSeq and the ring's oldest entry are
// gone.
func (s *Subscription) Gapped() bool { return s.gapped }

// LastSeq is the highest sequence number enqueued so far.
func (s *Subscription) LastSeq() uint64 { return s.lastSeq.Load() }

// Stats returns a snapshot of router activity.
func (r *Router) Stats() Stats {
	r.mu.RLock()
	sinks := len(r.sinks)
	subs := 0
	for _, s := range r.subs {
		if !s.sink {
			subs++
		}
	}
	r.mu.RUnlock()
	return Stats{
		Published:        r.published.Load(),
		Enqueued:         r.enqueued.Load(),
		Dropped:          r.dropped.Load(),
		Evicted:          r.evicted.Load(),
		Subscribers:      subs,
		Sinks:            sinks,
		SinkDelivered:    r.sinkDelivered.Load(),
		SinkDropped:      r.sinkDropped.Load(),
		SinkRetries:      r.sinkRetries.Load(),
		SinkErrors:       r.sinkErrors.Load(),
		SinkBreakerOpens: r.sinkBreakerOpens.Load(),
	}
}

// Subscribers lists current subscribers for the management view, sorted
// by id.
func (r *Router) Subscribers() []SubscriberStat {
	now := r.opts.Clock()
	r.mu.RLock()
	out := make([]SubscriberStat, 0, len(r.subs))
	for _, s := range r.subs {
		if s.sink {
			continue
		}
		out = append(out, SubscriberStat{
			ID:        s.id,
			Name:      s.name,
			Enqueued:  s.enqueued.Load(),
			Dropped:   s.dropped.Load(),
			Pending:   len(s.ch),
			Evicted:   s.evicted.Load(),
			Gapped:    s.gapped,
			LastSeq:   s.lastSeq.Load(),
			SinceSecs: int64(now.Sub(s.born) / time.Second),
		})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Buffered returns the metrics held in the replay ring, oldest first.
func (r *Router) Buffered() []Metric {
	var out []Metric
	r.replay.since(0, func(m Metric) { out = append(out, m) })
	return out
}

// OldestBuffered returns the lowest sequence number still in the replay
// ring (0 when empty or replay is disabled).
func (r *Router) OldestBuffered() uint64 { return r.replay.oldest() }

// Seq returns the last sequence number assigned.
func (r *Router) Seq() uint64 { return r.replay.seq.Load() }

// replayRing is the bounded buffer of recent metrics serving
// resume-after-reconnect. It holds at most size metrics in buf, which starts
// empty and doubles as metrics arrive until it holds size: a ring that is
// seldom written costs what it holds, not what it may hold. A zero size
// disables replay (seq numbers are still assigned).
type replayRing struct {
	mu   sync.Mutex
	size int // the bound; fixed at New
	buf  []Metric
	next int
	full bool
	seq  atomic.Uint64
}

// replayFirstSlots is the room a ring makes when its first metric arrives.
const replayFirstSlots = 16

// append stamps m with the next sequence number, stores it and returns
// the assigned seq.
func (rr *replayRing) append(m Metric) uint64 {
	seq := rr.seq.Add(1)
	if rr.size == 0 {
		return seq
	}
	m.Seq = seq
	rr.mu.Lock()
	if rr.next == len(rr.buf) {
		// Not wrapped yet, so buf is oldest first: double it.
		grown := make([]Metric, min(max(2*len(rr.buf), replayFirstSlots), rr.size))
		copy(grown, rr.buf)
		rr.buf = grown
	}
	rr.buf[rr.next] = m
	rr.next++
	if rr.next == rr.size {
		rr.next = 0
		rr.full = true
	}
	rr.mu.Unlock()
	return seq
}

// since feeds every buffered metric with Seq > after to fn in order,
// reporting how many were fed and whether rows between after and the
// oldest buffered entry are already gone.
func (rr *replayRing) since(after uint64, fn func(Metric)) (n int, gapped bool) {
	if rr.size == 0 {
		return 0, rr.seq.Load() > after
	}
	rr.mu.Lock()
	var ordered []Metric
	if rr.full {
		ordered = append(ordered, rr.buf[rr.next:]...)
	}
	ordered = append(ordered, rr.buf[:rr.next]...)
	rr.mu.Unlock()
	if len(ordered) > 0 && ordered[0].Seq > after+1 {
		gapped = true
	}
	if len(ordered) == 0 && rr.seq.Load() > after {
		gapped = true
	}
	for _, m := range ordered {
		if m.Seq > after {
			fn(m)
			n++
		}
	}
	return n, gapped
}

// oldest returns the lowest buffered seq (0 when empty).
func (rr *replayRing) oldest() uint64 {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.full {
		return rr.buf[rr.next].Seq
	}
	if rr.next == 0 {
		return 0
	}
	return rr.buf[0].Seq
}
