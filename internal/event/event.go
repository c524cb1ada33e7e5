// Package event implements the GridRM Event Manager (paper §3.1.5, Fig 4):
// the bridge between native events issued by data sources and GridRM's
// internal event format.
//
// Inbound: event drivers receive native events, a per-driver Formatter
// translates them into the standard Event, and Publish places them on the
// fast buffer — an unbounded queue drained by a single dispatcher, which
// "ensures events are not lost in a busy system". The dispatcher records
// every event for historical analysis, evaluates threshold rules (which can
// synthesise alert events), forwards events to all registered listeners
// whose filters match, and transmits matching events back out through
// outbound drivers after translation to the data source's native format.
package event

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridrm/internal/sqlparse"
)

// Severity levels for events.
const (
	SeverityUsage  = "Usage"
	SeverityAlert  = "Alert"
	SeverityStatus = "Status"
)

// Event is GridRM's standard internal event format.
type Event struct {
	// Source is the data-source URL (or component name) the event
	// concerns.
	Source string
	// Host is the subject host, when applicable.
	Host string
	// Name identifies the event ("load-high", "cpu.util", ...).
	Name string
	// Severity is one of the Severity* levels.
	Severity string
	// Value carries the numeric payload, if any.
	Value float64
	// Time is when the event occurred.
	Time time.Time
	// Detail optionally carries free text.
	Detail string
}

// Filter selects events. Empty fields are wildcards; Name and Host accept
// SQL LIKE patterns (% and _).
type Filter struct {
	Source   string
	Host     string
	Name     string
	Severity string
}

// Matches reports whether the filter selects ev.
func (f Filter) Matches(ev Event) bool {
	if f.Source != "" && f.Source != ev.Source {
		return false
	}
	if f.Severity != "" && f.Severity != ev.Severity {
		return false
	}
	if f.Host != "" && !sqlparse.MatchLike(f.Host, ev.Host) {
		return false
	}
	if f.Name != "" && !sqlparse.MatchLike(f.Name, ev.Name) {
		return false
	}
	return true
}

// Listener receives events on the dispatcher goroutine; implementations
// must be fast or hand off to their own goroutine.
type Listener func(Event)

// InboundDriver is an event driver that consumes a native event feed and
// publishes translated events; the Manager only manages its lifecycle.
type InboundDriver interface {
	// Name identifies the driver.
	Name() string
	// Start begins consuming; translated events go to sink.
	Start(sink func(Event)) error
	// Close stops consuming.
	Close() error
}

// OutboundDriver transmits GridRM events to a data source in its native
// format (Fig 4's Transmitter API: "format standard GridRM event into a
// native provider event ... transmit to data source").
type OutboundDriver interface {
	// Name identifies the driver.
	Name() string
	// Transmit delivers one event natively.
	Transmit(Event) error
}

// CompareOp is the comparison applied by a ThresholdRule.
type CompareOp int

// Threshold comparison operators.
const (
	Above CompareOp = iota
	Below
)

// ThresholdRule synthesises an alert when a matching event's value crosses
// a threshold ("Threshold exceeded. Alert transmitted", Fig 3/4).
type ThresholdRule struct {
	// Name names the synthesised alert event.
	Name string
	// Match selects the input events the rule watches.
	Match Filter
	// Op and Threshold define the crossing test.
	Op        CompareOp
	Threshold float64
	// Rearm is the hysteresis fraction: after firing, the rule re-arms
	// for a host once the value returns past Threshold*Rearm (Above) or
	// Threshold/Rearm (Below). Zero means fire on every crossing event.
	Rearm float64
}

func (r *ThresholdRule) exceeded(v float64) bool {
	if r.Op == Above {
		return v > r.Threshold
	}
	return v < r.Threshold
}

func (r *ThresholdRule) rearmed(v float64) bool {
	if r.Rearm == 0 {
		return true
	}
	if r.Op == Above {
		return v <= r.Threshold*r.Rearm
	}
	return v >= r.Threshold/r.Rearm
}

// Stats counts Event Manager activity.
type Stats struct {
	// Published counts events accepted by Publish.
	Published int64
	// Dispatched counts events fully processed by the dispatcher.
	Dispatched int64
	// Delivered counts listener invocations.
	Delivered int64
	// Dropped counts events discarded from a full fast buffer
	// (Options.MaxQueue overflow). Zero in the default unbounded mode.
	Dropped int64
	// Transmitted counts successful outbound transmissions.
	Transmitted int64
	// TransmitErrors counts failed outbound transmissions.
	TransmitErrors int64
	// Alerts counts threshold alerts synthesised.
	Alerts int64
	// HighWater is the deepest the fast buffer has been.
	HighWater int64
}

// Options configures a Manager.
type Options struct {
	// HistorySize bounds the recorded event ring (default 4096).
	HistorySize int
	// MaxQueue bounds the fast buffer. The default 0 keeps the paper's
	// unbounded "events are not lost" mode — but an unbounded buffer
	// behind a wedged listener grows without bound, so busy gateways set
	// a cap. When full, Publish drops the *oldest* queued event and
	// counts it in Stats.Dropped; Publish itself never blocks either way.
	MaxQueue int
}

// Manager is the Event Manager.
type Manager struct {
	opts Options

	mu        sync.Mutex
	queue     []Event // fast buffer
	cond      *sync.Cond
	closed    bool
	listeners map[int64]*subscription
	nextID    int64
	outbound  []outboundEntry
	rules     []*ruleState
	history   []Event
	histNext  int
	histFull  bool
	inbound   []InboundDriver

	published, dispatched, delivered       atomic.Int64
	dropped                                atomic.Int64
	transmitted, transmitErrors, alertsCnt atomic.Int64
	highWater                              atomic.Int64

	wg sync.WaitGroup // dispatcher
}

type subscription struct {
	filter Filter
	fn     Listener
}

type outboundEntry struct {
	filter Filter
	drv    OutboundDriver
}

type ruleState struct {
	rule  ThresholdRule
	fired map[string]bool // host → currently fired
}

// NewManager creates and starts an Event Manager.
func NewManager(opts Options) *Manager {
	if opts.HistorySize <= 0 {
		opts.HistorySize = 4096
	}
	m := &Manager{
		opts:      opts,
		listeners: make(map[int64]*subscription),
		history:   make([]Event, opts.HistorySize),
	}
	m.cond = sync.NewCond(&m.mu)
	m.wg.Add(1)
	go m.dispatch()
	return m
}

// Publish places an event on the fast buffer. It never blocks on slow
// consumers; with the default unbounded buffer it never drops either,
// while a configured MaxQueue drops the oldest queued event (counted in
// Stats.Dropped) instead of growing without bound. Close discards events
// published after shutdown.
func (m *Manager) Publish(ev Event) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if m.opts.MaxQueue > 0 && len(m.queue) >= m.opts.MaxQueue {
		m.queue = m.queue[1:]
		m.dropped.Add(1)
	}
	m.queue = append(m.queue, ev)
	depth := int64(len(m.queue))
	m.cond.Signal()
	m.mu.Unlock()
	m.published.Add(1)
	for {
		hw := m.highWater.Load()
		if depth <= hw || m.highWater.CompareAndSwap(hw, depth) {
			return
		}
	}
}

// Subscribe registers a listener for events matching filter, returning an
// id for Unsubscribe.
func (m *Manager) Subscribe(filter Filter, fn Listener) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	m.listeners[m.nextID] = &subscription{filter: filter, fn: fn}
	return m.nextID
}

// Unsubscribe removes a listener.
func (m *Manager) Unsubscribe(id int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.listeners, id)
}

// ListenerCount returns the number of registered listeners.
func (m *Manager) ListenerCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.listeners)
}

// AddOutbound registers an outbound driver for events matching filter.
func (m *Manager) AddOutbound(filter Filter, drv OutboundDriver) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.outbound = append(m.outbound, outboundEntry{filter: filter, drv: drv})
}

// AddRule installs a threshold rule.
func (m *Manager) AddRule(r ThresholdRule) error {
	if r.Name == "" {
		return fmt.Errorf("event: rule must be named")
	}
	if r.Rearm < 0 || r.Rearm > 1 {
		return fmt.Errorf("event: rearm fraction %v out of range [0,1]", r.Rearm)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rules = append(m.rules, &ruleState{rule: r, fired: make(map[string]bool)})
	return nil
}

// AttachInbound starts an inbound event driver feeding this manager; the
// manager closes it on shutdown.
func (m *Manager) AttachInbound(d InboundDriver) error {
	if err := d.Start(m.Publish); err != nil {
		return fmt.Errorf("event: starting %s: %w", d.Name(), err)
	}
	m.mu.Lock()
	m.inbound = append(m.inbound, d)
	m.mu.Unlock()
	return nil
}

// History returns recorded events matching filter at or after since
// (zero = all), oldest first.
func (m *Manager) History(filter Filter, since time.Time) []Event {
	m.mu.Lock()
	var all []Event
	if m.histFull {
		all = append(all, m.history[m.histNext:]...)
	}
	all = append(all, m.history[:m.histNext]...)
	m.mu.Unlock()
	var out []Event
	for _, ev := range all {
		if !since.IsZero() && ev.Time.Before(since) {
			continue
		}
		if filter.Matches(ev) {
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// Stats returns a snapshot of counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Published:      m.published.Load(),
		Dispatched:     m.dispatched.Load(),
		Delivered:      m.delivered.Load(),
		Dropped:        m.dropped.Load(),
		Transmitted:    m.transmitted.Load(),
		TransmitErrors: m.transmitErrors.Load(),
		Alerts:         m.alertsCnt.Load(),
		HighWater:      m.highWater.Load(),
	}
}

// QueueDepth returns how many events are waiting in the fast buffer right
// now (the dispatcher backlog; exported as gridrm_event_queue_depth).
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// Drain blocks until every event published so far has been dispatched
// (listeners run on the dispatcher, so delivered too). Events dropped from
// a bounded fast buffer count as handled — they will never dispatch.
func (m *Manager) Drain() {
	for {
		m.mu.Lock()
		empty := len(m.queue) == 0
		m.mu.Unlock()
		if empty && m.dispatched.Load()+m.dropped.Load() >= m.published.Load() {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// Close stops the dispatcher after draining the buffer and closes inbound
// drivers.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	inbound := m.inbound
	m.inbound = nil
	m.cond.Signal()
	m.mu.Unlock()
	for _, d := range inbound {
		_ = d.Close()
	}
	m.wg.Wait()
}

func (m *Manager) dispatch() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		done := len(m.queue) == 0 && m.closed
		batch := m.queue
		m.queue = nil
		m.mu.Unlock()
		if done {
			return
		}
		for _, ev := range batch {
			m.process(ev)
			m.dispatched.Add(1)
		}
	}
}

func (m *Manager) process(ev Event) {
	m.mu.Lock()
	// Record for historical analysis.
	m.history[m.histNext] = ev
	m.histNext++
	if m.histNext == len(m.history) {
		m.histNext = 0
		m.histFull = true
	}
	// Threshold rules may synthesise alerts, processed inline so ordering
	// is alert-after-cause.
	var alerts []Event
	for _, rs := range m.rules {
		if !rs.rule.Match.Matches(ev) {
			continue
		}
		key := ev.Host
		switch {
		case !rs.fired[key] && rs.rule.exceeded(ev.Value):
			rs.fired[key] = true
			alerts = append(alerts, Event{
				Source:   ev.Source,
				Host:     ev.Host,
				Name:     rs.rule.Name,
				Severity: SeverityAlert,
				Value:    ev.Value,
				Time:     ev.Time,
				Detail:   fmt.Sprintf("threshold %v crossed by %s=%v", rs.rule.Threshold, ev.Name, ev.Value),
			})
		case rs.fired[key] && rs.rule.rearmed(ev.Value):
			rs.fired[key] = false
		}
	}
	subs := make([]*subscription, 0, len(m.listeners))
	for _, s := range m.listeners {
		if s.filter.Matches(ev) {
			subs = append(subs, s)
		}
	}
	outs := make([]outboundEntry, 0, len(m.outbound))
	for _, o := range m.outbound {
		if o.filter.Matches(ev) {
			outs = append(outs, o)
		}
	}
	m.mu.Unlock()

	for _, s := range subs {
		s.fn(ev)
		m.delivered.Add(1)
	}
	for _, o := range outs {
		if err := o.drv.Transmit(ev); err != nil {
			m.transmitErrors.Add(1)
		} else {
			m.transmitted.Add(1)
		}
	}
	for _, alert := range alerts {
		m.alertsCnt.Add(1)
		m.published.Add(1) // alerts count as published events
		m.process(alert)
		m.dispatched.Add(1)
	}
}
