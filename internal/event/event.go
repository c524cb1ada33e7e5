// Package event implements the GridRM Event Manager (paper §3.1.5, Fig 4):
// the bridge between native events issued by data sources and GridRM's
// internal event format.
//
// Events ride a router.Router of the Manager's own: its replay ring is the
// history, listeners are its subscriptions and outbound drivers its sinks,
// so Publish never blocks on a consumer and what one loses is counted.
package event

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridrm/internal/router"
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
	Source   string    // data-source URL (or component name) the event concerns
	Host     string    // subject host, when applicable
	Name     string    // identifies the event ("load-high", "cpu.util", ...)
	Severity string    // one of the Severity* levels
	Value    float64   // numeric payload, if any
	Time     time.Time // when the event occurred
	Detail   string    // optional free text
}

// HistorySize is how many recent events the replay ring keeps. An event is
// one row of columns in the router group "Event".
const (
	HistorySize = 4096
	group       = "Event"
	closeGrace  = 2 * time.Second // how long Close waits on consumers
)

var columns = []string{"Host", "Name", "Severity", "Value", "Detail"}

// eventOf reads an event back from the row publish wrote for it.
func eventOf(m router.Metric) Event {
	r := m.Row
	return Event{Source: m.Source, Host: r[0].(string), Name: r[1].(string), Severity: r[2].(string),
		Value: r[3].(float64), Time: m.Time, Detail: r[4].(string)}
}

// Filter selects events. Empty fields are wildcards; Name and Host accept
// SQL LIKE patterns (% and _).
type Filter struct{ Source, Host, Name, Severity string }

// Matches reports whether the filter selects ev.
func (f Filter) Matches(ev Event) bool {
	return (f.Source == "" || f.Source == ev.Source) &&
		(f.Severity == "" || f.Severity == ev.Severity) &&
		(f.Host == "" || sqlparse.MatchLike(f.Host, ev.Host)) &&
		(f.Name == "" || sqlparse.MatchLike(f.Name, ev.Name))
}

// match adapts f to the router's per-consumer match hook.
func (f Filter) match(m router.Metric) (router.Metric, bool) { return m, f.Matches(eventOf(m)) }

// InboundDriver is an event driver that consumes a native event feed and
// publishes translated events; the Manager only manages its lifecycle.
type InboundDriver interface {
	Name() string
	Start(sink func(Event)) error // begin consuming; translated events go to sink
	Close() error
}

// OutboundDriver transmits GridRM events to a data source in its native
// format (Fig 4's Transmitter API: "format standard GridRM event into a
// native provider event ... transmit to data source").
type OutboundDriver interface {
	Name() string
	Transmit(Event) error
}

// CompareOp is a ThresholdRule's comparison, Above or Below.
type CompareOp int

const (
	Above CompareOp = iota
	Below
)

// ThresholdRule synthesises an alert when a matching event's value crosses
// a threshold ("Threshold exceeded. Alert transmitted", Fig 3/4).
type ThresholdRule struct {
	Name      string // names the synthesised alert event
	Match     Filter // selects the input events the rule watches
	Op        CompareOp
	Threshold float64
	// Rearm is the hysteresis fraction: a fired rule re-arms for a host past
	// Threshold*Rearm (Above) or Threshold/Rearm (Below); 0 re-arms at once.
	Rearm float64
}

// rule is a ThresholdRule with the hosts it has fired for.
type rule struct {
	ThresholdRule
	fired map[string]bool
}

func newRule(r ThresholdRule) (*rule, error) {
	if r.Name == "" {
		return nil, fmt.Errorf("event: rule must be named")
	}
	if r.Rearm < 0 || r.Rearm > 1 {
		return nil, fmt.Errorf("event: rearm fraction %v out of range [0,1]", r.Rearm)
	}
	return &rule{ThresholdRule: r, fired: make(map[string]bool)}, nil
}

// check is the one crossing and re-arm test, for published events and
// harvested rows alike: it returns the alert cause raises, if any.
func (r *rule) check(cause Event) (Event, bool) {
	if !r.Match.Matches(cause) {
		return Event{}, false
	}
	v, t := cause.Value, r.Threshold
	exceeded, rearmed := v > t, r.Rearm == 0 || v <= t*r.Rearm
	if r.Op == Below {
		exceeded, rearmed = v < t, r.Rearm == 0 || v >= t/r.Rearm
	}
	fired := r.fired[cause.Host]
	if fired && rearmed {
		delete(r.fired, cause.Host)
	}
	if fired || !exceeded {
		return Event{}, false
	}
	r.fired[cause.Host] = true
	return Event{Source: cause.Source, Host: cause.Host, Name: r.Name, Severity: SeverityAlert,
		Value: v, Time: cause.Time, Detail: fmt.Sprintf("threshold %v crossed by %s=%v", t, cause.Name, v)}, true
}

// Stats counts Event Manager activity.
type Stats struct {
	Published int64 // events recorded, alerts included
	Delivered int64 // listener invocations
	// Dropped counts events listeners and outbound drivers lost: overflow,
	// eviction, or a batch that exhausted its retries or met a breaker.
	Dropped        int64
	Transmitted    int64 // events outbound drivers transmitted
	TransmitErrors int64 // outbound batches that exhausted their retries
	Alerts         int64 // threshold alerts synthesised
}

// Manager is the Event Manager.
type Manager struct {
	r *router.Router
	// mu serialises publishing, so each alert lands right after its cause.
	mu                sync.Mutex
	closed            bool
	rules             []*rule
	inbound           []InboundDriver
	delivered, alerts atomic.Int64
	listeners         sync.WaitGroup
}

// NewManager creates an Event Manager.
func NewManager() *Manager { return newManager(router.Options{ReplaySize: HistorySize}) }

func newManager(opts router.Options) *Manager { return &Manager{r: router.New(opts)} }

// Publish records ev, hands it to every matching listener and outbound
// driver, then publishes the alerts rules raise on it. It never blocks on a
// consumer. Events published after Close are discarded.
func (m *Manager) Publish(ev Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.publish(ev)
}

func (m *Manager) publish(ev Event) {
	row := []any{ev.Host, ev.Name, ev.Severity, ev.Value, ev.Detail}
	if m.r.Publish(ev.Source, group, columns, [][]any{row}, ev.Time) == 0 {
		return // closed
	}
	for _, rl := range m.rules {
		m.raise(rl, ev)
	}
}

// raise publishes the alert rl raises on cause, if any. m.mu is held.
func (m *Manager) raise(rl *rule, cause Event) {
	if alert, ok := rl.check(cause); ok {
		m.alerts.Add(1)
		m.publish(alert)
	}
}

// Subscribe calls fn, on a goroutine of its own, for events matching filter
// and returns the func that removes it. A listener a queue behind loses the
// oldest events (counted in Stats.Dropped); one that stalls is evicted.
func (m *Manager) Subscribe(filter Filter, fn func(Event)) (unsubscribe func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return func() {}
	}
	sub, err := m.r.Subscribe(router.SubscribeOptions{Name: "listener", Match: filter.match})
	if err != nil {
		return func() {}
	}
	m.listeners.Add(1)
	go func() {
		defer m.listeners.Done()
		// After Done, take what was queued (an evicted queue was dropped).
		for done := false; !done || len(sub.C()) > 0; {
			select {
			case mt := <-sub.C():
				fn(eventOf(mt))
				m.delivered.Add(1)
			case <-sub.Done():
				done = true
			}
		}
	}()
	return sub.Close
}

// outbound adapts an OutboundDriver to a router sink, so Transmit runs on
// the sink's goroutine under its retries, backoff and breaker.
type outbound struct {
	drv  OutboundDriver
	sent uint64 // highest Seq transmitted: a retried batch skips what went
}

func (o *outbound) Name() string { return "event:" + o.drv.Name() }
func (o *outbound) Close() error { return nil }
func (o *outbound) Deliver(_ context.Context, batch []router.Metric) error {
	for _, mt := range batch {
		if mt.Seq > o.sent {
			if err := o.drv.Transmit(eventOf(mt)); err != nil {
				return err
			}
			o.sent = mt.Seq
		}
	}
	return nil
}

// AddOutbound registers an outbound driver for events matching filter;
// driver names must be unique within a Manager.
func (m *Manager) AddOutbound(filter Filter, drv OutboundDriver) error {
	return m.r.AddSink(&outbound{drv: drv}, router.SinkOptions{Match: filter.match})
}

// AddRule installs a threshold rule over published events.
func (m *Manager) AddRule(r ThresholdRule) error {
	rl, err := newRule(r)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rules = append(m.rules, rl)
	return nil
}

// Trigger compiles r for causes that are not published, such as harvested
// rows: the func it returns publishes the alert a cause raises, if any.
func (m *Manager) Trigger(r ThresholdRule) (func(cause Event), error) {
	rl, err := newRule(r)
	if err != nil {
		return nil, err
	}
	return func(cause Event) {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.raise(rl, cause)
	}, nil
}

// AttachInbound starts an inbound event driver feeding this manager; the
// manager closes it on shutdown.
func (m *Manager) AttachInbound(d InboundDriver) error {
	if err := d.Start(m.Publish); err != nil {
		return fmt.Errorf("event: starting %s: %w", d.Name(), err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inbound = append(m.inbound, d)
	return nil
}

// History returns recorded events matching filter at or after since
// (zero = all), oldest first.
func (m *Manager) History(filter Filter, since time.Time) []Event {
	var out []Event
	for _, mt := range m.r.Buffered() {
		if ev := eventOf(mt); !ev.Time.Before(since) && filter.Matches(ev) {
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// Stats returns a snapshot of counters.
func (m *Manager) Stats() Stats {
	st := m.r.Stats()
	return Stats{Published: st.Published, Delivered: m.delivered.Load(), Dropped: st.Dropped + st.SinkDropped,
		Transmitted: st.SinkDelivered, TransmitErrors: st.SinkErrors, Alerts: m.alerts.Load()}
}

// SinkStats lists the outbound drivers' delivery, retry and breaker state.
func (m *Manager) SinkStats() []router.SinkStat { return m.r.SinkStats() }

// Close closes inbound drivers, then gives outbound drivers and listeners
// closeGrace to take what was queued for them. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	inbound := m.inbound
	m.inbound = nil
	m.mu.Unlock()
	for _, d := range inbound {
		_ = d.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	_ = m.r.Close(ctx)
	go func() { m.listeners.Wait(); cancel() }()
	<-ctx.Done()
}
