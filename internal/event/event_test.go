package event

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/router"
)

func newMgr(t *testing.T) *Manager {
	t.Helper()
	m := newManager(router.Options{ReplaySize: 64})
	t.Cleanup(m.Close)
	return m
}

func at(sec int) time.Time { return time.Unix(int64(sec), 0) }

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// settle waits until every listener and outbound driver has delivered or
// dropped each event enqueued for it.
func settle(t *testing.T, m *Manager) {
	t.Helper()
	waitFor(t, "consumers to settle", func() bool {
		st := m.r.Stats()
		return m.Stats().Delivered+st.SinkDelivered+st.SinkDropped+st.Dropped == st.Enqueued
	})
}

func TestFilterMatches(t *testing.T) {
	ev := Event{Source: "s1", Host: "site-node01", Name: "load-high", Severity: SeverityAlert}
	cases := []struct {
		f    Filter
		want bool
	}{
		{Filter{}, true},
		{Filter{Source: "s1"}, true},
		{Filter{Source: "s2"}, false},
		{Filter{Host: "site-node01"}, true},
		{Filter{Host: "site-%"}, true},
		{Filter{Host: "other-%"}, false},
		{Filter{Name: "load-%"}, true},
		{Filter{Name: "load_high"}, true}, // _ is single-char wildcard
		{Filter{Severity: SeverityAlert}, true},
		{Filter{Severity: SeverityUsage}, false},
		{Filter{Source: "s1", Host: "site-node0_", Name: "%high", Severity: SeverityAlert}, true},
	}
	for _, c := range cases {
		if got := c.f.Matches(ev); got != c.want {
			t.Errorf("%+v.Matches = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestPublishDeliver(t *testing.T) {
	m := newMgr(t)
	var got []Event
	var mu sync.Mutex
	m.Subscribe(Filter{Severity: SeverityUsage}, func(ev Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	})
	m.Publish(Event{Name: "a", Severity: SeverityUsage, Time: at(1)})
	m.Publish(Event{Name: "b", Severity: SeverityAlert, Time: at(2)})
	m.Publish(Event{Name: "c", Severity: SeverityUsage, Time: at(3)})
	settle(t, m)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "c" {
		t.Errorf("delivered %v", got)
	}
	s := m.Stats()
	if s.Published != 3 || s.Delivered != 2 {
		t.Errorf("stats %+v", s)
	}
}

func TestUnsubscribe(t *testing.T) {
	m := newMgr(t)
	var n atomic.Int64
	unsubscribe := m.Subscribe(Filter{}, func(Event) { n.Add(1) })
	m.Publish(Event{Name: "x", Time: at(1)})
	settle(t, m)
	unsubscribe()
	m.Publish(Event{Name: "y", Time: at(2)})
	settle(t, m)
	if n.Load() != 1 {
		t.Errorf("deliveries = %d", n.Load())
	}
	if m.r.Stats().Subscribers != 0 {
		t.Error("listener count nonzero")
	}
}

// TestNoLossUnderBurst: a burst that fits a listener's queue while the
// listener is blocked is delivered whole once it resumes, from however many
// publishers.
func TestNoLossUnderBurst(t *testing.T) {
	m := newMgr(t)
	var n atomic.Int64
	block := make(chan struct{})
	m.Subscribe(Filter{}, func(ev Event) {
		if ev.Name == "blocker" {
			<-block
		}
		n.Add(1)
	})
	m.Publish(Event{Name: "blocker", Time: at(0)})
	waitFor(t, "the listener to take the blocker", func() bool { return m.r.Subscribers()[0].Pending == 0 })
	const publishers, each = 8, 31 // 248 events: inside the default 256-slot queue
	var wg sync.WaitGroup
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				m.Publish(Event{Name: "burst", Time: at(1)})
			}
		}()
	}
	wg.Wait()
	close(block)
	settle(t, m)
	if n.Load() != publishers*each+1 || m.Stats().Dropped != 0 {
		t.Errorf("delivered %d of %d, dropped %d", n.Load(), publishers*each+1, m.Stats().Dropped)
	}
}

func TestHistoryRingAndFilter(t *testing.T) {
	m := newManager(router.Options{ReplaySize: 4})
	defer m.Close()
	for i := 1; i <= 6; i++ {
		name := "even"
		if i%2 == 1 {
			name = "odd"
		}
		m.Publish(Event{Name: name, Value: float64(i), Time: at(i)})
	}
	all := m.History(Filter{}, time.Time{})
	if len(all) != 4 {
		t.Fatalf("history = %d, want ring size 4", len(all))
	}
	if all[0].Value != 3 || all[3].Value != 6 {
		t.Errorf("ring kept %v..%v", all[0].Value, all[3].Value)
	}
	odd := m.History(Filter{Name: "odd"}, time.Time{})
	if len(odd) != 2 {
		t.Errorf("odd history = %d", len(odd))
	}
	since := m.History(Filter{}, at(5))
	if len(since) != 2 {
		t.Errorf("since history = %d", len(since))
	}
}

func TestThresholdRule(t *testing.T) {
	m := newMgr(t)
	if err := m.AddRule(ThresholdRule{
		Name:      "load-alarm",
		Match:     Filter{Name: "load"},
		Op:        Above,
		Threshold: 4.0,
		Rearm:     0.75,
	}); err != nil {
		t.Fatal(err)
	}
	var alerts []Event
	var mu sync.Mutex
	m.Subscribe(Filter{Severity: SeverityAlert}, func(ev Event) {
		mu.Lock()
		alerts = append(alerts, ev)
		mu.Unlock()
	})
	vals := []float64{1, 5, 6, 7, 2, 8} // fire at 5, suppressed 6/7, rearm at 2, fire at 8
	for i, v := range vals {
		m.Publish(Event{Host: "h1", Name: "load", Severity: SeverityUsage, Value: v, Time: at(i)})
	}
	settle(t, m)
	mu.Lock()
	defer mu.Unlock()
	if len(alerts) != 2 {
		t.Fatalf("alerts = %d, want 2 (hysteresis)", len(alerts))
	}
	if alerts[0].Value != 5 || alerts[1].Value != 8 {
		t.Errorf("alert values %v, %v", alerts[0].Value, alerts[1].Value)
	}
	if alerts[0].Name != "load-alarm" || alerts[0].Severity != SeverityAlert {
		t.Errorf("alert %+v", alerts[0])
	}
	if m.Stats().Alerts != 2 {
		t.Errorf("alert count = %d", m.Stats().Alerts)
	}
}

func TestThresholdPerHost(t *testing.T) {
	m := newMgr(t)
	_ = m.AddRule(ThresholdRule{Name: "alarm", Match: Filter{Name: "load"}, Op: Above, Threshold: 1})
	var n atomic.Int64
	m.Subscribe(Filter{Severity: SeverityAlert}, func(Event) { n.Add(1) })
	m.Publish(Event{Host: "a", Name: "load", Value: 2, Time: at(1)})
	m.Publish(Event{Host: "b", Name: "load", Value: 2, Time: at(1)})
	m.Publish(Event{Host: "a", Name: "load", Value: 3, Time: at(2)}) // still fired, no re-alert
	settle(t, m)
	if n.Load() != 2 {
		t.Errorf("alerts = %d, want one per host", n.Load())
	}
}

func TestThresholdBelow(t *testing.T) {
	m := newMgr(t)
	_ = m.AddRule(ThresholdRule{Name: "disk-low", Match: Filter{Name: "disk.free"}, Op: Below, Threshold: 100})
	var n atomic.Int64
	m.Subscribe(Filter{Name: "disk-low"}, func(Event) { n.Add(1) })
	m.Publish(Event{Host: "h", Name: "disk.free", Value: 500, Time: at(1)})
	m.Publish(Event{Host: "h", Name: "disk.free", Value: 50, Time: at(2)})
	settle(t, m)
	if n.Load() != 1 {
		t.Errorf("below alerts = %d", n.Load())
	}
}

// TestTrigger: a rule over causes that are not published (harvested rows)
// runs the same crossing and re-arm test, and records only its alerts.
func TestTrigger(t *testing.T) {
	m := newMgr(t)
	if _, err := m.Trigger(ThresholdRule{}); err == nil {
		t.Error("unnamed rule accepted")
	}
	fire, err := m.Trigger(ThresholdRule{Name: "hot", Op: Above, Threshold: 4, Rearm: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{5, 6, 1, 7} { // fire at 5, suppressed 6, rearm at 1, fire at 7
		fire(Event{Source: "s", Host: "h", Name: "Processor.LoadLast1Min", Value: v, Time: at(i)})
	}
	hist := m.History(Filter{}, time.Time{})
	if len(hist) != 2 || hist[0].Value != 5 || hist[1].Value != 7 || hist[0].Name != "hot" {
		t.Fatalf("history %+v, want the two alerts alone", hist)
	}
	if st := m.Stats(); st.Alerts != 2 || st.Published != 2 {
		t.Errorf("stats %+v", st)
	}
}

func TestAddRuleValidation(t *testing.T) {
	m := newMgr(t)
	if err := m.AddRule(ThresholdRule{}); err == nil {
		t.Error("unnamed rule accepted")
	}
	if err := m.AddRule(ThresholdRule{Name: "x", Rearm: 2}); err == nil {
		t.Error("rearm > 1 accepted")
	}
	if err := m.AddRule(ThresholdRule{Name: "x", Rearm: -0.1}); err == nil {
		t.Error("negative rearm accepted")
	}
}

// recordingOutbound collects transmitted events; failing when told to.
type recordingOutbound struct {
	mu   sync.Mutex
	evs  []Event
	fail bool
}

func (r *recordingOutbound) Name() string { return "rec" }

func (r *recordingOutbound) Transmit(ev Event) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail {
		return errors.New("down")
	}
	r.evs = append(r.evs, ev)
	return nil
}

func TestOutboundTransmit(t *testing.T) {
	m := newMgr(t)
	rec := &recordingOutbound{}
	if err := m.AddOutbound(Filter{Severity: SeverityAlert}, rec); err != nil {
		t.Fatal(err)
	}
	if err := m.AddOutbound(Filter{}, rec); err == nil {
		t.Error("second outbound driver under one name accepted")
	}
	m.Publish(Event{Name: "usage", Severity: SeverityUsage, Time: at(1)})
	m.Publish(Event{Name: "alert", Severity: SeverityAlert, Time: at(2)})
	settle(t, m)
	rec.mu.Lock()
	n := len(rec.evs)
	rec.mu.Unlock()
	if n != 1 {
		t.Errorf("transmitted %d, want 1", n)
	}
	if m.Stats().Transmitted != 1 {
		t.Errorf("stats transmitted = %d", m.Stats().Transmitted)
	}
	rec.mu.Lock()
	rec.fail = true
	rec.mu.Unlock()
	m.Publish(Event{Name: "alert2", Severity: SeverityAlert, Time: at(3)})
	settle(t, m)
	if st := m.Stats(); st.TransmitErrors != 1 || st.Dropped != 1 {
		t.Errorf("transmit errors = %d, dropped = %d", st.TransmitErrors, st.Dropped)
	}
	if ss := m.SinkStats(); len(ss) != 1 || ss[0].Name != "event:rec" || ss[0].Retries != 2 {
		t.Errorf("sink stats %+v", ss)
	}
}

// TestRetriedBatchNotRetransmitted: when Transmit fails partway through a
// batch, the retry resumes after the last event that went out.
func TestRetriedBatchNotRetransmitted(t *testing.T) {
	var calls atomic.Int64
	var got []string
	var mu sync.Mutex
	flaky := outboundFunc(func(ev Event) error {
		if calls.Add(1) == 2 {
			return errors.New("blip")
		}
		mu.Lock()
		got = append(got, ev.Name)
		mu.Unlock()
		return nil
	})
	o := &outbound{drv: flaky}
	batch := []router.Metric{}
	for i, name := range []string{"a", "b", "c"} {
		batch = append(batch, router.Metric{Seq: uint64(i + 1), Columns: columns, Row: []any{"", name, "", 0.0, ""}})
	}
	if err := o.Deliver(context.Background(), batch); err == nil {
		t.Fatal("first attempt should fail at b")
	}
	if err := o.Deliver(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("transmitted %v, want a b c once each", got)
	}
}

type outboundFunc func(Event) error

func (f outboundFunc) Name() string            { return "func" }
func (f outboundFunc) Transmit(ev Event) error { return f(ev) }

func TestRuleAlertReachesOutbound(t *testing.T) {
	// The full Fig 4 path: native usage event → threshold → alert →
	// outbound transmission.
	m := newMgr(t)
	rec := &recordingOutbound{}
	if err := m.AddOutbound(Filter{Severity: SeverityAlert}, rec); err != nil {
		t.Fatal(err)
	}
	_ = m.AddRule(ThresholdRule{Name: "hot", Match: Filter{Name: "temp"}, Op: Above, Threshold: 90})
	m.Publish(Event{Host: "h", Name: "temp", Severity: SeverityUsage, Value: 95, Time: at(1)})
	settle(t, m)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.evs) != 1 || rec.evs[0].Name != "hot" {
		t.Errorf("outbound got %v", rec.evs)
	}
}

type fakeInbound struct {
	sink    func(Event)
	started atomic.Bool
	closed  atomic.Bool
}

func (f *fakeInbound) Name() string { return "fake" }
func (f *fakeInbound) Start(sink func(Event)) error {
	f.sink = sink
	f.started.Store(true)
	return nil
}
func (f *fakeInbound) Close() error { f.closed.Store(true); return nil }

func TestAttachInboundLifecycle(t *testing.T) {
	m := NewManager()
	in := &fakeInbound{}
	if err := m.AttachInbound(in); err != nil {
		t.Fatal(err)
	}
	if !in.started.Load() {
		t.Error("inbound not started")
	}
	var n atomic.Int64
	m.Subscribe(Filter{}, func(Event) { n.Add(1) })
	in.sink(Event{Name: "native", Time: at(1)})
	settle(t, m)
	if n.Load() != 1 {
		t.Error("inbound event not delivered")
	}
	m.Close()
	if !in.closed.Load() {
		t.Error("inbound not closed on shutdown")
	}
}

func TestPublishAfterClose(t *testing.T) {
	m := NewManager()
	m.Close()
	m.Publish(Event{Name: "late", Time: at(1)}) // must not panic or deadlock
	if m.Stats().Published != 0 {
		t.Error("post-close publish counted")
	}
	m.Subscribe(Filter{}, func(Event) {})() // a no-op, and so is removing it
	m.Close()                               // idempotent
}

func TestCloseDrainsBuffer(t *testing.T) {
	m := NewManager()
	var n atomic.Int64
	m.Subscribe(Filter{}, func(Event) { n.Add(1) })
	for i := 0; i < 100; i++ {
		m.Publish(Event{Name: "x", Time: at(i)})
	}
	m.Close()
	if n.Load() != 100 {
		t.Errorf("Close lost %d events", 100-n.Load())
	}
}
