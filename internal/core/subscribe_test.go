package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gridrm/internal/event"
	"gridrm/internal/glue"
	"gridrm/internal/router"
	"gridrm/internal/security"
)

// recvRows drains n metrics from sub within a real-time deadline.
func recvRows(t *testing.T, sub *router.Subscription, n int) []router.Metric {
	t.Helper()
	out := make([]router.Metric, 0, n)
	for len(out) < n {
		select {
		case m := <-sub.C():
			out = append(out, m)
		case <-time.After(2 * time.Second):
			t.Fatalf("received %d/%d rows before timeout", len(out), n)
		}
	}
	return out
}

func TestSubscribeReceivesHarvestRows(t *testing.T) {
	f := newFixture(t)
	sub, err := f.g.Subscribe(context.Background(), QueryOptions{
		Principal: f.admin, SQL: "SELECT * FROM Processor",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	f.query(t, "SELECT * FROM Processor", ModeRealTime)
	rows := recvRows(t, sub, 3) // 2 hosts from A, 1 from B
	seen := map[string]bool{}
	for _, m := range rows {
		if m.Group != "Processor" {
			t.Fatalf("group = %q", m.Group)
		}
		if m.Seq == 0 {
			t.Fatal("row missing sequence number")
		}
		host, _ := m.Row[columnIndex(m.Columns, "HostName")].(string)
		seen[host] = true
	}
	for _, h := range []string{"a1", "a2", "b1"} {
		if !seen[h] {
			t.Fatalf("host %s never pushed; got %v", h, seen)
		}
	}
	if st := f.g.Stats(); st.RowsPublished != 3 {
		t.Fatalf("RowsPublished = %d, want 3", st.RowsPublished)
	}
}

func TestSubscribeWhereAndProjection(t *testing.T) {
	f := newFixture(t)
	sub, err := f.g.Subscribe(context.Background(), QueryOptions{
		Principal: f.admin,
		SQL:       "SELECT HostName FROM Processor WHERE LoadLast1Min > 2",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	f.query(t, "SELECT * FROM Processor", ModeRealTime)
	rows := recvRows(t, sub, 1) // only b1 (load 5.0) passes the WHERE
	m := rows[0]
	if len(m.Columns) != 1 || m.Columns[0] != "HostName" {
		t.Fatalf("projection not applied: columns = %v", m.Columns)
	}
	if host, _ := m.Row[0].(string); host != "b1" {
		t.Fatalf("host = %q, want b1", host)
	}
	select {
	case extra := <-sub.C():
		t.Fatalf("unexpected extra row: %+v", extra)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestSubscribeSourceFilter(t *testing.T) {
	f := newFixture(t)
	sub, err := f.g.Subscribe(context.Background(), QueryOptions{
		Principal: f.admin,
		SQL:       "SELECT * FROM Processor",
		Sources:   []string{f.urlB},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	f.query(t, "SELECT * FROM Processor", ModeRealTime)
	rows := recvRows(t, sub, 1)
	if rows[0].Source != f.urlB {
		t.Fatalf("source = %q, want %q", rows[0].Source, f.urlB)
	}
}

func TestSubscribeFineSecurityPerMetric(t *testing.T) {
	f := newFixture(t)
	// Deny the admin principal source B at the fine layer; harvests still
	// run, but the subscriber must never see B's rows.
	f.g.FinePolicy().Add(security.FineRule{
		Principal: "admin", Source: f.urlB, Decision: security.Deny,
	})
	sub, err := f.g.Subscribe(context.Background(), QueryOptions{
		Principal: f.admin, SQL: "SELECT * FROM Processor",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// The query itself would also be filtered; use a different principal
	// path: harvest with a principal allowed everywhere.
	other := security.Principal{Name: "operator2", Roles: []string{"operator"}}
	if _, err := f.g.QueryContext(context.Background(), QueryOptions{Principal: other, SQL: "SELECT * FROM Processor", Mode: ModeRealTime}); err != nil {
		t.Fatal(err)
	}
	rows := recvRows(t, sub, 2)
	for _, m := range rows {
		if m.Source == f.urlB {
			t.Fatalf("fine-denied source leaked to subscriber: %+v", m)
		}
	}
}

// TestSubscribeFineSecurityOnReplay: a principal's continuous query that
// resumes with FromSeq is filtered by the FGSL policy on the rows the replay
// ring hands it exactly as on live publishes: a source denied to the
// principal reaches it from neither.
func TestSubscribeFineSecurityOnReplay(t *testing.T) {
	f := newFixture(t)
	p := security.Principal{Name: "viewer", Roles: []string{"operator"}}
	f.g.FinePolicy().Add(security.FineRule{Principal: "viewer", Source: f.urlB, Decision: security.Deny})
	// An unrestricted subscriber keeps the push router publishing.
	probe, err := f.g.Subscribe(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Processor"})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	f.query(t, "SELECT * FROM Processor", ModeRealTime)
	from := f.g.PushRouter().Seq()
	f.query(t, "SELECT * FROM Processor", ModeRealTime) // the rows the resume replays
	if got := f.g.PushRouter().Seq() - from; got != 3 {
		t.Fatalf("the harvest published %d rows, want 3", got)
	}

	sub, err := f.g.Subscribe(context.Background(), QueryOptions{Principal: p, SQL: "SELECT * FROM Processor", FromSeq: from})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.Gapped() {
		t.Fatal("a resume within the ring reported a gap")
	}
	replayed := recvRows(t, sub, 2)
	f.query(t, "SELECT * FROM Processor", ModeRealTime)
	live := recvRows(t, sub, 2)
	for i, m := range append(replayed, live...) {
		if m.Source != f.urlA || m.Seq <= from {
			t.Fatalf("row %d: seq %d from %s reached the viewer (resumed after %d)", i, m.Seq, m.Source, from)
		}
	}
	select {
	case m := <-sub.C():
		t.Fatalf("an extra row reached the viewer: seq %d from %s", m.Seq, m.Source)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestSubscribeValidation(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		name string
		opts QueryOptions
	}{
		{"aggregate", QueryOptions{Principal: f.admin, SQL: "SELECT count(*) FROM Processor"}},
		{"unknown group", QueryOptions{Principal: f.admin, SQL: "SELECT * FROM NoSuchGroup"}},
		{"bad column", QueryOptions{Principal: f.admin, SQL: "SELECT NoSuchColumn FROM Processor"}},
		{"historical", QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Processor", Mode: ModeHistorical}},
		{"remote site", QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Processor", Site: "siteB"}},
		{"bad sql", QueryOptions{Principal: f.admin, SQL: "SELEKT"}},
	}
	for _, tc := range cases {
		if _, err := f.g.Subscribe(context.Background(), tc.opts); err == nil {
			t.Errorf("%s: Subscribe accepted invalid options", tc.name)
		}
	}
}

// TestSubscribeRejectsOrderByAndLimit: a continuous query pushes each row as
// it is harvested, so it has nothing to sort or cut. Both clauses are
// refused by name rather than accepted and ignored, and the same predicate
// without them subscribes.
func TestSubscribeRejectsOrderByAndLimit(t *testing.T) {
	f := newFixture(t)
	for clause, sql := range map[string]string{
		"ORDER BY": "SELECT * FROM Processor ORDER BY LoadLast1Min DESC",
		"LIMIT":    "SELECT * FROM Processor LIMIT 1",
		"LIMIT 0":  "SELECT HostName FROM Processor WHERE LoadLast1Min > 0 LIMIT 0",
		"both":     "SELECT * FROM Processor ORDER BY LoadLast1Min DESC LIMIT 1",
	} {
		_, err := f.g.Subscribe(context.Background(), QueryOptions{Principal: f.admin, SQL: sql})
		name := strings.Fields(clause)[0]
		if clause == "both" {
			name = "ORDER BY"
		}
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: Subscribe(%q) = %v, want an error naming %s", clause, sql, err, name)
		}
	}
	sub, err := f.g.Subscribe(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Processor WHERE LoadLast1Min > 0"})
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
}

func TestSubscribeCoarseDenied(t *testing.T) {
	f := newFixture(t)
	f.g.CoarsePolicy().Add(security.CoarseRule{
		Principal: "nobody", Op: security.OpQueryRealTime, Decision: security.Deny,
	})
	_, err := f.g.Subscribe(context.Background(), QueryOptions{
		Principal: security.Principal{Name: "nobody"},
		SQL:       "SELECT * FROM Processor",
	})
	var pe *PermissionError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PermissionError", err)
	}
}

func TestSubscribeContextCancel(t *testing.T) {
	f := newFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	sub, err := f.g.Subscribe(ctx, QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Processor"})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case <-sub.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("context cancel did not end the subscription")
	}
	if f.g.PushRouter().Stats().Subscribers != 0 {
		t.Fatal("subscription still registered after cancel")
	}
}

func TestShutdownEndsSubscriptions(t *testing.T) {
	f := newFixture(t)
	sub, err := f.g.Subscribe(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Processor"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelT := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelT()
	if err := f.g.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("shutdown did not end the subscription")
	}
	if _, err := f.g.Subscribe(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Processor"}); !errors.Is(err, ErrGatewayClosed) {
		t.Fatalf("Subscribe after shutdown: err = %v, want ErrGatewayClosed", err)
	}
}

// TestStuckSubscriberDoesNotSlowQueries is the gateway-level half of the
// backpressure invariant: a subscriber that never reads must not affect
// the query path.
func TestStuckSubscriberDoesNotSlowQueries(t *testing.T) {
	f := newFixture(t)
	sub, err := f.g.Subscribe(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Processor"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Never read from sub.C(); hammer queries (cache busted each round so
	// every one harvests) and require them all to succeed. 200 rounds x 3
	// rows overflows the default 256-slot queue well past the stall
	// threshold, so this also drives the eviction path.
	for i := 0; i < 200; i++ {
		*f.now = f.now.Add(time.Hour) // bust the query cache each round
		f.query(t, "SELECT * FROM Processor", ModeRealTime)
	}
	st := f.g.Stats()
	if st.RowsPublished == 0 {
		t.Fatal("no rows were published")
	}
	if st.RowsDropped == 0 {
		t.Fatal("stuck subscriber's overflow was not accounted")
	}
}

// settleSinks waits until the push router's sinks have delivered or dropped
// every row enqueued for them (the gateway has no subscribers meanwhile).
func settleSinks(t *testing.T, g *Gateway) {
	t.Helper()
	waitFor(t, "push sinks to settle", func() bool {
		st := g.push.Stats()
		return st.SinkDelivered+st.SinkDropped+st.Dropped == st.Enqueued
	})
}

// TestHarvestRuleValidation: a harvest rule on an unknown group or field, a
// non-numeric field, an unnamed rule or a duplicate is refused; an accepted
// one is one sink on the push router.
func TestHarvestRuleValidation(t *testing.T) {
	f := newFixture(t)
	rule := event.ThresholdRule{Name: "overload", Op: event.Above, Threshold: 4}
	if err := f.g.AddHarvestRule("Nope", "X", rule); err == nil {
		t.Error("unknown group accepted")
	}
	if err := f.g.AddHarvestRule(glue.GroupProcessor, "Nope", rule); err == nil {
		t.Error("unknown field accepted")
	}
	if err := f.g.AddHarvestRule(glue.GroupProcessor, "HostName", rule); err == nil {
		t.Error("non-numeric field accepted")
	}
	if err := f.g.AddHarvestRule(glue.GroupProcessor, "LoadLast1Min", event.ThresholdRule{}); err == nil {
		t.Error("unnamed rule accepted")
	}
	if err := f.g.AddHarvestRule(glue.GroupProcessor, "LoadLast1Min", rule); err != nil {
		t.Fatal(err)
	}
	if err := f.g.AddHarvestRule(glue.GroupProcessor, "LoadLast1Min", rule); err == nil {
		t.Error("duplicate rule accepted")
	}
	if ss := f.g.PushRouter().SinkStats(); len(ss) != 1 || ss[0].Name != "rule:overload" {
		t.Errorf("push sinks %+v, want the rule's", ss)
	}
}

// TestHarvestPublishesWatchedMetrics: a client that wants one field of every
// harvest subscribes to it; harvests publish no events of their own, and a
// cached answer pushes nothing new.
func TestHarvestPublishesWatchedMetrics(t *testing.T) {
	f := newFixture(t)
	sub, err := f.g.Subscribe(context.Background(), QueryOptions{
		Principal: f.admin, SQL: "SELECT HostName, LoadLast1Min FROM Processor",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	f.query(t, "SELECT * FROM Processor", ModeRealTime)
	byHost := map[string]float64{}
	for _, m := range recvRows(t, sub, 3) { // 2 hosts from source A + 1 from source B
		host, _ := m.Row[0].(string)
		byHost[host], _ = m.Row[1].(float64)
	}
	if byHost["a1"] != 1.0 || byHost["b1"] != 5.0 {
		t.Errorf("values %v", byHost)
	}
	if evs := f.g.Events().History(event.Filter{Name: "Processor.%"}, time.Time{}); len(evs) != 0 {
		t.Errorf("harvest published %d events", len(evs))
	}
	// Cached queries do not re-publish (no new harvest).
	before := f.g.Stats().RowsPublished
	f.query(t, "SELECT * FROM Processor", ModeCached)
	if after := f.g.Stats().RowsPublished; after != before {
		t.Errorf("cached query published %d new rows", after-before)
	}
}

// TestHarvestToAlertPath: a harvest rule's sink raises its alert from the
// rows a query harvested, with no polling loop of its own.
func TestHarvestToAlertPath(t *testing.T) {
	// Fig 3 end to end: a real-time query harvests rows, the rule's sink on
	// the push router reads the field, the threshold fires, and an alert is
	// recorded — no separate polling loop.
	f := newFixture(t)
	if err := f.g.AddHarvestRule(glue.GroupProcessor, "LoadLast1Min", event.ThresholdRule{
		Name:      "overload",
		Match:     event.Filter{Name: "Processor.LoadLast1Min"},
		Op:        event.Above,
		Threshold: 4.0,
	}); err != nil {
		t.Fatal(err)
	}
	f.query(t, "SELECT * FROM Processor", ModeRealTime)
	settleSinks(t, f.g)
	alerts := f.g.Events().History(event.Filter{Name: "overload"}, time.Time{})
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d", len(alerts))
	}
	// Only the 5.0-load host from driver 2 crossed.
	if alerts[0].Host != "b1" || alerts[0].Value != 5.0 {
		t.Errorf("alert %+v", alerts[0])
	}
}

// TestNullWatchedFieldSkipped: a watched field that is NULL raises no alert,
// even under a rule any value would fire.
func TestNullWatchedFieldSkipped(t *testing.T) {
	f := newFixture(t)
	// Utilization is unmapped in the memDriver's schema → NULL on every
	// row → no alerts, even from a rule any value would fire.
	if err := f.g.AddHarvestRule(glue.GroupProcessor, "Utilization", event.ThresholdRule{
		Name: "busy", Op: event.Above, Threshold: -1,
	}); err != nil {
		t.Fatal(err)
	}
	f.query(t, "SELECT * FROM Processor", ModeRealTime)
	settleSinks(t, f.g)
	if evs := f.g.Events().History(event.Filter{Name: "busy"}, time.Time{}); len(evs) != 0 {
		t.Errorf("NULL field raised %d alerts", len(evs))
	}
}

// TestEvictedSubscriberRaisesEvent: a continuous query that never reads is
// evicted once it stalls, and /events alone says which stream ended and
// how many rows it had dropped.
func TestEvictedSubscriberRaisesEvent(t *testing.T) {
	f := newFixture(t)
	sub, err := f.g.Subscribe(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Processor"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200 && !sub.Evicted(); i++ {
		*f.now = f.now.Add(time.Hour) // bust the cache, and run the stall clock
		f.query(t, "SELECT * FROM Processor", ModeRealTime)
	}
	if !sub.Evicted() {
		t.Fatal("a subscriber that never read was not evicted")
	}
	var evs []event.Event
	waitFor(t, "the subscriber-evicted event", func() bool {
		evs = f.g.Events().History(event.Filter{Name: "subscriber-evicted"}, time.Time{})
		return len(evs) > 0
	})
	ev := evs[0]
	want := fmt.Sprintf("admin: SELECT * FROM Processor: evicted for stalling after dropping %d rows", sub.Dropped())
	if len(evs) != 1 || ev.Severity != event.SeverityAlert || ev.Detail != want || ev.Value != float64(sub.Dropped()) ||
		sub.Dropped() == 0 || !ev.Time.Equal(*f.now) {
		t.Errorf("events %+v; want one Alert with detail %q", evs, want)
	}
}
