package netloggerdrv

import (
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/agents/netlogger"
	"gridrm/internal/agents/sim"
	"gridrm/internal/driver"
	"gridrm/internal/event"
	"gridrm/internal/resultset"
	"gridrm/internal/schema"
)

type fixture struct {
	site  *sim.Site
	agent *netlogger.Agent
	drv   driver.Driver
	url   string
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	site := sim.New(sim.Config{Name: "nl", Hosts: 2, Seed: 31})
	site.StepN(3)
	agent, err := netlogger.NewAgent(site, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agent.Close() })
	agent.Sample()
	sm := schema.NewManager()
	if err := sm.Register(Schema()); err != nil {
		t.Fatal(err)
	}
	return &fixture{site: site, agent: agent, drv: New(sm), url: "gridrm:netlogger://" + agent.Addr()}
}

func (f *fixture) query(t *testing.T, sql string) *resultset.ResultSet {
	t.Helper()
	conn, err := f.drv.Connect(f.url, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stmt, err := conn.CreateStatement()
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	rs, err := stmt.ExecuteQuery(sql)
	if err != nil {
		t.Fatalf("ExecuteQuery(%q): %v", sql, err)
	}
	return rs
}

func TestAcceptsAndConnect(t *testing.T) {
	f := newFixture(t)
	if !f.drv.AcceptsURL("gridrm:netlogger://h") || !f.drv.AcceptsURL("gridrm://h") ||
		f.drv.AcceptsURL("gridrm:scms://h") {
		t.Error("AcceptsURL wrong")
	}
	conn, err := f.drv.Connect(f.url, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Ping(); err != nil {
		t.Errorf("ping: %v", err)
	}
	if _, err := f.drv.Connect("gridrm:netlogger://127.0.0.1:1", driver.Properties{"timeout": "150ms"}); err == nil {
		t.Error("dead port accepted")
	}
}

func TestFineGrainedRows(t *testing.T) {
	f := newFixture(t)
	rs := f.query(t, "SELECT * FROM Processor ORDER BY HostName")
	if rs.Len() != 2 {
		t.Fatalf("rows = %d", rs.Len())
	}
	snap, _ := f.site.Snapshot(f.site.HostNames()[0])
	rs.Next()
	if h, _ := rs.GetString("HostName"); h != snap.Name {
		t.Errorf("host = %q", h)
	}
	if v, _ := rs.GetFloat("LoadLast1Min"); v != snap.Load1 {
		t.Errorf("load = %v, want %v", v, snap.Load1)
	}
	if v, _ := rs.GetFloat("Utilization"); v != snap.UtilPct {
		t.Errorf("util = %v", v)
	}
	rs.GetString("Model")
	if !rs.WasNull() {
		t.Error("Model should be NULL via NetLogger")
	}
	rs = f.query(t, "SELECT * FROM Memory WHERE HostName = '"+snap.Name+"'")
	rs.Next()
	if v, _ := rs.GetInt("RAMSize"); v != snap.Mem.RAMMB {
		t.Errorf("RAMSize = %d", v)
	}
}

func TestStaleHostsStillServed(t *testing.T) {
	// NetLogger answers from its record store, so a host that went down
	// after sampling is still reported (with its last values).
	f := newFixture(t)
	_ = f.site.SetHostDown(f.site.HostNames()[0], true)
	rs := f.query(t, "SELECT * FROM Processor")
	if rs.Len() != 2 {
		t.Errorf("rows = %d (log data outlives the host)", rs.Len())
	}
}

func TestErrors(t *testing.T) {
	f := newFixture(t)
	conn, err := f.drv.Connect(f.url, nil)
	if err != nil {
		t.Fatal(err)
	}
	stmt, _ := conn.CreateStatement()
	if _, err := stmt.ExecuteQuery("SELECT * FROM Disk"); err == nil {
		t.Error("Disk accepted")
	}
	_ = conn.Close()
	if _, err := stmt.ExecuteQuery("SELECT * FROM Memory"); err == nil {
		t.Error("query after close")
	}
}

func TestInboundEventsBridge(t *testing.T) {
	f := newFixture(t)
	mgr := event.NewManager()
	defer mgr.Close()
	inbound := &InboundEvents{URL: f.url}
	if err := mgr.AttachInbound(inbound); err != nil {
		t.Fatal(err)
	}
	received := make(chan event.Event, 64)
	mgr.Subscribe(event.Filter{Severity: event.SeverityAlert}, func(ev event.Event) {
		received <- ev
	})
	time.Sleep(50 * time.Millisecond) // let STREAM register
	// A simulator host-down event becomes a native Alert record, which the
	// inbound driver translates to a GridRM Alert event.
	_ = f.site.SetHostDown(f.site.HostNames()[1], true)
	select {
	case ev := <-received:
		if ev.Name != string(sim.EventHostDown) || ev.Host != f.site.HostNames()[1] {
			t.Errorf("event %+v", ev)
		}
		if ev.Source != f.url {
			t.Errorf("source = %q", ev.Source)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no event received through the bridge")
	}
}

func TestOutboundEventsTransmit(t *testing.T) {
	f := newFixture(t)
	out := &OutboundEvents{URL: f.url}
	ev := event.Event{
		Host:     "external-host",
		Name:     "gridrm-alert",
		Severity: event.SeverityAlert,
		Value:    42,
		Time:     time.Date(2003, 6, 2, 0, 0, 0, 0, time.UTC),
	}
	if err := out.Transmit(ev); err != nil {
		t.Fatal(err)
	}
	// The transmitted event is now native NetLogger data.
	rec, ok := f.agent.Latest("external-host", "gridrm-alert")
	if !ok {
		t.Fatal("transmitted event not recorded by agent")
	}
	if rec.Value != 42 || rec.Prog != "gridrm" || rec.Level != event.SeverityAlert {
		t.Errorf("record %+v", rec)
	}
	// Transmit to a dead agent fails.
	dead := &OutboundEvents{URL: "gridrm:netlogger://127.0.0.1:1", Timeout: 150 * time.Millisecond}
	if err := dead.Transmit(ev); err == nil {
		t.Error("transmit to dead agent succeeded")
	}
}

func TestFullEventLoopThroughManager(t *testing.T) {
	// Fig 4 end-to-end: native usage records stream in, a threshold rule
	// fires, and the alert is transmitted back out to the same data
	// source natively.
	f := newFixture(t)
	mgr := event.NewManager()
	defer mgr.Close()
	_ = mgr.AddRule(event.ThresholdRule{
		Name:      "load-alarm",
		Match:     event.Filter{Name: netlogger.EvLoadOne},
		Op:        event.Above,
		Threshold: -1, // any load fires
	})
	if err := mgr.AddOutbound(event.Filter{Severity: event.SeverityAlert}, &OutboundEvents{URL: f.url}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.AttachInbound(&InboundEvents{URL: f.url}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	f.agent.Sample() // produces load.one usage records
	host := f.site.HostNames()[0]
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if rec, ok := f.agent.Latest(host, "load-alarm"); ok {
			if rec.Prog != "gridrm" {
				t.Errorf("alert record %+v", rec)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("alert never arrived back at the data source")
}

func TestInboundDropsOwnTransmissions(t *testing.T) {
	// Loop prevention: an event transmitted outbound (PROG=gridrm) and
	// echoed by the agent's stream must NOT be re-ingested.
	f := newFixture(t)
	mgr := event.NewManager()
	defer mgr.Close()
	if err := mgr.AttachInbound(&InboundEvents{URL: f.url}); err != nil {
		t.Fatal(err)
	}
	var echoes atomic.Int64
	mgr.Subscribe(event.Filter{Name: "gridrm-alert"}, func(event.Event) { echoes.Add(1) })
	time.Sleep(50 * time.Millisecond)
	out := &OutboundEvents{URL: f.url}
	if err := out.Transmit(event.Event{Host: "h", Name: "gridrm-alert",
		Severity: event.SeverityAlert, Time: time.Date(2003, 6, 2, 0, 0, 0, 0, time.UTC)}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if echoes.Load() != 0 {
		t.Errorf("own transmission re-ingested %d times (echo loop)", echoes.Load())
	}
}

func TestSchemaValid(t *testing.T) {
	if err := schema.NewManager().Register(Schema()); err != nil {
		t.Fatal(err)
	}
}
