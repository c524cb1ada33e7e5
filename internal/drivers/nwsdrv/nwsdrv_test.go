package nwsdrv

import (
	"math"
	"testing"
	"time"

	"gridrm/internal/agents/nws"
	"gridrm/internal/agents/sim"
	"gridrm/internal/driver"
	"gridrm/internal/drivers/drvkit"
	"gridrm/internal/resultset"
	"gridrm/internal/schema"
)

type fixture struct {
	site  *sim.Site
	agent *nws.Agent
	drv   driver.Driver
	url   string
	now   *time.Time
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	site := sim.New(sim.Config{Name: "n", Hosts: 2, Seed: 8})
	site.StepN(3)
	agent, err := nws.NewAgent(site, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agent.Close() })
	agent.Sample()
	sm := schema.NewManager()
	if err := sm.Register(Schema()); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(5000, 0)
	drv := New(sm)
	drv.SetClock(func() time.Time { return now })
	return &fixture{site: site, agent: agent, drv: drv,
		url: "gridrm:nws://" + agent.Addr(), now: &now}
}

func (f *fixture) query(t *testing.T, conn driver.Conn, sql string) *resultset.ResultSet {
	t.Helper()
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
	if !f.drv.AcceptsURL("gridrm:nws://h") || !f.drv.AcceptsURL("gridrm://h") ||
		f.drv.AcceptsURL("gridrm:snmp://h") {
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
	if _, err := f.drv.Connect("gridrm:nws://127.0.0.1:1", driver.Properties{"timeout": "150ms"}); err == nil {
		t.Error("dead port accepted")
	}
}

func TestMeasurementRows(t *testing.T) {
	f := newFixture(t)
	conn, err := f.drv.Connect(f.url, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	snap, _ := f.site.Snapshot(f.site.HostNames()[0])
	rs := f.query(t, conn, "SELECT * FROM Memory ORDER BY HostName")
	if rs.Len() != 2 {
		t.Fatalf("rows = %d", rs.Len())
	}
	rs.Next()
	if v, _ := rs.GetInt("RAMAvailable"); v != snap.Mem.RAMAvailMB {
		t.Errorf("RAMAvailable = %d, want %d", v, snap.Mem.RAMAvailMB)
	}
	rs.GetInt("RAMSize")
	if !rs.WasNull() {
		t.Error("RAMSize should be NULL via NWS")
	}
	rs = f.query(t, conn, "SELECT * FROM NetworkAdapter WHERE HostName = '"+snap.Name+"'")
	rs.Next()
	if v, _ := rs.GetFloat("Latency"); v != snap.Nics[0].LatencyMs {
		t.Errorf("Latency = %v, want %v", v, snap.Nics[0].LatencyMs)
	}
	if v, _ := rs.GetFloat("Bandwidth"); v != 100 {
		t.Errorf("Bandwidth = %v", v)
	}
	rs = f.query(t, conn, "SELECT * FROM Processor WHERE HostName = '"+snap.Name+"'")
	rs.Next()
	util, _ := rs.GetFloat("Utilization")
	if math.Abs(util-snap.UtilPct) > 0.02 {
		t.Errorf("Utilization = %v, want ≈%v", util, snap.UtilPct)
	}
}

func TestStateCache(t *testing.T) {
	f := newFixture(t)
	conn, err := f.drv.Connect(f.url, driver.Properties{"cache_ttl": "1s"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := conn.(*drvkit.Conn).Session().(*session).state
	f.query(t, conn, "SELECT * FROM Memory")
	f.query(t, conn, "SELECT * FROM Processor")
	if c.Fetches != 1 {
		t.Errorf("fetches within TTL = %d", c.Fetches)
	}
	*f.now = f.now.Add(2 * time.Second)
	f.query(t, conn, "SELECT * FROM Memory")
	if c.Fetches != 2 {
		t.Errorf("fetches after expiry = %d", c.Fetches)
	}
}

func TestForecastMode(t *testing.T) {
	f := newFixture(t)
	// Build a history so forecast differs from the last raw value.
	for i := 0; i < 15; i++ {
		f.site.Step()
		f.agent.Sample()
	}
	conn, err := f.drv.Connect(f.url, driver.Properties{"use_forecast": "true"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	host := f.site.HostNames()[0]
	rs := f.query(t, conn, "SELECT * FROM NetworkAdapter WHERE HostName = '"+host+"'")
	rs.Next()
	got, _ := rs.GetFloat("Latency")
	want, _, _ := f.agent.Forecast(host, nws.ResLatency)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("forecast latency = %v, want %v", got, want)
	}
}

func TestUnsupportedGroupAndClosed(t *testing.T) {
	f := newFixture(t)
	conn, err := f.drv.Connect(f.url, nil)
	if err != nil {
		t.Fatal(err)
	}
	stmt, _ := conn.CreateStatement()
	if _, err := stmt.ExecuteQuery("SELECT * FROM Process"); err == nil {
		t.Error("Process accepted")
	}
	_ = conn.Close()
	if err := conn.Ping(); err == nil {
		t.Error("ping after close")
	}
	if _, err := stmt.ExecuteQuery("SELECT * FROM Memory"); err == nil {
		t.Error("query after close")
	}
}

func TestSchemaValid(t *testing.T) {
	if err := schema.NewManager().Register(Schema()); err != nil {
		t.Fatal(err)
	}
}
