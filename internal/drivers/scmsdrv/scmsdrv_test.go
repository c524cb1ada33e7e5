package scmsdrv

import (
	"testing"

	"gridrm/internal/agents/scms"
	"gridrm/internal/agents/sim"
	"gridrm/internal/driver"
	"gridrm/internal/resultset"
	"gridrm/internal/schema"
)

type fixture struct {
	site  *sim.Site
	agent *scms.Agent
	drv   driver.Driver
	url   string
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	site := sim.New(sim.Config{Name: "sc", Hosts: 3, Seed: 13})
	site.StepN(3)
	agent, err := scms.NewAgent(site, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agent.Close() })
	sm := schema.NewManager()
	if err := sm.Register(Schema()); err != nil {
		t.Fatal(err)
	}
	return &fixture{site: site, agent: agent, drv: New(sm), url: "gridrm:scms://" + agent.Addr()}
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
	if !f.drv.AcceptsURL("gridrm:scms://h") || !f.drv.AcceptsURL("gridrm://h") ||
		f.drv.AcceptsURL("gridrm:nws://h") {
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
	info := conn.(driver.MetadataProvider).SourceInfo()
	if info.Protocol != "scms" || len(info.Groups) != 6 {
		t.Errorf("info %+v", info)
	}
}

func TestProcessorIdentityComplete(t *testing.T) {
	f := newFixture(t)
	rs := f.query(t, "SELECT * FROM Processor ORDER BY HostName")
	if rs.Len() != 3 {
		t.Fatalf("rows = %d", rs.Len())
	}
	snap, _ := f.site.Snapshot(f.site.HostNames()[0])
	rs.Next()
	if v, _ := rs.GetString("Model"); v != snap.CPU.Model {
		t.Errorf("Model = %q, want %q", v, snap.CPU.Model)
	}
	if v, _ := rs.GetString("Vendor"); v != snap.CPU.Vendor {
		t.Errorf("Vendor = %q", v)
	}
	if v, _ := rs.GetInt("ClockSpeed"); v != snap.CPU.ClockMHz {
		t.Errorf("ClockSpeed = %d", v)
	}
	if v, _ := rs.GetInt("CacheSize"); v != snap.CPU.CacheKB {
		t.Errorf("CacheSize = %d", v)
	}
	if v, _ := rs.GetInt("CPUCount"); v != snap.CPU.Count {
		t.Errorf("CPUCount = %d", v)
	}
	if v, _ := rs.GetFloat("LoadLast1Min"); v != snap.Load1 {
		t.Errorf("Load = %v, want %v", v, snap.Load1)
	}
}

func TestOSAndMemory(t *testing.T) {
	f := newFixture(t)
	snap, _ := f.site.Snapshot(f.site.HostNames()[1])
	rs := f.query(t, "SELECT * FROM OperatingSystem WHERE HostName = '"+snap.Name+"'")
	if rs.Len() != 1 {
		t.Fatalf("rows = %d", rs.Len())
	}
	rs.Next()
	if v, _ := rs.GetString("Version"); v != snap.OS.Version {
		t.Errorf("Version = %q, want %q", v, snap.OS.Version)
	}
	if v, _ := rs.GetInt("Uptime"); v != snap.OS.UptimeS {
		t.Errorf("Uptime = %d", v)
	}
	rs.GetTime("BootTime")
	if !rs.WasNull() {
		t.Error("BootTime should be NULL via SCMS")
	}
	rs = f.query(t, "SELECT * FROM Memory WHERE HostName = '"+snap.Name+"'")
	rs.Next()
	if v, _ := rs.GetInt("RAMSize"); v != snap.Mem.RAMMB {
		t.Errorf("RAMSize = %d", v)
	}
}

func TestDownHostsOmitted(t *testing.T) {
	f := newFixture(t)
	_ = f.site.SetHostDown(f.site.HostNames()[0], true)
	rs := f.query(t, "SELECT * FROM Processor")
	if rs.Len() != 2 {
		t.Errorf("rows = %d", rs.Len())
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
		t.Error("Disk accepted (SCMS has no disk data)")
	}
	if _, err := stmt.ExecuteQuery("garbage"); err == nil {
		t.Error("bad SQL accepted")
	}
	_ = conn.Close()
	if _, err := conn.CreateStatement(); err == nil {
		t.Error("statement after close")
	}
	if _, err := f.drv.Connect("gridrm:scms://127.0.0.1:1", driver.Properties{"timeout": "150ms"}); err == nil {
		t.Error("dead port accepted")
	}
}

func TestClusterElementGroups(t *testing.T) {
	f := newFixture(t)
	ce := f.site.ComputeElement()
	rs := f.query(t, "SELECT * FROM ComputeElement")
	if rs.Len() != 1 {
		t.Fatalf("CE rows = %d", rs.Len())
	}
	rs.Next()
	if id, _ := rs.GetString("CEId"); id != ce.ID {
		t.Errorf("CEId = %q", id)
	}
	if v, _ := rs.GetInt("TotalCPUs"); v != ce.TotalCPUs {
		t.Errorf("TotalCPUs = %d, want %d", v, ce.TotalCPUs)
	}
	if s, _ := rs.GetString("LRMSType"); s != "pbs" {
		t.Errorf("LRMSType = %q", s)
	}

	rs = f.query(t, "SELECT * FROM StorageElement")
	if rs.Len() != 1 {
		t.Fatalf("SE rows = %d", rs.Len())
	}
	rs.Next()
	se := f.site.StorageElements()[0]
	if v, _ := rs.GetInt("TotalSize"); v != se.TotalGB {
		t.Errorf("TotalSize = %d", v)
	}

	rs = f.query(t, "SELECT * FROM NetworkElement ORDER BY Name")
	if rs.Len() != 2 {
		t.Fatalf("NE rows = %d", rs.Len())
	}
	rs.Next()
	if typ, _ := rs.GetString("Type"); typ != "router" {
		t.Errorf("Type = %q", typ)
	}
	if n, _ := rs.GetInt("PortCount"); n != 8 {
		t.Errorf("PortCount = %d", n)
	}
}

func TestParseFields(t *testing.T) {
	m, err := scms.ParseFields("kind=ne|name=r1|ports=8")
	if err != nil || m["kind"] != "ne" || m["ports"] != "8" {
		t.Errorf("ParseFields = %v, %v", m, err)
	}
	if _, err := scms.ParseFields("noequals"); err == nil {
		t.Error("bad line accepted")
	}
}

func TestSchemaValid(t *testing.T) {
	if err := schema.NewManager().Register(Schema()); err != nil {
		t.Fatal(err)
	}
	if got := len(Schema().Groups); got != 6 {
		t.Errorf("groups = %d, want 6", got)
	}
}
