package gangliadrv

import (
	"testing"
	"time"

	"gridrm/internal/agents/ganglia"
	"gridrm/internal/agents/sim"
	"gridrm/internal/driver"
	"gridrm/internal/drivers/drvkit"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/schema"
)

type fixture struct {
	site  *sim.Site
	agent *ganglia.Agent
	drv   driver.Driver
	sm    *schema.Manager
	url   string
	now   *time.Time
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	site := sim.New(sim.Config{Name: "g", Hosts: 3, Seed: 17})
	site.StepN(4)
	agent, err := ganglia.NewAgent(site, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agent.Close() })
	sm := schema.NewManager()
	if err := sm.Register(Schema()); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(99000, 0)
	drv := New(sm)
	drv.SetClock(func() time.Time { return now })
	return &fixture{site: site, agent: agent, drv: drv, sm: sm,
		url: "gridrm:ganglia://" + agent.Addr(), now: &now}
}

func (f *fixture) connect(t *testing.T) driver.Conn {
	t.Helper()
	conn, err := f.drv.Connect(f.url, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
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

func TestAcceptsURL(t *testing.T) {
	d := New(nil)
	if !d.AcceptsURL("gridrm:ganglia://h") || !d.AcceptsURL("gridrm://h") {
		t.Error("accepts")
	}
	if d.AcceptsURL("gridrm:snmp://h") || d.AcceptsURL("junk") {
		t.Error("over-accepts")
	}
}

func TestConnectProbe(t *testing.T) {
	f := newFixture(t)
	if _, err := f.drv.Connect("gridrm:ganglia://127.0.0.1:1", driver.Properties{"timeout": "150ms"}); err == nil {
		t.Error("connect to dead port succeeded")
	}
	conn := f.connect(t)
	if err := conn.Ping(); err != nil {
		t.Errorf("ping: %v", err)
	}
	info := conn.(driver.MetadataProvider).SourceInfo()
	if info.Protocol != "ganglia" || info.AgentVersion != ganglia.AgentVersion {
		t.Errorf("source info %+v", info)
	}
}

func TestProcessorRowsAllHosts(t *testing.T) {
	f := newFixture(t)
	conn := f.connect(t)
	rs := f.query(t, conn, "SELECT * FROM Processor ORDER BY HostName")
	if rs.Len() != 3 {
		t.Fatalf("rows = %d (coarse dump covers the cluster)", rs.Len())
	}
	snap, _ := f.site.Snapshot(f.site.HostNames()[0])
	rs.Next()
	if h, _ := rs.GetString("HostName"); h != snap.Name {
		t.Errorf("host = %q", h)
	}
	if l, _ := rs.GetFloat("LoadLast1Min"); l != snap.Load1 {
		t.Errorf("load = %v, want %v", l, snap.Load1)
	}
	if c, _ := rs.GetInt("ClockSpeed"); c != snap.CPU.ClockMHz {
		t.Errorf("clock = %d", c)
	}
	if n, _ := rs.GetInt("CPUCount"); n != snap.CPU.Count {
		t.Errorf("cpus = %d", n)
	}
	// gmond has no model string → NULL.
	rs.GetString("Model")
	if !rs.WasNull() {
		t.Error("Model should be NULL via Ganglia")
	}
}

func TestMemoryAndOS(t *testing.T) {
	f := newFixture(t)
	conn := f.connect(t)
	snap, _ := f.site.Snapshot(f.site.HostNames()[0])
	rs := f.query(t, conn, "SELECT * FROM Memory WHERE HostName = '"+snap.Name+"'")
	if rs.Len() != 1 {
		t.Fatalf("rows = %d", rs.Len())
	}
	rs.Next()
	if v, _ := rs.GetInt("RAMSize"); v != snap.Mem.RAMMB {
		t.Errorf("RAMSize = %d", v)
	}
	if v, _ := rs.GetInt("VirtualAvailable"); v != snap.Mem.VirtAvailMB {
		t.Errorf("VirtualAvailable = %d", v)
	}
	rs = f.query(t, conn, "SELECT * FROM OperatingSystem WHERE HostName = '"+snap.Name+"'")
	rs.Next()
	if v, _ := rs.GetString("Name"); v != snap.OS.Name {
		t.Errorf("OS name = %q", v)
	}
	if v, _ := rs.GetTime("BootTime"); !v.Equal(snap.OS.BootTime) {
		t.Errorf("BootTime = %v, want %v", v, snap.OS.BootTime)
	}
	rs.GetInt("Uptime")
	if !rs.WasNull() {
		t.Error("Uptime should be NULL via Ganglia")
	}
}

func TestAggregateDiskAndNetwork(t *testing.T) {
	f := newFixture(t)
	conn := f.connect(t)
	snap, _ := f.site.Snapshot(f.site.HostNames()[0])
	rs := f.query(t, conn, "SELECT * FROM Disk WHERE HostName = '"+snap.Name+"'")
	if rs.Len() != 1 {
		t.Fatalf("disk rows = %d (aggregate)", rs.Len())
	}
	rs.Next()
	if d, _ := rs.GetString("DeviceName"); d != "total" {
		t.Errorf("device = %q", d)
	}
	var totalMB int64
	for _, d := range snap.Disks {
		totalMB += d.SizeMB
	}
	if v, _ := rs.GetInt("Size"); v != totalMB {
		t.Errorf("aggregate size = %d, want %d", v, totalMB)
	}
	rs = f.query(t, conn, "SELECT * FROM NetworkAdapter WHERE HostName = '"+snap.Name+"'")
	rs.Next()
	if i, _ := rs.GetString("InterfaceName"); i != "all" {
		t.Errorf("interface = %q", i)
	}
	if v, _ := rs.GetInt("BytesIn"); v != snap.Nics[0].BytesIn {
		t.Errorf("bytesIn = %d", v)
	}
	rs.GetFloat("Bandwidth")
	if !rs.WasNull() {
		t.Error("Bandwidth should be NULL via Ganglia")
	}
}

func TestDumpCachePolicy(t *testing.T) {
	f := newFixture(t)
	conn, err := f.drv.Connect(f.url, driver.Properties{"cache_ttl": "1s"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := conn.(*drvkit.Conn).Session().(*session).dump
	if c.Fetches != 1 { // connect probe
		t.Fatalf("fetches after connect = %d", c.Fetches)
	}
	// Several groups within the TTL share one dump.
	f.query(t, conn, "SELECT * FROM Processor")
	f.query(t, conn, "SELECT * FROM Memory")
	f.query(t, conn, "SELECT * FROM Disk")
	if c.Fetches != 1 {
		t.Errorf("fetches within TTL = %d, want 1", c.Fetches)
	}
	// TTL expiry refetches.
	*f.now = f.now.Add(2 * time.Second)
	f.query(t, conn, "SELECT * FROM Processor")
	if c.Fetches != 2 {
		t.Errorf("fetches after expiry = %d, want 2", c.Fetches)
	}
}

func TestCacheDisabled(t *testing.T) {
	f := newFixture(t)
	conn, err := f.drv.Connect(f.url, driver.Properties{"cache_ttl": "0s"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := conn.(*drvkit.Conn).Session().(*session).dump
	f.query(t, conn, "SELECT * FROM Processor")
	f.query(t, conn, "SELECT * FROM Processor")
	if c.Fetches != 3 { // probe + 2 queries
		t.Errorf("fetches with TTL 0 = %d, want 3", c.Fetches)
	}
}

func TestUnsupportedGroupAndErrors(t *testing.T) {
	f := newFixture(t)
	conn := f.connect(t)
	stmt, _ := conn.CreateStatement()
	if _, err := stmt.ExecuteQuery("SELECT * FROM Process"); err == nil {
		t.Error("Process accepted (gmond has no process table)")
	}
	if _, err := stmt.ExecuteQuery("junk"); err == nil {
		t.Error("bad SQL accepted")
	}
	_ = conn.Close()
	if _, err := stmt.ExecuteQuery("SELECT * FROM Processor"); err == nil {
		t.Error("query on closed conn accepted")
	}
	if _, err := f.drv.Connect(f.url, driver.Properties{"timeout": "x"}); err == nil {
		t.Error("bad timeout accepted")
	}
	if _, err := f.drv.Connect(f.url, driver.Properties{"cache_ttl": "x"}); err == nil {
		t.Error("bad cache_ttl accepted")
	}
}

func TestDownHostsOmitted(t *testing.T) {
	f := newFixture(t)
	conn, err := f.drv.Connect(f.url, driver.Properties{"cache_ttl": "0s"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = f.site.SetHostDown(f.site.HostNames()[1], true)
	rs := f.query(t, conn, "SELECT * FROM Processor")
	if rs.Len() != 2 {
		t.Errorf("rows with down host = %d", rs.Len())
	}
}

func TestSchemaValid(t *testing.T) {
	if err := schema.NewManager().Register(Schema()); err != nil {
		t.Fatal(err)
	}
	if _, ok := Schema().Groups[glue.GroupProcess]; ok {
		t.Error("ganglia driver must not claim Process")
	}
}

// TestOutOfRangeReadingsAreNull: a VAL that no int64 holds reads NULL in an
// integral field, never the number a bare conversion would make of it.
func TestOutOfRangeReadingsAreNull(t *testing.T) {
	for _, tc := range []struct{ native, val, typ string }{
		{"cpu_num|int", "1e300", "uint32"},
		{"cpu_num", "1e300", "uint32"},
		{"mem_total|kb-to-mb", "-5e30", "float"},
		{"disk_total|gb-to-mb", "1e16", "double"},
		{"boottime|unix-to-time", "NaN", "uint32"},
		{"bytes_in|int", "+Inf", "float"},
	} {
		name, _, _ := cutConv(tc.native)
		metrics := map[string]ganglia.Metric{name: {Name: name, Val: tc.val, Type: tc.typ}}
		if v, ok := hostValue(ganglia.Host{Name: "h"}, metrics, tc.native); ok {
			t.Errorf("%s with VAL %q reads %v, want NULL", tc.native, tc.val, v)
		}
	}
	metrics := map[string]ganglia.Metric{"cpu_num": {Name: "cpu_num", Val: "4", Type: "uint32"}}
	if v, ok := hostValue(ganglia.Host{Name: "h"}, metrics, "cpu_num|int"); !ok || v != int64(4) {
		t.Errorf("cpu_num 4 reads %v, %v", v, ok)
	}
}
