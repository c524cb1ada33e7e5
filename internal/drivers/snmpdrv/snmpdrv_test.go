package snmpdrv

import (
	"strings"
	"testing"
	"time"

	"gridrm/internal/agents/sim"
	"gridrm/internal/agents/snmp"
	"gridrm/internal/driver"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/schema"
)

type fixture struct {
	site  *sim.Site
	agent *snmp.Agent
	drv   driver.Driver
	sm    *schema.Manager
	url   string
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	site := sim.New(sim.Config{Name: "s", Hosts: 2, Seed: 21})
	site.StepN(5)
	agent, err := snmp.NewAgent(site, snmp.AgentConfig{Host: site.HostNames()[0]})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agent.Close() })
	sm := schema.NewManager()
	if err := sm.Register(Schema()); err != nil {
		t.Fatal(err)
	}
	return &fixture{
		site:  site,
		agent: agent,
		drv:   New(sm),
		sm:    sm,
		url:   "gridrm:snmp://" + agent.Addr(),
	}
}

func (f *fixture) query(t *testing.T, sql string) *resultset.ResultSet {
	t.Helper()
	conn, err := f.drv.Connect(f.url, driver.Properties{"timeout": "2s"})
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

func TestAcceptsURL(t *testing.T) {
	d := New(nil)
	cases := map[string]bool{
		"gridrm:snmp://h:1":    true,
		"gridrm://h:1":         true,
		"gridrm:ganglia://h:1": false,
		"nonsense":             false,
	}
	for url, want := range cases {
		if got := d.AcceptsURL(url); got != want {
			t.Errorf("AcceptsURL(%q) = %v", url, got)
		}
	}
	if d.Name() != DriverName || d.Version() == "" {
		t.Error("identity")
	}
}

func TestConnectProbeRejectsNonAgent(t *testing.T) {
	f := newFixture(t)
	// Nothing listens on this UDP port pairing with high probability.
	_, err := f.drv.Connect("gridrm:snmp://127.0.0.1:1", driver.Properties{"timeout": "150ms"})
	if err == nil {
		t.Error("connect to dead port succeeded")
	}
	if _, err := f.drv.Connect("gridrm:snmp://h:1", driver.Properties{"timeout": "junk"}); err == nil {
		t.Error("bad timeout accepted")
	}
}

func TestProcessorRow(t *testing.T) {
	f := newFixture(t)
	rs := f.query(t, "SELECT * FROM Processor")
	if rs.Len() != 1 {
		t.Fatalf("rows = %d", rs.Len())
	}
	snap, _ := f.site.Snapshot(f.agent.Host())
	rs.Next()
	if h, _ := rs.GetString("HostName"); h != snap.Name {
		t.Errorf("HostName = %q", h)
	}
	if m, _ := rs.GetString("Model"); m != snap.CPU.Model {
		t.Errorf("Model = %q", m)
	}
	if v, _ := rs.GetInt("ClockSpeed"); v != snap.CPU.ClockMHz {
		t.Errorf("ClockSpeed = %d", v)
	}
	if l, _ := rs.GetFloat("LoadLast1Min"); l != snap.Load1 {
		t.Errorf("Load1 = %v, want %v", l, snap.Load1)
	}
	if l, _ := rs.GetFloat("LoadLast15Min"); l != snap.Load15 {
		t.Errorf("Load15 = %v", l)
	}
	// CPUCount is deliberately unmapped → NULL.
	if _, err := rs.GetInt("CPUCount"); err != nil {
		t.Fatal(err)
	}
	if !rs.WasNull() {
		t.Error("CPUCount should be NULL for the SNMP driver")
	}
}

func TestMemoryRow(t *testing.T) {
	f := newFixture(t)
	rs := f.query(t, "SELECT * FROM Memory")
	snap, _ := f.site.Snapshot(f.agent.Host())
	rs.Next()
	if v, _ := rs.GetInt("RAMSize"); v != snap.Mem.RAMMB {
		t.Errorf("RAMSize = %d, want %d", v, snap.Mem.RAMMB)
	}
	if v, _ := rs.GetInt("RAMAvailable"); v != snap.Mem.RAMAvailMB {
		t.Errorf("RAMAvailable = %d, want %d", v, snap.Mem.RAMAvailMB)
	}
	if v, _ := rs.GetFloat("SwapInRate"); v != snap.Mem.SwapInPerSec {
		t.Errorf("SwapInRate = %v", v)
	}
	if _, err := rs.GetInt("VirtualSize"); err != nil {
		t.Fatal(err)
	}
	if !rs.WasNull() {
		t.Error("VirtualSize should be NULL")
	}
}

func TestOperatingSystemRow(t *testing.T) {
	f := newFixture(t)
	rs := f.query(t, "SELECT * FROM OperatingSystem")
	snap, _ := f.site.Snapshot(f.agent.Host())
	rs.Next()
	if v, _ := rs.GetString("Name"); v != snap.OS.Name {
		t.Errorf("Name = %q", v)
	}
	if v, _ := rs.GetString("Release"); v != snap.OS.Release {
		t.Errorf("Release = %q", v)
	}
	if v, _ := rs.GetInt("Uptime"); v != snap.OS.UptimeS {
		t.Errorf("Uptime = %d, want %d", v, snap.OS.UptimeS)
	}
	if v, _ := rs.GetTime("BootTime"); !v.Equal(snap.OS.BootTime) {
		t.Errorf("BootTime = %v, want %v", v, snap.OS.BootTime)
	}
}

func TestDiskRows(t *testing.T) {
	f := newFixture(t)
	rs := f.query(t, "SELECT * FROM Disk ORDER BY DeviceName")
	snap, _ := f.site.Snapshot(f.agent.Host())
	if rs.Len() != len(snap.Disks) {
		t.Fatalf("rows = %d, want %d", rs.Len(), len(snap.Disks))
	}
	for i := 0; rs.Next(); i++ {
		if d, _ := rs.GetString("DeviceName"); d != snap.Disks[i].Device {
			t.Errorf("device = %q", d)
		}
		if v, _ := rs.GetInt("Size"); v != snap.Disks[i].SizeMB {
			t.Errorf("size = %d", v)
		}
		if v, _ := rs.GetInt("Available"); v != snap.Disks[i].AvailMB {
			t.Errorf("avail = %d", v)
		}
		rs.GetFloat("ReadRate")
		if !rs.WasNull() {
			t.Error("ReadRate should be NULL")
		}
	}
}

func TestNetworkAdapterRows(t *testing.T) {
	f := newFixture(t)
	rs := f.query(t, "SELECT * FROM NetworkAdapter")
	snap, _ := f.site.Snapshot(f.agent.Host())
	if rs.Len() != len(snap.Nics) {
		t.Fatalf("rows = %d", rs.Len())
	}
	rs.Next()
	nic := snap.Nics[0]
	if v, _ := rs.GetString("InterfaceName"); v != nic.Name {
		t.Errorf("interface = %q", v)
	}
	if v, _ := rs.GetString("IPAddress"); v != nic.IP {
		t.Errorf("ip = %q", v)
	}
	if v, _ := rs.GetFloat("Bandwidth"); v != nic.BandwidthMbps {
		t.Errorf("bandwidth = %v", v)
	}
	if v, _ := rs.GetInt("BytesIn"); v != nic.BytesIn {
		t.Errorf("bytesIn = %d, want %d", v, nic.BytesIn)
	}
	rs.GetFloat("Latency")
	if !rs.WasNull() {
		t.Error("Latency should be NULL")
	}
}

func TestProcessRows(t *testing.T) {
	f := newFixture(t)
	rs := f.query(t, "SELECT * FROM Process ORDER BY PID")
	snap, _ := f.site.Snapshot(f.agent.Host())
	if rs.Len() != len(snap.Procs) {
		t.Fatalf("rows = %d, want %d", rs.Len(), len(snap.Procs))
	}
	rs.Next()
	if pid, _ := rs.GetInt("PID"); pid <= 0 {
		t.Errorf("pid = %d", pid)
	}
	if name, _ := rs.GetString("Name"); name == "" {
		t.Error("empty process name")
	}
	rs.GetString("User")
	if !rs.WasNull() {
		t.Error("User should be NULL")
	}
}

func TestWherePushedThroughDriver(t *testing.T) {
	f := newFixture(t)
	rs := f.query(t, "SELECT DeviceName FROM Disk WHERE DeviceName = 'sda'")
	if rs.Len() != 1 {
		t.Fatalf("rows = %d", rs.Len())
	}
	if rs.Metadata().ColumnCount() != 1 {
		t.Error("projection not applied")
	}
}

func TestUnsupportedGroup(t *testing.T) {
	f := newFixture(t)
	conn, err := f.drv.Connect(f.url, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stmt, _ := conn.CreateStatement()
	if _, err := stmt.ExecuteQuery("SELECT * FROM ComputeElement"); err == nil {
		t.Error("unsupported group accepted")
	}
	if _, err := stmt.ExecuteQuery("SELECT * FROM NoSuchGroup"); err == nil {
		t.Error("unknown group accepted")
	}
	if _, err := stmt.ExecuteQuery("not sql"); err == nil {
		t.Error("bad SQL accepted")
	}
}

func TestPingAndClose(t *testing.T) {
	f := newFixture(t)
	conn, err := f.drv.Connect(f.url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Ping(); err != nil {
		t.Errorf("ping: %v", err)
	}
	if mp, ok := conn.(driver.MetadataProvider); !ok {
		t.Error("no metadata provider")
	} else if info := mp.SourceInfo(); info.Protocol != "snmp" || len(info.Groups) != 6 {
		t.Errorf("source info %+v", info)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Ping(); err == nil {
		t.Error("ping after close succeeded")
	}
	if _, err := conn.CreateStatement(); err == nil {
		t.Error("statement after close")
	}
	if err := conn.Close(); err != nil {
		t.Error("double close")
	}
}

func TestSchemaCacheRevalidation(t *testing.T) {
	f := newFixture(t)
	conn, err := f.drv.Connect(f.url, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stmt, _ := conn.CreateStatement()
	rs, err := stmt.ExecuteQuery("SELECT * FROM Processor")
	if err != nil {
		t.Fatal(err)
	}
	rs.Next()
	if v, _ := rs.GetString("Vendor"); v == "" {
		t.Fatal("vendor missing before remap")
	}
	// Re-register a narrower mapping: the live statement must pick it up
	// (Fig 5 cache-consistency check).
	narrowed := Schema()
	fields := narrowed.Groups[glue.GroupProcessor].Fields
	kept := fields[:0]
	for _, fm := range fields {
		if fm.GLUEField != "Vendor" {
			kept = append(kept, fm)
		}
	}
	narrowed.Groups[glue.GroupProcessor].Fields = kept
	if err := f.sm.Register(narrowed); err != nil {
		t.Fatal(err)
	}
	rs, err = stmt.ExecuteQuery("SELECT * FROM Processor")
	if err != nil {
		t.Fatal(err)
	}
	rs.Next()
	rs.GetString("Vendor")
	if !rs.WasNull() {
		t.Error("stale schema used after re-registration")
	}
}

func TestHostDownTimesOut(t *testing.T) {
	f := newFixture(t)
	conn, err := f.drv.Connect(f.url, driver.Properties{"timeout": "150ms"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = f.site.SetHostDown(f.agent.Host(), true)
	stmt, _ := conn.CreateStatement()
	start := time.Now()
	if _, err := stmt.ExecuteQuery("SELECT * FROM Processor"); err == nil {
		t.Error("query against down host succeeded")
	}
	if time.Since(start) < 100*time.Millisecond {
		t.Error("failure was not a timeout")
	}
}

func TestSchemaRegistrationValid(t *testing.T) {
	// The shipped mapping must validate against GLUE.
	if err := schema.NewManager().Register(Schema()); err != nil {
		t.Fatal(err)
	}
	groups := Schema().GroupNames()
	want := []string{glue.GroupDisk, glue.GroupMemory, glue.GroupNetworkAdapter,
		glue.GroupOperatingSystem, glue.GroupProcess, glue.GroupProcessor}
	if strings.Join(groups, ",") != strings.Join(want, ",") {
		t.Errorf("groups = %v", groups)
	}
}
