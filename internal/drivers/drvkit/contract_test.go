package drvkit_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"gridrm/internal/driver"
	"gridrm/internal/drivers/drvkit"
	"gridrm/internal/drivers/gangliadrv"
	"gridrm/internal/drivers/netloggerdrv"
	"gridrm/internal/drivers/nwsdrv"
	"gridrm/internal/drivers/scmsdrv"
	"gridrm/internal/drivers/snmpdrv"
	"gridrm/internal/glue"
	"gridrm/internal/schema"
	"gridrm/internal/sitekit"
)

// native is one row of the contract table: a bundled driver and where its
// agents live in a sitekit manifest.
type native struct {
	protocol string
	new      func(*schema.Manager) driver.Driver
	schema   func() *schema.DriverSchema
	addrs    func(sitekit.Manifest) []string
}

var natives = []native{
	{"snmp", func(sm *schema.Manager) driver.Driver { return snmpdrv.New(sm) }, snmpdrv.Schema,
		func(m sitekit.Manifest) []string { return m.SNMP }},
	{"ganglia", func(sm *schema.Manager) driver.Driver { return gangliadrv.New(sm) }, gangliadrv.Schema,
		func(m sitekit.Manifest) []string { return []string{m.Ganglia} }},
	{"nws", func(sm *schema.Manager) driver.Driver { return nwsdrv.New(sm) }, nwsdrv.Schema,
		func(m sitekit.Manifest) []string { return []string{m.NWS} }},
	{"netlogger", func(sm *schema.Manager) driver.Driver { return netloggerdrv.New(sm) }, netloggerdrv.Schema,
		func(m sitekit.Manifest) []string { return []string{m.NetLogger} }},
	{"scms", func(sm *schema.Manager) driver.Driver { return scmsdrv.New(sm) }, scmsdrv.Schema,
		func(m sitekit.Manifest) []string { return []string{m.SCMS} }},
}

func startSite(t *testing.T) sitekit.Manifest {
	t.Helper()
	site, err := sitekit.Start(sitekit.Options{Name: "contract", Hosts: 3, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	return site.Manifest()
}

func (n native) url(addr string) string { return "gridrm:" + n.protocol + "://" + addr }

func (n native) connect(t *testing.T, d driver.Driver, addr string) driver.Conn {
	t.Helper()
	conn, err := d.Connect(n.url(addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// TestNativeDriverContract holds the five native drivers to the behaviour
// the shared shell promises, against one simulated site.
func TestNativeDriverContract(t *testing.T) {
	m := startSite(t)
	for _, n := range natives {
		addr := n.addrs(m)[0]
		t.Run(n.protocol+"/closed", func(t *testing.T) {
			conn := n.connect(t, n.new(nil), addr)
			stmt, err := conn.CreateStatement()
			if err != nil {
				t.Fatal(err)
			}
			closedStmt, _ := conn.CreateStatement()
			_ = closedStmt.Close()
			if _, err := closedStmt.ExecuteQuery("SELECT * FROM Processor"); !errors.Is(err, driver.ErrClosed) {
				t.Errorf("closed statement: %v, want ErrClosed", err)
			}
			if err := conn.Close(); err != nil {
				t.Fatal(err)
			}
			if err := conn.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
			if _, err := stmt.ExecuteQuery("SELECT * FROM Processor"); !errors.Is(err, driver.ErrClosed) {
				t.Errorf("statement of a closed connection: %v, want ErrClosed", err)
			}
			if _, err := conn.CreateStatement(); !errors.Is(err, driver.ErrClosed) {
				t.Errorf("CreateStatement on a closed connection: %v, want ErrClosed", err)
			}
			if err := conn.Ping(); !errors.Is(err, driver.ErrClosed) {
				t.Errorf("Ping on a closed connection: %v, want ErrClosed", err)
			}
		})
		t.Run(n.protocol+"/unknown-table-and-group", func(t *testing.T) {
			conn := n.connect(t, n.new(nil), addr)
			stmt, _ := conn.CreateStatement()
			if _, err := stmt.ExecuteQuery("SELECT * FROM Nope"); err == nil || !strings.Contains(err.Error(), "unknown group") {
				t.Errorf("unknown table: %v", err)
			}
			if _, err := stmt.ExecuteQuery("junk"); err == nil {
				t.Error("bad SQL accepted")
			}
			absent := ""
			for _, g := range glue.GroupNames() {
				if _, ok := n.schema().Groups[g]; !ok {
					absent = g
					break
				}
			}
			if absent == "" {
				t.Fatal("driver maps every GLUE group; no unsupported case to try")
			}
			if _, err := stmt.ExecuteQuery("SELECT * FROM " + absent); err == nil || !strings.Contains(err.Error(), "not supported") {
				t.Errorf("group %s absent from the mapping: %v", absent, err)
			}
			info := conn.(driver.MetadataProvider).SourceInfo()
			if info.Protocol != n.protocol || len(info.Groups) != len(n.schema().Groups) {
				t.Errorf("SourceInfo = %+v", info)
			}
		})
		t.Run(n.protocol+"/properties", func(t *testing.T) {
			d := n.new(nil)
			for _, bad := range []string{"0s", "-1s", "soon"} {
				_, err := d.Connect(n.url(addr), driver.Properties{"timeout": bad})
				want := fmt.Sprintf("%sdrv: bad timeout %q", n.protocol, bad)
				if err == nil || err.Error() != want {
					t.Errorf("timeout=%s: %v, want %q", bad, err, want)
				}
			}
			_, err := d.Connect(n.url(addr), driver.Properties{"cache_ttl": "soon"})
			if want := n.protocol + `drv: bad cache_ttl "soon"`; err == nil || err.Error() != want {
				t.Errorf("cache_ttl=soon: %v, want %q", err, want)
			}
			// A negative cache_ttl keeps meaning "off".
			conn, err := d.Connect(n.url(addr), driver.Properties{"cache_ttl": "-1s", "timeout": "1s"})
			if err != nil {
				t.Fatalf("cache_ttl=-1s: %v", err)
			}
			_ = conn.Close()
		})
		t.Run(n.protocol+"/schema-reregistration", func(t *testing.T) {
			sm := schema.NewManager()
			if err := sm.Register(n.schema()); err != nil {
				t.Fatal(err)
			}
			conn := n.connect(t, n.new(sm), addr)
			stmt, _ := conn.CreateStatement()
			utilizationNull := func() bool {
				rs, err := stmt.ExecuteQuery("SELECT * FROM Processor")
				if err != nil {
					t.Fatal(err)
				}
				if !rs.Next() {
					t.Fatal("no Processor row")
				}
				_, _ = rs.GetFloat("Utilization")
				return rs.WasNull()
			}
			if utilizationNull() {
				t.Fatal("Utilization missing before the remap")
			}
			// Re-register a narrower mapping: the connection that is
			// already open must see it on its next query (Fig 5).
			narrowed := n.schema()
			gm := narrowed.Groups[glue.GroupProcessor]
			kept := gm.Fields[:0]
			for _, fm := range gm.Fields {
				if fm.GLUEField != "Utilization" {
					kept = append(kept, fm)
				}
			}
			gm.Fields = kept
			if err := sm.Register(narrowed); err != nil {
				t.Fatal(err)
			}
			if !utilizationNull() {
				t.Error("stale schema used after re-registration")
			}
		})
	}
}

// The five drivers describe the same hosts: whatever protocol carries it, the
// Processor view of one site names one host set.
func TestNativeDriversAgreeOnHosts(t *testing.T) {
	m := startSite(t)
	want := append([]string(nil), m.Hosts...)
	sort.Strings(want)
	for _, n := range natives {
		var got []string
		for _, addr := range n.addrs(m) {
			conn := n.connect(t, n.new(nil), addr)
			stmt, _ := conn.CreateStatement()
			rs, err := stmt.ExecuteQuery("SELECT HostName FROM Processor")
			if err != nil {
				t.Fatalf("%s: %v", n.protocol, err)
			}
			for rs.Next() {
				host, _ := rs.GetString("HostName")
				got = append(got, host)
			}
		}
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s hosts = %v, want %v", n.protocol, got, want)
		}
	}
}

// An endpoint that is up but speaks another protocol is rejected at Connect,
// and the driver lets go of the socket it opened.
func TestNonAgentEndpointRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	released := make(chan struct{}, len(natives)) // one per connection a driver may open
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				_, _ = c.Write([]byte("220 not a monitoring agent\n"))
				_, _ = io.Copy(io.Discard, c) // returns when the driver closes its end
				_ = c.Close()
				released <- struct{}{}
			}()
		}
	}()
	udp, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	go func() {
		buf := make([]byte, 2048)
		for {
			_, from, err := udp.ReadFrom(buf)
			if err != nil {
				return
			}
			_, _ = udp.WriteTo([]byte("not snmp"), from)
		}
	}()
	for _, n := range natives {
		addr, stream := ln.Addr().String(), true
		if n.protocol == "snmp" {
			addr, stream = udp.LocalAddr().String(), false
		}
		conn, err := n.new(nil).Connect(n.url(addr), driver.Properties{"timeout": "150ms"})
		if err == nil {
			_ = conn.Close()
			t.Errorf("%s driver bound to a non-agent endpoint", n.protocol)
			continue
		}
		if !strings.Contains(err.Error(), "does not answer as") {
			t.Errorf("%s: %v", n.protocol, err)
		}
		if !stream {
			continue
		}
		select {
		case <-released:
		case <-time.After(5 * time.Second):
			t.Errorf("%s driver kept its socket after a failed handshake", n.protocol)
		}
	}
}

// An agent that never stops writing cannot make a driver buffer without
// bound: gmond's dump is read to EOF, so the read is capped at
// MaxAgentResponse and the harvest fails once the cap is crossed — on
// loopback, long before its timeout.
func TestEndlessAgentResponseIsCapped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	written := make(chan int64, 1) // the one connection Connect opens
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		block := []byte(strings.Repeat("<!-- gmond -->", 1<<12))
		var n int64
		for {
			m, err := c.Write(block)
			n += int64(m)
			if err != nil { // the driver hung up
				written <- n
				return
			}
		}
	}()
	const timeout = 30 * time.Second
	start := time.Now()
	conn, err := gangliadrv.New(nil).Connect("gridrm:ganglia://"+ln.Addr().String(),
		driver.Properties{"timeout": timeout.String()})
	if err == nil {
		_ = conn.Close()
		t.Fatal("ganglia driver bound to an agent that never finished its dump")
	}
	if elapsed := time.Since(start); elapsed >= timeout {
		t.Errorf("gave up after %v: the timeout ended the read, not the cap", elapsed)
	}
	if !strings.Contains(err.Error(), "too large") {
		t.Errorf("err = %v, want the dump refused as oversized", err)
	}
	select {
	case n := <-written:
		if n > 2*drvkit.MaxAgentResponse {
			t.Errorf("agent got %d bytes across before the driver hung up; cap is %d", n, drvkit.MaxAgentResponse)
		}
	case <-time.After(5 * time.Second):
		t.Error("driver kept its socket after refusing the dump")
	}
}
