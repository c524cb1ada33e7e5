// Package integration_test exercises the full GridRM stack end to end: one
// simulated Grid site observed through all five native agents, a gateway
// running every bundled driver, the servlet interface, and the GMA global
// layer. These are the executable counterparts of the paper's deployment
// experience (§3.2.3) and of experiment E10 ("homogeneous view") in
// DESIGN.md.
package integration_test

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridrm/internal/agents/ganglia"
	"gridrm/internal/agents/netlogger"
	"gridrm/internal/agents/nws"
	"gridrm/internal/agents/scms"
	"gridrm/internal/agents/sim"
	"gridrm/internal/agents/snmp"
	"gridrm/internal/core"
	"gridrm/internal/driver"
	"gridrm/internal/drivers/gangliadrv"
	"gridrm/internal/drivers/netloggerdrv"
	"gridrm/internal/drivers/nwsdrv"
	"gridrm/internal/drivers/scmsdrv"
	"gridrm/internal/drivers/snmpdrv"
	"gridrm/internal/event"
	"gridrm/internal/glue"
	"gridrm/internal/gma"
	"gridrm/internal/security"
	"gridrm/internal/web"
)

// site bundles one simulated site with all five agents and a gateway whose
// drivers cover them.
type site struct {
	sim       *sim.Site
	gw        *core.Gateway
	snmpURLs  []string
	ganglia   string
	nws       string
	netlogger string
	scms      string
	nwsAgent  *nws.Agent
	nlAgent   *netlogger.Agent
	admin     security.Principal
}

func newSite(t *testing.T, name string, hosts int, seed int64) *site {
	t.Helper()
	s := &site{
		sim:   sim.New(sim.Config{Name: name, Hosts: hosts, Seed: seed}),
		admin: security.Principal{Name: "admin", Roles: []string{"operator"}},
	}
	s.sim.StepN(5)
	s.gw = core.New(core.Config{Name: name})
	t.Cleanup(s.gw.Close)
	sm := s.gw.SchemaManager()

	if err := s.gw.RegisterDriver(snmpdrv.New(sm), snmpdrv.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := s.gw.RegisterDriver(gangliadrv.New(sm), gangliadrv.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := s.gw.RegisterDriver(nwsdrv.New(sm), nwsdrv.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := s.gw.RegisterDriver(netloggerdrv.New(sm), netloggerdrv.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := s.gw.RegisterDriver(scmsdrv.New(sm), scmsdrv.Schema()); err != nil {
		t.Fatal(err)
	}

	// One SNMP agent per host; the other agents are site-wide.
	for _, host := range s.sim.HostNames() {
		a, err := snmp.NewAgent(s.sim, snmp.AgentConfig{Host: host})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = a.Close() })
		url := "gridrm:snmp://" + a.Addr()
		s.snmpURLs = append(s.snmpURLs, url)
		if err := s.gw.AddSource(core.SourceConfig{URL: url, Description: "snmp " + host}); err != nil {
			t.Fatal(err)
		}
	}
	ga, err := ganglia.NewAgent(s.sim, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ga.Close() })
	s.ganglia = "gridrm:ganglia://" + ga.Addr()
	if err := s.gw.AddSource(core.SourceConfig{URL: s.ganglia, Props: driver.Properties{"cache_ttl": "0s"}}); err != nil {
		t.Fatal(err)
	}
	na, err := nws.NewAgent(s.sim, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = na.Close() })
	na.Sample()
	s.nwsAgent = na
	s.nws = "gridrm:nws://" + na.Addr()
	if err := s.gw.AddSource(core.SourceConfig{URL: s.nws, Props: driver.Properties{"cache_ttl": "0s"}}); err != nil {
		t.Fatal(err)
	}
	nl, err := netlogger.NewAgent(s.sim, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nl.Close() })
	nl.Sample()
	s.nlAgent = nl
	s.netlogger = "gridrm:netlogger://" + nl.Addr()
	if err := s.gw.AddSource(core.SourceConfig{URL: s.netlogger}); err != nil {
		t.Fatal(err)
	}
	sc, err := scms.NewAgent(s.sim, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sc.Close() })
	s.scms = "gridrm:scms://" + sc.Addr()
	if err := s.gw.AddSource(core.SourceConfig{URL: s.scms}); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *site) query(t *testing.T, sql string, sources ...string) *core.Response {
	t.Helper()
	resp, err := s.gw.QueryContext(context.Background(), core.QueryOptions{
		Principal: s.admin,
		SQL:       sql,
		Sources:   sources,
		Mode:      core.ModeRealTime,
	})
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return resp
}

func TestAllDriversServeProcessor(t *testing.T) {
	s := newSite(t, "intg", 3, 101)
	resp := s.query(t, "SELECT * FROM Processor")
	// 3 SNMP agents (1 row each) + ganglia (3) + nws (3) + netlogger (3)
	// + scms (3) = 15 rows.
	if resp.ResultSet.Len() != 15 {
		t.Fatalf("rows = %d, want 15; statuses %+v", resp.ResultSet.Len(), resp.Sources)
	}
	for _, st := range resp.Sources {
		if st.Err != "" {
			t.Errorf("source %s failed: %s", st.Source, st.Err)
		}
	}
	drivers := map[string]bool{}
	for _, st := range resp.Sources {
		drivers[st.Driver] = true
	}
	for _, want := range []string{"jdbc-snmp", "jdbc-ganglia", "jdbc-nws", "jdbc-netlogger", "jdbc-scms"} {
		if !drivers[want] {
			t.Errorf("driver %s unused; drivers = %v", want, drivers)
		}
	}
}

// TestHomogeneousView is E10: the same simulated host queried through every
// driver yields the same GLUE values where the native source carries them,
// and NULL where it does not.
func TestHomogeneousView(t *testing.T) {
	s := newSite(t, "e10", 2, 202)
	host := s.sim.HostNames()[0]
	snap, _ := s.sim.Snapshot(host)

	sources := map[string]string{
		"jdbc-snmp":      s.snmpURLs[0],
		"jdbc-ganglia":   s.ganglia,
		"jdbc-netlogger": s.netlogger,
		"jdbc-scms":      s.scms,
	}
	loads := map[string]float64{}
	for name, src := range sources {
		resp := s.query(t, "SELECT * FROM Processor WHERE HostName = '"+host+"'", src)
		if resp.ResultSet.Len() != 1 {
			t.Fatalf("%s rows = %d", name, resp.ResultSet.Len())
		}
		resp.ResultSet.Next()
		v, err := resp.ResultSet.GetFloat("LoadLast1Min")
		if err != nil {
			t.Fatal(err)
		}
		loads[name] = v
	}
	for name, v := range loads {
		if v != snap.Load1 {
			t.Errorf("%s LoadLast1Min = %v, want %v", name, v, snap.Load1)
		}
	}

	// Memory agreement incl. NWS (which has no Processor load).
	memSources := map[string]string{
		"jdbc-snmp": s.snmpURLs[0], "jdbc-ganglia": s.ganglia,
		"jdbc-netlogger": s.netlogger, "jdbc-scms": s.scms, "jdbc-nws": s.nws,
	}
	for name, src := range memSources {
		resp := s.query(t, "SELECT * FROM Memory WHERE HostName = '"+host+"'", src)
		if resp.ResultSet.Len() != 1 {
			t.Fatalf("%s memory rows = %d", name, resp.ResultSet.Len())
		}
		resp.ResultSet.Next()
		avail, err := resp.ResultSet.GetInt("RAMAvailable")
		if err != nil {
			t.Fatal(err)
		}
		if resp.ResultSet.WasNull() {
			t.Errorf("%s RAMAvailable NULL", name)
		} else if avail != snap.Mem.RAMAvailMB {
			t.Errorf("%s RAMAvailable = %d, want %d", name, avail, snap.Mem.RAMAvailMB)
		}
	}

	// Identity: SCMS and SNMP agree on the CPU model; Ganglia returns NULL.
	respSNMP := s.query(t, "SELECT * FROM Processor WHERE HostName = '"+host+"'", s.snmpURLs[0])
	respSNMP.ResultSet.Next()
	mSNMP, _ := respSNMP.ResultSet.GetString("Model")
	respSCMS := s.query(t, "SELECT * FROM Processor WHERE HostName = '"+host+"'", s.scms)
	respSCMS.ResultSet.Next()
	mSCMS, _ := respSCMS.ResultSet.GetString("Model")
	if mSNMP != snap.CPU.Model || mSCMS != snap.CPU.Model {
		t.Errorf("models: snmp %q, scms %q, want %q", mSNMP, mSCMS, snap.CPU.Model)
	}
	respG := s.query(t, "SELECT * FROM Processor WHERE HostName = '"+host+"'", s.ganglia)
	respG.ResultSet.Next()
	respG.ResultSet.GetString("Model")
	if !respG.ResultSet.WasNull() {
		t.Error("ganglia Model should be NULL")
	}
}

func TestUtilizationAgreementWithinTolerance(t *testing.T) {
	// Utilization fidelity differs by source (SNMP's hrProcessorLoad is an
	// integer percentage) — agreement is within 1 percentage point.
	s := newSite(t, "tol", 2, 303)
	host := s.sim.HostNames()[0]
	snap, _ := s.sim.Snapshot(host)
	for _, src := range []string{s.snmpURLs[0], s.ganglia, s.scms, s.netlogger} {
		resp := s.query(t, "SELECT Utilization FROM Processor WHERE HostName = '"+host+"'", src)
		resp.ResultSet.Next()
		v, _ := resp.ResultSet.GetFloat("Utilization")
		if math.Abs(v-snap.UtilPct) > 1.0 {
			t.Errorf("source %s Utilization = %v, want ≈%v", src, v, snap.UtilPct)
		}
	}
}

func TestConsolidationAcrossGroups(t *testing.T) {
	s := newSite(t, "gr", 2, 404)
	// Disk: 2 SNMP agents × 2 disks + ganglia aggregate (2 hosts) +
	// nws aggregate (2 hosts) = 8 rows.
	resp := s.query(t, "SELECT * FROM Disk")
	if resp.ResultSet.Len() != 8 {
		t.Errorf("disk rows = %d; statuses %+v", resp.ResultSet.Len(), resp.Sources)
	}
	// Process rows come only from SNMP (6 procs per host default).
	resp = s.query(t, "SELECT * FROM Process")
	if resp.ResultSet.Len() != 12 {
		t.Errorf("process rows = %d", resp.ResultSet.Len())
	}
	// OperatingSystem from SNMP (2) + ganglia (2) + scms (2).
	resp = s.query(t, "SELECT * FROM OperatingSystem")
	if resp.ResultSet.Len() != 6 {
		t.Errorf("os rows = %d", resp.ResultSet.Len())
	}
}

func TestDynamicDriverLocationOnProtocolLessURL(t *testing.T) {
	// A URL with no protocol hint: the DriverManager must find the right
	// driver by probing (Table 2's "supports the URL AND can connect").
	s := newSite(t, "dyn", 2, 505)
	bare := strings.Replace(s.scms, "gridrm:scms://", "gridrm://", 1)
	if err := s.gw.AddSource(core.SourceConfig{URL: bare,
		Props: driver.Properties{"timeout": "300ms"}}); err != nil {
		t.Fatal(err)
	}
	resp := s.query(t, "SELECT * FROM Processor", bare)
	if resp.Sources[0].Err != "" {
		t.Fatalf("dynamic selection failed: %s", resp.Sources[0].Err)
	}
	if resp.Sources[0].Driver != "jdbc-scms" {
		t.Errorf("selected %q", resp.Sources[0].Driver)
	}
	if name, ok := s.gw.DriverManager().CachedDriver(bare); !ok || name != "jdbc-scms" {
		t.Errorf("last-good cache = %q, %v", name, ok)
	}
}

func TestHostFailureFailover(t *testing.T) {
	s := newSite(t, "fo", 2, 606)
	host := s.sim.HostNames()[0]
	_ = s.sim.SetHostDown(host, true)
	// The per-host SNMP agent stops answering; the query against that
	// source fails, the others still answer.
	resp, err := s.gw.QueryContext(context.Background(), core.QueryOptions{
		Principal: s.admin,
		SQL:       "SELECT * FROM Processor",
		Sources:   []string{s.snmpURLs[0], s.scms},
		Mode:      core.ModeRealTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	var downErr string
	for _, st := range resp.Sources {
		if st.Source == s.snmpURLs[0] {
			downErr = st.Err
		}
	}
	if downErr == "" {
		t.Error("down host not reported")
	}
	if resp.ResultSet.Len() != 1 { // scms serves the one remaining host
		t.Errorf("rows = %d", resp.ResultSet.Len())
	}
	info, _ := s.gw.Source(s.snmpURLs[0])
	if info.LastError == "" {
		t.Error("tree-view health not updated")
	}
}

func TestHistoricalAcrossDrivers(t *testing.T) {
	s := newSite(t, "hist", 2, 707)
	s.query(t, "SELECT * FROM Memory")
	s.sim.StepN(2)
	s.nwsAgent.Sample()
	s.nlAgent.Sample()
	s.query(t, "SELECT * FROM Memory")
	resp, err := s.gw.QueryContext(context.Background(), core.QueryOptions{
		Principal: s.admin,
		SQL:       "SELECT HostName, RAMAvailable, SourceURL FROM Memory",
		Mode:      core.ModeHistorical,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 harvests × (2 snmp + 2 ganglia + 2 nws + 2 netlogger + 2 scms).
	if resp.ResultSet.Len() != 20 {
		t.Errorf("historical rows = %d", resp.ResultSet.Len())
	}
}

func TestEventsFlowFromSimToGateway(t *testing.T) {
	s := newSite(t, "ev", 3, 808)
	if err := s.gw.Events().AttachInbound(&netloggerdrv.InboundEvents{URL: s.netlogger}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	_ = s.sim.SetHostDown(s.sim.HostNames()[2], true)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		evs := s.gw.Events().History(event.Filter{Name: string(sim.EventHostDown)}, time.Time{})
		if len(evs) > 0 {
			if evs[0].Host != s.sim.HostNames()[2] {
				t.Errorf("event host %q", evs[0].Host)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("host-down event never reached the gateway")
}

func TestFullFederationOverHTTP(t *testing.T) {
	// Two complete sites, two servlet gateways, one GMA directory: a
	// client at site A reads site B's SNMP-backed processor data.
	siteA := newSite(t, "siteA", 2, 901)
	siteB := newSite(t, "siteB", 3, 902)

	dir := gma.NewDirectory(time.Minute, nil)
	srvA := httptest.NewServer(web.NewServer(siteA.gw, nil, dir.Handler()))
	defer srvA.Close()
	srvB := httptest.NewServer(web.NewServer(siteB.gw, nil, nil))
	defer srvB.Close()

	regB := gma.NewRegistrar(dir, gma.Registration{Name: "siteB", Endpoint: srvB.URL,
		Groups: glue.GroupNames()}, time.Minute)
	if err := regB.Start(); err != nil {
		t.Fatal(err)
	}
	defer regB.Stop()

	siteA.gw.SetGlobalRouter(gma.NewRouter(dir, web.RemoteQueryContext, "siteA", gma.Config{}))

	client := &web.Client{BaseURL: srvA.URL, Principal: siteA.admin}
	resp, err := client.Query(context.Background(), core.QueryOptions{
		SQL:  "SELECT HostName, LoadLast1Min FROM Processor ORDER BY HostName",
		Site: "siteB",
		Mode: core.ModeRealTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Site != "siteB" {
		t.Errorf("answered by %q", resp.Site)
	}
	// 3 hosts × 5 driver views at site B.
	if resp.ResultSet.Len() != 15 {
		t.Errorf("federated rows = %d", resp.ResultSet.Len())
	}
	resp.ResultSet.Next()
	if h, _ := resp.ResultSet.GetString("HostName"); !strings.HasPrefix(h, "siteB-") {
		t.Errorf("host %q", h)
	}
	if siteA.gw.Stats().Routed != 1 {
		t.Errorf("routed = %d", siteA.gw.Stats().Routed)
	}

	// VO-wide query: one SQL statement consolidated across both sites,
	// with the ordering applied globally.
	resp, err = client.Query(context.Background(), core.QueryOptions{
		SQL:  "SELECT HostName, LoadLast1Min FROM Processor WHERE LoadLast1Min IS NOT NULL ORDER BY HostName",
		Site: core.AllSites,
		Mode: core.ModeRealTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	// siteA: 2 hosts × 4 load-bearing views; siteB: 3 × 4 (NWS maps no
	// load → filtered by IS NOT NULL).
	if resp.ResultSet.Len() != 20 {
		t.Errorf("VO-wide rows = %d", resp.ResultSet.Len())
	}
	resp.ResultSet.Next()
	first, _ := resp.ResultSet.GetString("HostName")
	if !strings.HasPrefix(first, "siteA-") {
		t.Errorf("global order starts at %q", first)
	}
}
