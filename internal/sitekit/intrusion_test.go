package sitekit

import (
	"context"
	"strings"
	"testing"

	"gridrm/internal/glue"
	"gridrm/internal/security"
)

// TestOneExchangePerHarvest is the paper's §4 "limit resource intrusion" for
// the real-time path, counted at the agents: through each native driver, N
// polls of one group over a pooled connection cost the agent exactly N times
// what one Fetch of that group costs — no sysUpTime Get, no empty Ganglia
// dial, no LIST, HOSTS or NODES between them. While the pool validated every
// idle connection before handing it out (up to 308c47c, where this test was
// run too) each poll cost one exchange more: 2, 2, 12, 10 and 2 requests a poll
// where it is now 1, 1, 11, 9 and 1 (snmp, ganglia, nws, netlogger, scms; two
// hosts, the coarse drivers' own response cache off).
func TestOneExchangePerHarvest(t *testing.T) {
	s, err := Start(Options{Name: "intrusion", Hosts: 2, Seed: 11, CoarseCacheTTL: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gw, err := NewGateway(s.Manifest(), s.Opts, false)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	requests := map[string]func() int64{
		"snmp": s.SNMP[0].Requests, "ganglia": s.Gmon.Requests, "nws": s.NWS.Requests,
		"netlogger": s.NL.Requests, "scms": s.SCMS.Requests,
	}
	admin := security.Principal{Name: "intrusion-test"}
	const polls = 5
	seen := 0
	for _, cfg := range SourceConfigs(s.Manifest(), s.Opts, false) {
		proto, _, _ := strings.Cut(strings.TrimPrefix(cfg.URL, "gridrm:"), ":")
		asked := requests[proto]
		if proto == "snmp" && !strings.HasSuffix(cfg.URL, s.Manifest().SNMP[0]) {
			continue // one SNMP agent stands for all of them
		}
		seen++

		// What one Fetch costs: a statement on a connection of the driver's
		// own, with no gateway and no pool in the way.
		conn, err := gw.Pool().Drivers().Connect(cfg.URL, cfg.Props)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		stmt, err := conn.CreateStatement()
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		before := asked()
		if _, err := stmt.ExecuteQuery("SELECT * FROM " + glue.GroupProcessor); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		perFetch := asked() - before
		_ = conn.Close()

		poll := func() {
			t.Helper()
			resp, err := gw.PollContext(context.Background(), admin, cfg.URL, glue.GroupProcessor)
			if err != nil || resp.Sources[0].Err != "" || resp.ResultSet.Len() == 0 {
				t.Fatalf("%s: poll: %v, %+v", proto, err, resp)
			}
		}
		poll() // the first connect: handshake and all
		before, hits := asked(), gw.Pool().Stats().Hits
		for i := 0; i < polls; i++ {
			poll()
		}
		got := asked() - before
		t.Logf("%-9s %d agent requests a Fetch, %d over %d pooled polls", proto, perFetch, got, polls)
		if perFetch < 1 || got != polls*perFetch {
			t.Errorf("%s: %d pooled polls cost the agent %d requests, want %d (%d a Fetch)", proto, polls, got, polls*perFetch, perFetch)
		}
		if reused := gw.Pool().Stats().Hits - hits; reused != polls {
			t.Errorf("%s: %d of %d polls reused the pooled connection", proto, reused, polls)
		}
	}
	if seen != len(requests) {
		t.Errorf("covered %d drivers, want %d", seen, len(requests))
	}
	if pf := gw.Pool().Stats().PingFailures; pf != 0 {
		t.Errorf("PingFailures = %d on healthy agents", pf)
	}
}
