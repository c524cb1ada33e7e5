package sitekit

import (
	"context"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/security"
)

func TestStartAndManifest(t *testing.T) {
	s, err := Start(Options{Name: "kit", Hosts: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := s.Manifest()
	if m.Site != "kit" || len(m.SNMP) != 2 || len(m.Hosts) != 2 {
		t.Fatalf("manifest %+v", m)
	}
	if m.Ganglia == "" || m.NWS == "" || m.NetLogger == "" || m.SCMS == "" {
		t.Errorf("missing endpoints %+v", m)
	}
	data, err := MarshalManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Site != m.Site || len(back.SNMP) != len(m.SNMP) {
		t.Errorf("round trip %+v", back)
	}
	if _, err := ParseManifest([]byte("junk")); err == nil {
		t.Error("bad manifest accepted")
	}
}

func TestSourceConfigs(t *testing.T) {
	s, err := Start(Options{Name: "kit", Hosts: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfgs := SourceConfigs(s.Manifest(), s.Opts, false)
	if len(cfgs) != 6 { // 2 snmp + 4 site-wide
		t.Fatalf("configs = %d", len(cfgs))
	}
	for _, cfg := range cfgs {
		if len(cfg.Drivers) != 1 {
			t.Errorf("static config %s has prefs %v", cfg.URL, cfg.Drivers)
		}
	}
	dyn := SourceConfigs(s.Manifest(), s.Opts, true)
	for _, cfg := range dyn {
		if len(cfg.Drivers) != 0 {
			t.Errorf("dynamic config %s has prefs %v", cfg.URL, cfg.Drivers)
		}
	}
}

func TestNewGatewayEndToEnd(t *testing.T) {
	s, err := Start(Options{Name: "kit", Hosts: 2, Seed: 9, CoarseCacheTTL: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gw, err := NewGateway(s.Manifest(), s.Opts, false)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if got := len(gw.Drivers()); got != 7 {
		t.Errorf("drivers = %d", got)
	}
	resp, err := gw.QueryContext(context.Background(), core.QueryOptions{
		Principal: security.Principal{Name: "kit-test"},
		SQL:       "SELECT * FROM Processor",
		Mode:      core.ModeRealTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 snmp + 2×4 site-wide views... snmp agents serve 1 host each:
	// 2 + ganglia 2 + nws 2 + netlogger 2 + scms 2 = 10.
	if resp.ResultSet.Len() != 10 {
		t.Errorf("rows = %d; %+v", resp.ResultSet.Len(), resp.Sources)
	}
}

func TestTicker(t *testing.T) {
	s, err := Start(Options{Name: "kit", Hosts: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	start := s.Sim.Tick()
	s.StartTicker(5 * time.Millisecond)
	s.StartTicker(5 * time.Millisecond) // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && s.Sim.Tick() < start+3 {
		time.Sleep(5 * time.Millisecond)
	}
	s.StopTicker()
	s.StopTicker() // idempotent
	if s.Sim.Tick() < start+3 {
		t.Errorf("ticker advanced only to %d", s.Sim.Tick())
	}
}

func TestHostPortParts(t *testing.T) {
	for addr, want := range map[string]string{
		"127.0.0.1:99": "gridrm:snmp://127.0.0.1:99",
		"[::1]:99":     "gridrm:snmp://[::1]:99",
		"noport":       "gridrm:snmp://noport", // driver default port applies
		"h:bad":        "gridrm:snmp://h",
	} {
		if got := agentURL("snmp", addr); got != want {
			t.Errorf("agentURL(%q) = %q, want %q", addr, got, want)
		}
	}
}

// NewGateway builds the gateway from Options.Gateway as given, named after
// the manifest's site.
func TestNewGatewayTakesGatewayConfig(t *testing.T) {
	s, err := Start(Options{Name: "kit", Hosts: 1, Seed: 5,
		Gateway: core.Config{Name: "overridden", DisableHistory: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gw, err := NewGateway(s.Manifest(), s.Opts, false)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if gw.Name() != "kit" {
		t.Errorf("gateway name = %q, want the manifest's site", gw.Name())
	}
	if _, err := gw.QueryContext(context.Background(), core.QueryOptions{
		Principal: security.Principal{Name: "kit-test"},
		SQL:       "SELECT * FROM Processor",
		Mode:      core.ModeRealTime,
	}); err != nil {
		t.Fatal(err)
	}
	if n := gw.HistoryStatus().Samples; n != 0 {
		t.Errorf("history samples = %d with DisableHistory set", n)
	}
}
