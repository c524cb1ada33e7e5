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
	if hostPart("127.0.0.1:99") != "127.0.0.1" || portPart("127.0.0.1:99") != 99 {
		t.Error("addr split wrong")
	}
	if hostPart("noport") != "noport" || portPart("noport") != 0 {
		t.Error("portless addr")
	}
	if portPart("h:bad") != 0 {
		t.Error("bad port parsed")
	}
}

func TestOptionsCoreConfig(t *testing.T) {
	o := Options{
		Timeouts: TimeoutOptions{Harvest: 4 * time.Second, Query: 5 * time.Second},
		History: HistoryOptions{Dir: "/tmp/h", Fsync: "always",
			CheckpointInterval: time.Minute, MaxDiskBytes: 1024},
		Push: PushOptions{Queue: 7, Stall: 8 * time.Second},
	}
	cfg := o.CoreConfig("s")
	if cfg.Name != "s" || cfg.HarvestTimeout != 4*time.Second || cfg.QueryTimeout != 5*time.Second {
		t.Errorf("timeouts not mapped: %+v", cfg)
	}
	if cfg.Durable.Dir != "/tmp/h" || cfg.Durable.Fsync != "always" ||
		cfg.Durable.CheckpointInterval != time.Minute || cfg.Durable.MaxDiskBytes != 1024 {
		t.Errorf("history not mapped: %+v", cfg.Durable)
	}
	if cfg.Push.QueueSize != 7 || cfg.Push.Stall != 8*time.Second {
		t.Errorf("push not mapped: %+v", cfg.Push)
	}
}
