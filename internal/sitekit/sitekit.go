// Package sitekit assembles complete simulated Grid sites: one sim.Site
// observed through every bundled native agent (per-host SNMP, site-wide
// Ganglia/NWS/NetLogger/SCMS), plus helpers to register the matching
// drivers with a gateway and to describe the deployment as a manifest the
// command-line tools exchange. Examples, cmd binaries and the benchmark
// harness all build their testbeds from this package.
package sitekit

import (
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"gridrm/internal/agents/ganglia"
	"gridrm/internal/agents/netlogger"
	"gridrm/internal/agents/nws"
	"gridrm/internal/agents/scms"
	"gridrm/internal/agents/sim"
	"gridrm/internal/agents/snmp"
	"gridrm/internal/core"
	"gridrm/internal/driver"
	"gridrm/internal/drivers/faultdrv"
	"gridrm/internal/drivers/gangliadrv"
	"gridrm/internal/drivers/gatewaydrv"
	"gridrm/internal/drivers/histdrv"
	"gridrm/internal/drivers/netloggerdrv"
	"gridrm/internal/drivers/nwsdrv"
	"gridrm/internal/drivers/scmsdrv"
	"gridrm/internal/drivers/snmpdrv"
)

// TimeoutOptions groups a site's time bounds.
type TimeoutOptions struct {
	// Agent is passed to sources as the driver "timeout" property
	// (default 2s).
	Agent time.Duration
}

// Options configures a simulated site and the gateway NewGateway builds
// over it.
type Options struct {
	// Name is the site name (default "site").
	Name string
	// Hosts is the host count (default 8).
	Hosts int
	// Seed seeds the simulator (default 1).
	Seed int64
	// LoadAlarm is the sim's load-high threshold (default 4.0).
	LoadAlarm float64
	// Timeouts groups the agent time bounds.
	Timeouts TimeoutOptions
	// CoarseCacheTTL is passed to the Ganglia and NWS sources as
	// "cache_ttl" (default 1s); set negative for "0s" (off).
	CoarseCacheTTL time.Duration
	// Faults, when set, wraps every bundled driver in a faultdrv
	// fault-injection layer sharing this knob set — the substrate for
	// chaos testing and the gateway's -fault-* CLI flags. Drivers keep
	// their own registration names, so schemas and static preferences
	// are unaffected.
	Faults *faultdrv.Faults
	// Gateway configures the gateway NewGateway builds; its Name is
	// taken from the manifest.
	Gateway core.Config
}

func (o *Options) fill() {
	if o.Name == "" {
		o.Name = "site"
	}
	if o.Hosts <= 0 {
		o.Hosts = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Timeouts.Agent <= 0 {
		o.Timeouts.Agent = 2 * time.Second
	}
	if o.CoarseCacheTTL == 0 {
		o.CoarseCacheTTL = time.Second
	}
}

// Site is a running simulated site with all five agents.
type Site struct {
	Opts Options
	Sim  *sim.Site
	SNMP []*snmp.Agent
	Gmon *ganglia.Agent
	NWS  *nws.Agent
	NL   *netlogger.Agent
	SCMS *scms.Agent

	mu         sync.Mutex
	tickerStop chan struct{}
	tickerDone chan struct{}
}

// Start launches a site and its agents on ephemeral localhost ports.
func Start(opts Options) (*Site, error) {
	opts.fill()
	s := &Site{
		Opts: opts,
		Sim: sim.New(sim.Config{Name: opts.Name, Hosts: opts.Hosts,
			Seed: opts.Seed, LoadAlarm: opts.LoadAlarm}),
	}
	s.Sim.StepN(3) // settle dynamics
	for _, host := range s.Sim.HostNames() {
		a, err := snmp.NewAgent(s.Sim, snmp.AgentConfig{Host: host})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.SNMP = append(s.SNMP, a)
	}
	var err error
	if s.Gmon, err = ganglia.NewAgent(s.Sim, ""); err != nil {
		s.Close()
		return nil, err
	}
	if s.NWS, err = nws.NewAgent(s.Sim, ""); err != nil {
		s.Close()
		return nil, err
	}
	if s.NL, err = netlogger.NewAgent(s.Sim, ""); err != nil {
		s.Close()
		return nil, err
	}
	if s.SCMS, err = scms.NewAgent(s.Sim, ""); err != nil {
		s.Close()
		return nil, err
	}
	s.Sample()
	return s, nil
}

// Close stops the ticker (if running) and all agents.
func (s *Site) Close() {
	s.StopTicker()
	for _, a := range s.SNMP {
		_ = a.Close()
	}
	if s.Gmon != nil {
		_ = s.Gmon.Close()
	}
	if s.NWS != nil {
		_ = s.NWS.Close()
	}
	if s.NL != nil {
		_ = s.NL.Close()
	}
	if s.SCMS != nil {
		_ = s.SCMS.Close()
	}
}

// Sample records one NWS and NetLogger measurement round at the current
// simulator state.
func (s *Site) Sample() {
	s.NWS.Sample()
	s.NL.Sample()
}

// Step advances the simulation n ticks and samples once at the end.
func (s *Site) Step(n int) {
	s.Sim.StepN(n)
	s.Sample()
}

// StartTicker advances the simulation every interval until StopTicker.
func (s *Site) StartTicker(interval time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tickerStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.tickerStop, s.tickerDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Step(1)
			case <-stop:
				return
			}
		}
	}()
}

// StopTicker halts a running ticker.
func (s *Site) StopTicker() {
	s.mu.Lock()
	stop, done := s.tickerStop, s.tickerDone
	s.tickerStop, s.tickerDone = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Manifest describes a running site's agent endpoints; gridrm-agents
// prints it and gridrm-gateway consumes it.
type Manifest struct {
	Site      string   `json:"site"`
	Hosts     []string `json:"hosts"`
	SNMP      []string `json:"snmp"`
	Ganglia   string   `json:"ganglia"`
	NWS       string   `json:"nws"`
	NetLogger string   `json:"netlogger"`
	SCMS      string   `json:"scms"`
}

// Manifest returns the site's endpoint manifest.
func (s *Site) Manifest() Manifest {
	m := Manifest{
		Site:      s.Opts.Name,
		Hosts:     s.Sim.HostNames(),
		Ganglia:   s.Gmon.Addr(),
		NWS:       s.NWS.Addr(),
		NetLogger: s.NL.Addr(),
		SCMS:      s.SCMS.Addr(),
	}
	for _, a := range s.SNMP {
		m.SNMP = append(m.SNMP, a.Addr())
	}
	return m
}

// MarshalManifest renders a manifest as indented JSON.
func MarshalManifest(m Manifest) ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// ParseManifest parses manifest JSON.
func ParseManifest(data []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("sitekit: %w", err)
	}
	return m, nil
}

// SourceConfigs builds gateway source registrations for every agent in a
// manifest. Static driver preferences are installed so the gateway need
// not probe; pass dynamic=true to omit them and exercise dynamic driver
// location instead.
func SourceConfigs(m Manifest, opts Options, dynamic bool) []core.SourceConfig {
	opts.fill()
	timeout := opts.Timeouts.Agent.String()
	coarseTTL := opts.CoarseCacheTTL.String()
	if opts.CoarseCacheTTL < 0 {
		coarseTTL = "0s"
	}
	pref := func(name string) []string {
		if dynamic {
			return nil
		}
		return []string{name}
	}
	var out []core.SourceConfig
	for i, addr := range m.SNMP {
		host := ""
		if i < len(m.Hosts) {
			host = m.Hosts[i]
		}
		out = append(out, core.SourceConfig{
			URL:         agentURL("snmp", addr),
			Props:       driver.Properties{"timeout": timeout},
			Drivers:     pref(snmpdrv.DriverName),
			Description: "SNMP agent on " + host,
		})
	}
	out = append(out, core.SourceConfig{
		URL:         agentURL("ganglia", m.Ganglia),
		Props:       driver.Properties{"timeout": timeout, "cache_ttl": coarseTTL},
		Drivers:     pref(gangliadrv.DriverName),
		Description: "Ganglia gmond for " + m.Site,
	})
	out = append(out, core.SourceConfig{
		URL:         agentURL("nws", m.NWS),
		Props:       driver.Properties{"timeout": timeout, "cache_ttl": coarseTTL},
		Drivers:     pref(nwsdrv.DriverName),
		Description: "NWS nameserver for " + m.Site,
	})
	out = append(out, core.SourceConfig{
		URL:         agentURL("netlogger", m.NetLogger),
		Props:       driver.Properties{"timeout": timeout},
		Drivers:     pref(netloggerdrv.DriverName),
		Description: "NetLogger collector for " + m.Site,
	})
	out = append(out, core.SourceConfig{
		URL:         agentURL("scms", m.SCMS),
		Props:       driver.Properties{"timeout": timeout},
		Drivers:     pref(scmsdrv.DriverName),
		Description: "SCMS daemon for " + m.Site,
	})
	return out
}

// agentURL renders a manifest "host:port" address as a data-source URL;
// an address without a port leaves the driver's default port in force.
func agentURL(protocol, addr string) string {
	host, portText, err := net.SplitHostPort(addr)
	if err != nil {
		return driver.FormatURL(protocol, addr, 0, "")
	}
	if strings.Contains(host, ":") {
		host = "[" + host + "]" // IPv6 literal: driver.URL keeps the brackets
	}
	port, _ := strconv.Atoi(portText)
	return driver.FormatURL(protocol, host, port, "")
}

// RegisterDrivers installs the full bundled driver set (the paper's initial
// set of §3.2.3 plus the historical-store driver) into a gateway.
func RegisterDrivers(gw *core.Gateway) error {
	return registerDrivers(gw, nil)
}

// registerDrivers installs the bundled drivers, each wrapped in a
// fault-injection layer (under its own name, so schemas still match) when
// faults is non-nil.
func registerDrivers(gw *core.Gateway, faults *faultdrv.Faults) error {
	sm := gw.SchemaManager()
	wrap := func(d driver.Driver) driver.Driver {
		if faults == nil {
			return d
		}
		return faultdrv.New(d.Name(), d, faults)
	}
	if err := gw.RegisterDriver(wrap(snmpdrv.New(sm)), snmpdrv.Schema()); err != nil {
		return err
	}
	if err := gw.RegisterDriver(wrap(gangliadrv.New(sm)), gangliadrv.Schema()); err != nil {
		return err
	}
	if err := gw.RegisterDriver(wrap(nwsdrv.New(sm)), nwsdrv.Schema()); err != nil {
		return err
	}
	if err := gw.RegisterDriver(wrap(netloggerdrv.New(sm)), netloggerdrv.Schema()); err != nil {
		return err
	}
	if err := gw.RegisterDriver(wrap(scmsdrv.New(sm)), scmsdrv.Schema()); err != nil {
		return err
	}
	if err := gw.RegisterDriver(histdrv.New(gw.HistoryStore()), histdrv.Schema()); err != nil {
		return err
	}
	if err := gw.RegisterDriver(gatewaydrv.New(sm), gatewaydrv.Schema()); err != nil {
		return err
	}
	return nil
}

// NewGateway creates a gateway named after the site with every bundled
// driver registered and every agent of the manifest added as a source.
func NewGateway(m Manifest, opts Options, dynamic bool) (*core.Gateway, error) {
	cfg := opts.Gateway
	cfg.Name = m.Site
	gw := core.New(cfg)
	if err := registerDrivers(gw, opts.Faults); err != nil {
		gw.Close()
		return nil, err
	}
	for _, cfg := range SourceConfigs(m, opts, dynamic) {
		if err := gw.AddSource(cfg); err != nil {
			gw.Close()
			return nil, err
		}
	}
	return gw, nil
}
