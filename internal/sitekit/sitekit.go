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
	"sync"
	"time"

	"gridrm/internal/agents/ganglia"
	"gridrm/internal/agents/netlogger"
	"gridrm/internal/agents/nws"
	"gridrm/internal/agents/scms"
	"gridrm/internal/agents/sim"
	"gridrm/internal/agents/snmp"
	"gridrm/internal/breaker"
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
	"gridrm/internal/health"
	"gridrm/internal/router"
	"gridrm/internal/trace"
	"gridrm/internal/tsdb"
)

// TimeoutOptions groups a site's time bounds.
type TimeoutOptions struct {
	// Agent is passed to sources as the driver "timeout" property
	// (default 2s).
	Agent time.Duration
	// Harvest bounds each source harvest in the gateway built by
	// NewGateway (0 = core default, negative = disabled).
	Harvest time.Duration
	// Query bounds whole requests when the caller supplies no deadline
	// (0 = core default, negative = disabled).
	Query time.Duration
}

// HistoryOptions groups the crash-safe durable-history knobs.
type HistoryOptions struct {
	// Dir enables WAL + checkpoint persistence in this directory; empty
	// keeps history purely in-memory.
	Dir string
	// Fsync is the WAL fsync policy: "always", "interval" (default) or
	// "off". Only meaningful with Dir set.
	Fsync string
	// CheckpointInterval is the period of background history checkpoints
	// (0 = tsdb default, negative = only at shutdown).
	CheckpointInterval time.Duration
	// MaxDiskBytes budgets the history directory's size; oldest WAL
	// segments are dropped first when it is exceeded (0 = unlimited).
	MaxDiskBytes int64
}

// PushOptions groups the continuous-query (subscription) knobs.
type PushOptions struct {
	// Queue bounds each subscriber's queue (0 = router default 256).
	Queue int
	// Stall is how long a subscriber's queue may stay continuously full
	// before the subscriber is evicted (0 = router default 10s,
	// negative = never).
	Stall time.Duration
}

// Options configures a simulated site. Related knobs are grouped into the
// Timeouts, History and Push sub-structs.
type Options struct {
	// Name is the site name (default "site").
	Name string
	// Hosts is the host count (default 8).
	Hosts int
	// Seed seeds the simulator (default 1).
	Seed int64
	// LoadAlarm is the sim's load-high threshold (default 4.0).
	LoadAlarm float64
	// Timeouts groups the agent/harvest/query time bounds.
	Timeouts TimeoutOptions
	// History groups the durable-history knobs.
	History HistoryOptions
	// Push groups the continuous-query knobs.
	Push PushOptions
	// CoarseCacheTTL is passed to the Ganglia and NWS sources as
	// "cache_ttl" (default 1s); set negative for "0s" (off).
	CoarseCacheTTL time.Duration
	// Retry configures per-source harvest retries (zero value = no retries).
	Retry core.RetryOptions
	// Breaker configures the per-source circuit breaker (zero value = core
	// defaults; Threshold < 0 disables).
	Breaker breaker.Options
	// MaxConcurrentHarvests bounds concurrent driver harvests in the
	// gateway built by NewGateway (0 = unbounded).
	MaxConcurrentHarvests int
	// StaleGrace is how long past its TTL an expired cache entry remains
	// servable as a degraded result (0 = core default, negative = off).
	StaleGrace time.Duration
	// ProbeInterval enables the background source health prober at this
	// period (0 = no background probing).
	ProbeInterval time.Duration
	// Faults, when set, wraps every bundled driver in a faultdrv
	// fault-injection layer sharing this knob set — the substrate for
	// chaos testing and the gateway's -fault-* CLI flags. Drivers keep
	// their own registration names, so schemas and static preferences
	// are unaffected.
	Faults *faultdrv.Faults
	// Trace configures the gateway's query tracer (sampling rate, trace
	// store capacity, slow-query threshold). The zero value keeps the
	// core defaults.
	Trace trace.Options
}

// CoreConfig maps the gateway-relevant options onto a core.Config for the
// given site name. NewGateway and the cmd binaries use this so every knob
// flows through one translation instead of ad-hoc field copying.
func (o Options) CoreConfig(name string) core.Config {
	return core.Config{
		Name:                  name,
		HarvestTimeout:        o.Timeouts.Harvest,
		QueryTimeout:          o.Timeouts.Query,
		Retry:                 o.Retry,
		Breaker:               o.Breaker,
		MaxConcurrentHarvests: o.MaxConcurrentHarvests,
		StaleGrace:            o.StaleGrace,
		Probe:                 health.Options{Interval: o.ProbeInterval},
		Trace:                 o.Trace,
		Push:                  router.Options{QueueSize: o.Push.Queue, Stall: o.Push.Stall},
		Durable: tsdb.Options{
			Dir:                o.History.Dir,
			Fsync:              o.History.Fsync,
			CheckpointInterval: o.History.CheckpointInterval,
			MaxDiskBytes:       o.History.MaxDiskBytes,
		},
	}
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
			URL:         driver.FormatURL("snmp", hostPart(addr), portPart(addr), ""),
			Props:       driver.Properties{"timeout": timeout},
			Drivers:     pref(snmpdrv.DriverName),
			Description: "SNMP agent on " + host,
		})
	}
	out = append(out, core.SourceConfig{
		URL:         driver.FormatURL("ganglia", hostPart(m.Ganglia), portPart(m.Ganglia), ""),
		Props:       driver.Properties{"timeout": timeout, "cache_ttl": coarseTTL},
		Drivers:     pref(gangliadrv.DriverName),
		Description: "Ganglia gmond for " + m.Site,
	})
	out = append(out, core.SourceConfig{
		URL:         driver.FormatURL("nws", hostPart(m.NWS), portPart(m.NWS), ""),
		Props:       driver.Properties{"timeout": timeout, "cache_ttl": coarseTTL},
		Drivers:     pref(nwsdrv.DriverName),
		Description: "NWS nameserver for " + m.Site,
	})
	out = append(out, core.SourceConfig{
		URL:         driver.FormatURL("netlogger", hostPart(m.NetLogger), portPart(m.NetLogger), ""),
		Props:       driver.Properties{"timeout": timeout},
		Drivers:     pref(netloggerdrv.DriverName),
		Description: "NetLogger collector for " + m.Site,
	})
	out = append(out, core.SourceConfig{
		URL:         driver.FormatURL("scms", hostPart(m.SCMS), portPart(m.SCMS), ""),
		Props:       driver.Properties{"timeout": timeout},
		Drivers:     pref(scmsdrv.DriverName),
		Description: "SCMS daemon for " + m.Site,
	})
	return out
}

func hostPart(addr string) string {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[:i]
		}
	}
	return addr
}

func portPart(addr string) int {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			port := 0
			if _, err := fmt.Sscanf(addr[i+1:], "%d", &port); err != nil {
				return 0
			}
			return port
		}
	}
	return 0
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
	gw := core.New(opts.CoreConfig(m.Site))
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
