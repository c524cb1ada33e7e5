package sim

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"gridrm/internal/sqlparse"
	"gridrm/internal/tsdb"
)

// Scenario is a parsed simulation scenario: a fleet to build, a client load
// to apply, fault events to fire and assertions to check at the end.
type Scenario struct {
	Name        string
	Description string
	Seed        int64         // default seed; the CLI -seed flag overrides it
	Duration    time.Duration // how long the client load runs
	Fleet       FleetSpec
	Federation  FederationSpec
	Load        LoadSpec
	Events      []EventSpec
	Assertions  map[string]float64
}

// FleetSpec declares the simulated fleet as site templates.
type FleetSpec struct {
	Sites []SiteTemplate
}

// SiteTemplate expands into Count site instances, each a real core.Gateway
// with Sources fleet-driver sources of Hosts hosts each. A template named
// "edge" with count 3 yields instances edge-1, edge-2, edge-3; with count 1
// the instance keeps the template name.
type SiteTemplate struct {
	Name    string
	Count   int // site instances (default 1)
	Sources int // sources per site (default 4)
	Hosts   int // hosts per source (default 2)
	Weight  int // relative share of remote/fanout client traffic (default 1)

	// Gateway tuning; zero values keep the core defaults.
	CacheTTL         time.Duration
	StaleGrace       time.Duration
	HarvestTimeout   time.Duration
	BreakerThreshold int
	BreakerCooldown  time.Duration
	DisableHistory   bool
	// DurableHistory gives every instance of this template a crash-safe
	// history dir (WAL + checkpoints) under the harness's temp root, so
	// restart_gateway events restore pre-crash history.
	DurableHistory bool
	// HistoryFsync is the WAL fsync policy for DurableHistory sites
	// ("always", "interval" or "off"; empty = tsdb default).
	HistoryFsync string
	// SubscribeQueue sizes each continuous-query subscriber's bounded
	// queue (0 = router default 256).
	SubscribeQueue int
	// SubscribeStall is how long a subscriber's queue must stay
	// continuously full before the router evicts it (0 = router default
	// 10s; the churn scenarios shrink it so eviction fires within a run).
	SubscribeStall time.Duration
}

// FederationSpec wires the fleet into a GMA federation: directory replicas,
// per-site registrars and web servers, and a resilient router on the entry
// site. Without it, clients only ever see the entry gateway locally.
type FederationSpec struct {
	Enabled       bool
	Directories   int           // directory replicas (default 1)
	LookupTTL     time.Duration // router lookup cache TTL (default 250ms)
	RetryAttempts int           // remote retry attempts (0 = router default)
	EntrySite     string        // site clients talk to (default: first instance)

	// Republishers shards the sites across this many republisher gateways
	// (repub-1..repub-N) on a consistent-hash ring; the entry router then
	// answers fan-outs as a tree of region aggregates and routes cached
	// site reads republisher-first. 0 keeps the flat federation.
	Republishers int
	// RepubRefresh is the longest a republisher goes without re-reading
	// the directory and re-registering; a membership change is acted on at
	// once (default 200ms — sim runs are seconds long).
	RepubRefresh time.Duration
	// RepubScrape is the republishers' re-scrape cadence while a site's
	// feed is down (default 300ms).
	RepubScrape time.Duration
}

// LoadSpec declares the client load.
type LoadSpec struct {
	Clients         int           // concurrent clients (default 4)
	Transport       string        // "inproc" (default) or "http"
	ThinkTime       time.Duration // per-client pause between queries
	SourcesPerQuery int           // 0 = query all sources; N = N seeded-random sources
	Mix             []MixEntry

	// Subscribers opens this many continuous-query subscriptions on the
	// entry gateway before the load starts; each drains its rows until a
	// stall_subscriber or kill_subscriber event hits it.
	Subscribers int
	// SubscriberSQL is the continuous query the subscribers register
	// (default "SELECT * FROM Processor"; aggregates are rejected).
	SubscriberSQL string
	// DeadSink registers an HTTP push sink on the entry gateway whose
	// endpoint drops every connection — the down-sink half of the
	// backpressure chaos proof. Its breaker must open; the harvest path
	// must not notice.
	DeadSink bool
}

// MixEntry is one weighted query shape in the load mix.
type MixEntry struct {
	Mode   string // cached | real-time | historical
	Scope  string // local | remote | fanout (default local)
	Table  string // GLUE table: the SQL's, else Processor
	SQL    string // full query text overriding "SELECT * FROM <table>"
	Weight int    // relative frequency (default 1)
}

// labelPlans caches parsed mix SQL so Label stays cheap on the hot path.
var labelPlans = sqlparse.NewPlanCache(64)

// Label names the latency bucket this mix entry's samples land in.
// Aggregate SQL gets its own "-agg" bucket so pushdown latencies are
// reported separately from raw-row scans.
func (m MixEntry) Label() string {
	label := m.Mode
	if m.Scope != ScopeLocal {
		label = m.Scope + "-" + m.Mode
	}
	if m.SQL != "" {
		if q, err := labelPlans.Parse(m.SQL); err == nil && q.Aggregate() {
			label += "-agg"
		}
	}
	return label
}

// EventSpec is one timed fault (or heal) event.
type EventSpec struct {
	At          time.Duration
	Action      string
	Site        string        // target site template or instance ("" = seeded-random site)
	Count       int           // targets for kill_source/revive_source (default 1)
	Latency     time.Duration // for latency_spike
	Directory   int           // replica index for directory_down/up (default 0)
	Republisher int           // 1-based index for *_republisher actions (default 1)
}

// maxSites bounds the site instances a fleet's templates expand to. A count
// past it is a typo, not a fleet: expanding it would exhaust memory before
// any check could refuse it.
const maxSites = 4096

// Load scopes.
const (
	ScopeLocal  = "local"
	ScopeRemote = "remote"
	ScopeFanout = "fanout"
)

// Event actions.
const (
	ActionKillSource      = "kill_source"
	ActionReviveSource    = "revive_source"
	ActionPartitionSite   = "partition_site"
	ActionHealSite        = "heal_site"
	ActionDirectoryDown   = "directory_down"
	ActionDirectoryUp     = "directory_up"
	ActionLatencySpike    = "latency_spike"
	ActionLatencyClear    = "latency_clear"
	ActionRestartGateway  = "restart_gateway"
	ActionStallSubscriber = "stall_subscriber"
	ActionKillSubscriber  = "kill_subscriber"
	// ActionKillRepublisher crashes a republisher: its servlet drops
	// connections and its loops halt, but its registration stays in the
	// directory — the entry router must fall through to direct site
	// queries. ActionReviveRepublisher undoes it.
	// ActionDrainRepublisher is the graceful path: deregister first, then
	// halt, so the surviving republishers rebalance the ring.
	ActionKillRepublisher   = "kill_republisher"
	ActionReviveRepublisher = "revive_republisher"
	ActionDrainRepublisher  = "drain_republisher"
)

var validActions = map[string]bool{
	ActionKillSource: true, ActionReviveSource: true,
	ActionPartitionSite: true, ActionHealSite: true,
	ActionDirectoryDown: true, ActionDirectoryUp: true,
	ActionLatencySpike: true, ActionLatencyClear: true,
	ActionRestartGateway:  true,
	ActionStallSubscriber: true, ActionKillSubscriber: true,
	ActionKillRepublisher: true, ActionReviveRepublisher: true,
	ActionDrainRepublisher: true,
}

var validModes = map[string]bool{"cached": true, "real-time": true, "historical": true}

// assertionKeys is the one table of assertion keys: each names the counter
// it reads, summed over every member's /metrics ("" for the four keys the
// clients measure). evalAssertions derives the shares and ratios; the
// rest compare the counter itself. Rates are fractions, *_ms milliseconds.
var assertionKeys = map[string]string{
	"max_error_rate":     "",
	"max_p99_ms":         "",
	"min_throughput_rps": "",
	"min_requests":       "",
	// degraded serves per client request
	"min_degraded_share":     "gridrm_degraded_serves_total",
	"min_stale_serves":       "gridrm_stale_serves_total",
	"min_history_fallbacks":  "gridrm_history_fallbacks_total",
	"min_coalesced":          "gridrm_coalesced_total",
	"min_breaker_opens":      "gridrm_breaker_opens_total",
	"min_plan_cache_hits":    "gridrm_plan_cache_hits_total",
	"min_replayed_records":   "gridrm_history_replayed_records_total",
	"min_wal_appends":        "gridrm_history_wal_appends_total",
	"min_rows_published":     "gridrm_rows_published_total",
	"min_rows_dropped":       "gridrm_rows_dropped_total",
	"max_row_drop_rate":      "gridrm_rows_dropped_total", // per gridrm_rows_enqueued_total
	"min_sub_evictions":      "gridrm_subscriber_evictions_total",
	"min_sink_breaker_opens": "gridrm_sink_breaker_opens_total",
	// Hierarchical federation: republisher region answers, entry-router
	// republisher routing, and the fan-out ceiling (a fan-out query may
	// touch at most this many remote legs — with republishers that is the
	// republisher count, not the site count).
	"min_repub_region_queries": "gridrm_repub_region_queries_total",
	"min_repub_routes":         "gridrm_repub_routes_total",
	"min_repub_fallthroughs":   "gridrm_repub_fallthroughs_total",
	"min_repub_live_rows":      "gridrm_repub_live_rows_total",
	"min_repub_rebalances":     "gridrm_repub_rebalances_total",
	"max_remote_per_fanout":    "gridrm_fanout_legs_total", // per gridrm_fanouts_total
}

// LoadScenario reads, parses and validates a scenario file.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := ParseScenario(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// ParseScenario parses scenario YAML and validates the result.
func ParseScenario(data []byte) (*Scenario, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	d := &decoder{}
	m := d.rootMap(root)
	sc := &Scenario{
		Name:        d.str(m, "name", ""),
		Description: d.str(m, "description", ""),
		Seed:        d.int64(m, "seed", 1),
		Duration:    d.dur(m, "duration", 2*time.Second),
		Assertions:  map[string]float64{},
	}
	if fm := d.childMap(m, "fleet"); fm != nil {
		for _, item := range d.childList(fm, "sites") {
			im := d.itemMap(item, "fleet.sites")
			tpl := SiteTemplate{
				Name:             d.str(im, "name", ""),
				Count:            d.intVal(im, "count", 1),
				Sources:          d.intVal(im, "sources", 4),
				Hosts:            d.intVal(im, "hosts", 2),
				Weight:           d.intVal(im, "weight", 1),
				CacheTTL:         d.dur(im, "cache_ttl", 0),
				StaleGrace:       d.dur(im, "stale_grace", 0),
				HarvestTimeout:   d.dur(im, "harvest_timeout", 0),
				BreakerThreshold: d.intVal(im, "breaker_threshold", 0),
				BreakerCooldown:  d.dur(im, "breaker_cooldown", 0),
				DisableHistory:   d.boolVal(im, "disable_history", false),
				DurableHistory:   d.boolVal(im, "durable_history", false),
				HistoryFsync:     d.str(im, "history_fsync", ""),
				SubscribeQueue:   d.intVal(im, "subscribe_queue", 0),
				SubscribeStall:   d.dur(im, "subscribe_stall", 0),
			}
			d.noExtra(im, "fleet.sites")
			sc.Fleet.Sites = append(sc.Fleet.Sites, tpl)
		}
		d.noExtra(fm, "fleet")
	}
	if fm := d.childMap(m, "federation"); fm != nil {
		sc.Federation = FederationSpec{
			Enabled:       d.boolVal(fm, "enabled", true),
			Directories:   d.intVal(fm, "directories", 1),
			LookupTTL:     d.dur(fm, "lookup_ttl", 250*time.Millisecond),
			RetryAttempts: d.intVal(fm, "retry_attempts", 0),
			EntrySite:     d.str(fm, "entry_site", ""),
			Republishers:  d.intVal(fm, "republishers", 0),
			RepubRefresh:  d.dur(fm, "repub_refresh", 200*time.Millisecond),
			RepubScrape:   d.dur(fm, "repub_scrape", 300*time.Millisecond),
		}
		d.noExtra(fm, "federation")
	}
	sc.Load = LoadSpec{Clients: 4, Transport: "inproc"}
	if lm := d.childMap(m, "load"); lm != nil {
		sc.Load = LoadSpec{
			Clients:         d.intVal(lm, "clients", 4),
			Transport:       d.str(lm, "transport", "inproc"),
			ThinkTime:       d.dur(lm, "think_time", 0),
			SourcesPerQuery: d.intVal(lm, "sources_per_query", 0),
			Subscribers:     d.intVal(lm, "subscribers", 0),
			SubscriberSQL:   d.str(lm, "subscriber_sql", ""),
			DeadSink:        d.boolVal(lm, "dead_sink", false),
		}
		for _, item := range d.childList(lm, "mix") {
			im := d.itemMap(item, "load.mix")
			mix := MixEntry{
				Mode:   d.str(im, "mode", "cached"),
				Scope:  d.str(im, "scope", ScopeLocal),
				Table:  "Processor",
				SQL:    d.str(im, "sql", ""),
				Weight: d.intVal(im, "weight", 1),
			}
			d.noExtra(im, "load.mix")
			sc.Load.Mix = append(sc.Load.Mix, mix)
		}
		d.noExtra(lm, "load")
	}
	for _, item := range d.childList(m, "events") {
		im := d.itemMap(item, "events")
		ev := EventSpec{
			At:          d.dur(im, "at", 0),
			Action:      d.str(im, "action", ""),
			Site:        d.str(im, "site", ""),
			Count:       d.intVal(im, "count", 1),
			Latency:     d.dur(im, "latency", 0),
			Directory:   d.intVal(im, "directory", 0),
			Republisher: d.intVal(im, "republisher", 1),
		}
		d.noExtra(im, "events")
		sc.Events = append(sc.Events, ev)
	}
	if am := d.childMap(m, "assertions"); am != nil {
		for k := range am {
			sc.Assertions[k] = d.float(am, k, 0)
		}
	}
	d.noExtra(m, "")
	if d.err != nil {
		return nil, d.err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// SiteNames expands the templates into the ordered list of site instance
// names, the order sites are created in and the identity events resolve
// targets against.
func (f FleetSpec) SiteNames() []string {
	var names []string
	for _, tpl := range f.Sites {
		names = append(names, tpl.Instances()...)
	}
	return names
}

// Instances returns the instance names one template expands to.
func (t SiteTemplate) Instances() []string {
	if t.Count <= 1 {
		return []string{t.Name}
	}
	names := make([]string, t.Count)
	for i := range names {
		names[i] = fmt.Sprintf("%s-%d", t.Name, i+1)
	}
	return names
}

// Validate checks scenario semantics beyond YAML shape.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario: duration must be positive")
	}
	if len(s.Fleet.Sites) == 0 {
		return fmt.Errorf("scenario: fleet.sites must declare at least one template")
	}
	seen := map[string]bool{}
	totalWeight, instances := 0, 0
	for i, tpl := range s.Fleet.Sites {
		at := fmt.Sprintf("fleet.sites[%d]", i)
		if tpl.Name == "" {
			return fmt.Errorf("scenario: %s: name is required", at)
		}
		if tpl.Count < 1 || tpl.Sources < 1 || tpl.Hosts < 1 {
			return fmt.Errorf("scenario: %s: count, sources and hosts must be >= 1", at)
		}
		if tpl.Count > maxSites-instances {
			return fmt.Errorf("scenario: %s: the fleet may have at most %d sites", at, maxSites)
		}
		instances += tpl.Count
		if tpl.Weight < 0 {
			return fmt.Errorf("scenario: %s: weight must be >= 0", at)
		}
		if seen[tpl.Name] {
			return fmt.Errorf("scenario: duplicate site template %q", tpl.Name)
		}
		if tpl.HistoryFsync != "" && !tsdb.ValidFsync(tpl.HistoryFsync) {
			return fmt.Errorf("scenario: %s: history_fsync must be always, interval or off, got %q", at, tpl.HistoryFsync)
		}
		seen[tpl.Name] = true
		totalWeight += tpl.Weight * tpl.Count
	}
	sites := s.SiteNames()
	if s.Load.Clients < 1 {
		return fmt.Errorf("scenario: load.clients must be >= 1")
	}
	if s.Load.Transport != "inproc" && s.Load.Transport != "http" {
		return fmt.Errorf("scenario: load.transport must be inproc or http, got %q", s.Load.Transport)
	}
	if s.Load.SourcesPerQuery < 0 {
		return fmt.Errorf("scenario: load.sources_per_query must be >= 0")
	}
	if s.Load.Subscribers < 0 {
		return fmt.Errorf("scenario: load.subscribers must be >= 0")
	}
	if s.Load.Subscribers > 0 {
		if s.Load.SubscriberSQL == "" {
			s.Load.SubscriberSQL = "SELECT * FROM Processor"
		}
		q, err := sqlparse.Parse(s.Load.SubscriberSQL)
		if err != nil {
			return fmt.Errorf("scenario: load.subscriber_sql: %v", err)
		}
		if q.Aggregate() || len(q.GroupBy) > 0 {
			return fmt.Errorf("scenario: load.subscriber_sql: continuous queries cannot aggregate")
		}
	} else if s.Load.SubscriberSQL != "" {
		return fmt.Errorf("scenario: load.subscriber_sql needs load.subscribers >= 1")
	}
	if len(s.Load.Mix) == 0 {
		s.Load.Mix = []MixEntry{{Mode: "cached", Scope: ScopeLocal, Table: "Processor", Weight: 1}}
	}
	for i, mix := range s.Load.Mix {
		at := fmt.Sprintf("load.mix[%d]", i)
		if !validModes[mix.Mode] {
			return fmt.Errorf("scenario: %s: unknown mode %q", at, mix.Mode)
		}
		switch mix.Scope {
		case ScopeLocal:
		case ScopeRemote, ScopeFanout:
			if !s.Federation.Enabled {
				return fmt.Errorf("scenario: %s: scope %q needs federation.enabled", at, mix.Scope)
			}
			if mix.Scope == ScopeRemote && len(sites) < 2 {
				return fmt.Errorf("scenario: %s: scope remote needs at least two sites", at)
			}
		default:
			return fmt.Errorf("scenario: %s: unknown scope %q", at, mix.Scope)
		}
		if mix.Weight < 1 {
			return fmt.Errorf("scenario: %s: weight must be >= 1", at)
		}
		if mix.SQL != "" {
			q, err := sqlparse.Parse(mix.SQL)
			if err != nil {
				return fmt.Errorf("scenario: %s: sql: %v", at, err)
			}
			// Keep Table coherent with the query so priming and event
			// targeting see the table the clients will actually hit.
			s.Load.Mix[i].Table = q.Table
		}
	}
	if s.Federation.Enabled {
		if s.Federation.Directories < 1 {
			return fmt.Errorf("scenario: federation.directories must be >= 1")
		}
		if s.Federation.EntrySite != "" && !containsString(sites, s.Federation.EntrySite) {
			return fmt.Errorf("scenario: federation.entry_site %q is not a site instance", s.Federation.EntrySite)
		}
		if totalWeight == 0 {
			return fmt.Errorf("scenario: all site weights are zero")
		}
		if s.Federation.Republishers < 0 {
			return fmt.Errorf("scenario: federation.republishers must be >= 0")
		}
	} else if s.Federation.Republishers > 0 {
		return fmt.Errorf("scenario: federation.republishers needs federation.enabled")
	}
	templates := map[string]bool{}
	for _, tpl := range s.Fleet.Sites {
		templates[tpl.Name] = true
	}
	for i, ev := range s.Events {
		at := fmt.Sprintf("events[%d]", i)
		if !validActions[ev.Action] {
			return fmt.Errorf("scenario: %s: unknown action %q", at, ev.Action)
		}
		if ev.At < 0 || ev.At > s.Duration {
			return fmt.Errorf("scenario: %s: at %s is outside the run duration %s", at, ev.At, s.Duration)
		}
		if ev.Site != "" && !templates[ev.Site] && !containsString(sites, ev.Site) {
			return fmt.Errorf("scenario: %s: site %q matches no template or instance", at, ev.Site)
		}
		switch ev.Action {
		case ActionKillSource, ActionReviveSource:
			if ev.Count < 1 {
				return fmt.Errorf("scenario: %s: count must be >= 1", at)
			}
		case ActionLatencySpike:
			if ev.Latency <= 0 {
				return fmt.Errorf("scenario: %s: latency_spike needs latency > 0", at)
			}
		case ActionPartitionSite, ActionHealSite:
			if !s.Federation.Enabled {
				return fmt.Errorf("scenario: %s: %s needs federation.enabled (sites have no network edge without it)", at, ev.Action)
			}
		case ActionStallSubscriber, ActionKillSubscriber:
			if s.Load.Subscribers < 1 {
				return fmt.Errorf("scenario: %s: %s needs load.subscribers >= 1", at, ev.Action)
			}
			if ev.Count < 1 {
				return fmt.Errorf("scenario: %s: count must be >= 1", at)
			}
			if ev.Site != "" {
				return fmt.Errorf("scenario: %s: %s targets entry-gateway subscribers, not sites", at, ev.Action)
			}
		case ActionDirectoryDown, ActionDirectoryUp:
			if !s.Federation.Enabled {
				return fmt.Errorf("scenario: %s: %s needs federation.enabled", at, ev.Action)
			}
			if ev.Directory < 0 || ev.Directory >= s.Federation.Directories {
				return fmt.Errorf("scenario: %s: directory %d out of range [0,%d)", at, ev.Directory, s.Federation.Directories)
			}
		case ActionKillRepublisher, ActionReviveRepublisher, ActionDrainRepublisher:
			if !s.Federation.Enabled || s.Federation.Republishers < 1 {
				return fmt.Errorf("scenario: %s: %s needs federation.republishers >= 1", at, ev.Action)
			}
			if ev.Republisher < 1 || ev.Republisher > s.Federation.Republishers {
				return fmt.Errorf("scenario: %s: republisher %d out of range [1,%d]", at, ev.Republisher, s.Federation.Republishers)
			}
		}
	}
	keys := make([]string, 0, len(s.Assertions))
	for k := range s.Assertions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, ok := assertionKeys[k]; !ok {
			return fmt.Errorf("scenario: unknown assertion %q", k)
		}
		if s.Assertions[k] < 0 {
			return fmt.Errorf("scenario: assertion %s must be >= 0", k)
		}
	}
	return nil
}

// SiteNames is the resolved instance list; see FleetSpec.SiteNames.
func (s *Scenario) SiteNames() []string { return s.Fleet.SiteNames() }

// EntrySite resolves the site clients talk to.
func (s *Scenario) EntrySite() string {
	if s.Federation.EntrySite != "" {
		return s.Federation.EntrySite
	}
	return s.SiteNames()[0]
}

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// decoder converts the parser's string-leaf tree into typed fields,
// recording the first error and rejecting unknown keys so typos in
// scenarios fail validation instead of being silently ignored.
type decoder struct {
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("scenario: "+format, args...)
	}
}

func (d *decoder) rootMap(v any) map[string]any {
	m, ok := v.(map[string]any)
	if !ok {
		d.fail("top level must be a map")
		return map[string]any{}
	}
	return m
}

// childMap pops key as a nested map (nil when absent).
func (d *decoder) childMap(m map[string]any, key string) map[string]any {
	v, ok := m[key]
	if !ok {
		return nil
	}
	delete(m, key)
	child, ok := v.(map[string]any)
	if !ok {
		d.fail("%s must be a map", key)
		return map[string]any{}
	}
	return child
}

// childList pops key as a nested list (nil when absent).
func (d *decoder) childList(m map[string]any, key string) []any {
	v, ok := m[key]
	if !ok {
		return nil
	}
	delete(m, key)
	list, ok := v.([]any)
	if !ok {
		d.fail("%s must be a list", key)
		return nil
	}
	return list
}

func (d *decoder) itemMap(v any, at string) map[string]any {
	m, ok := v.(map[string]any)
	if !ok {
		d.fail("%s items must be maps", at)
		return map[string]any{}
	}
	return m
}

func (d *decoder) scalar(m map[string]any, key string) (string, bool) {
	v, ok := m[key]
	if !ok {
		return "", false
	}
	delete(m, key)
	s, ok := v.(string)
	if !ok {
		d.fail("%s must be a scalar", key)
		return "", false
	}
	return s, true
}

func (d *decoder) str(m map[string]any, key, def string) string {
	if s, ok := d.scalar(m, key); ok {
		return s
	}
	return def
}

func (d *decoder) intVal(m map[string]any, key string, def int) int {
	s, ok := d.scalar(m, key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		d.fail("%s: %q is not an integer", key, s)
		return def
	}
	return n
}

func (d *decoder) int64(m map[string]any, key string, def int64) int64 {
	s, ok := d.scalar(m, key)
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		d.fail("%s: %q is not an integer", key, s)
		return def
	}
	return n
}

func (d *decoder) float(m map[string]any, key string, def float64) float64 {
	s, ok := d.scalar(m, key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		d.fail("%s: %q is not a number", key, s)
		return def
	}
	return f
}

func (d *decoder) boolVal(m map[string]any, key string, def bool) bool {
	s, ok := d.scalar(m, key)
	if !ok {
		return def
	}
	switch strings.ToLower(s) {
	case "true", "yes", "on":
		return true
	case "false", "no", "off":
		return false
	}
	d.fail("%s: %q is not a boolean", key, s)
	return def
}

// dur parses "250ms"/"5s" style durations; a bare number is seconds.
func (d *decoder) dur(m map[string]any, key string, def time.Duration) time.Duration {
	s, ok := d.scalar(m, key)
	if !ok {
		return def
	}
	if n, err := strconv.Atoi(s); err == nil {
		return time.Duration(n) * time.Second
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		d.fail("%s: %q is not a duration", key, s)
		return def
	}
	return v
}

// noExtra rejects keys the schema does not know.
func (d *decoder) noExtra(m map[string]any, at string) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if at != "" {
		at += "."
	}
	d.fail("unknown key %s%s", at, keys[0])
}
