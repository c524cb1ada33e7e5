// Package core implements the GridRM Gateway's local layer (paper §3): the
// RequestManager that coordinates SQL queries across data sources and
// consolidates results, wired to the ConnectionManager (internal/pool), the
// GridRMDriverManager (internal/driver), the SchemaManager
// (internal/schema), the query cache (internal/qcache), the historical
// store (internal/history), the Event Manager (internal/event) and the two
// security layers (internal/security).
//
// A Gateway provides an access point to the resource data within its local
// control; requests for remote resource data are routed to the Global layer
// through a GlobalRouter (implemented by internal/gma), reproducing Fig 1.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridrm/internal/breaker"
	"gridrm/internal/driver"
	"gridrm/internal/event"
	"gridrm/internal/history"
	"gridrm/internal/metrics"
	"gridrm/internal/pool"
	"gridrm/internal/qcache"
	"gridrm/internal/retry"
	"gridrm/internal/router"
	"gridrm/internal/schema"
	"gridrm/internal/security"
	"gridrm/internal/sqlparse"
	"gridrm/internal/trace"
	"gridrm/internal/tsdb"
)

// Config configures a Gateway.
type Config struct {
	// Name is the gateway's site name ("Site A" in Fig 1).
	Name string
	// Pool configures the ConnectionManager.
	Pool pool.Options
	// Cache configures the query cache.
	Cache qcache.Options
	// Durable configures crash-safe persistence for the historical store.
	// With Durable.Dir empty (the default) history stays purely in-memory,
	// byte-identical to the pre-durability behaviour. With a directory set,
	// every recorded harvest is journaled to a WAL, checkpointed
	// periodically, and restored on the next start — so the degradation
	// ladder's history tier survives gateway restarts.
	Durable tsdb.Options
	// DisableHistory stops recording real-time harvests in the historical
	// store (by default every harvest is recorded).
	DisableHistory bool
	// Coarse is the CGSL policy (open by default).
	Coarse *security.CoarsePolicy
	// Fine is the FGSL policy (open by default).
	Fine *security.FinePolicy
	// HarvestTimeout bounds each per-source harvest attempt — connect,
	// statement and query together (default 10s; negative disables). A
	// query's first attempts share one budget, HarvestTimeout from the start
	// of its harvests; each retry gets its own.
	HarvestTimeout time.Duration
	// QueryTimeout is the deadline applied to a whole request when the
	// caller's context carries none (default 30s; negative disables).
	// When it expires, live queries return partial results with the
	// stragglers marked "timed out" in SourceStatus.
	QueryTimeout time.Duration
	// Retry configures per-source harvest retries with backoff.
	Retry RetryOptions
	// Breaker configures the per-source circuit breaker that sits in front
	// of harvests (internal/breaker, shared with the gma Router's
	// per-endpoint breakers): an open source is skipped cheaply with
	// status "circuit open" until a half-open probe succeeds. Its
	// consecutive-failure count is the source's state (SourceInfo.Health).
	Breaker breaker.Options
	// StaleGrace is how long past its TTL an expired query-cache entry
	// remains servable as a degraded result when a harvest fails, times
	// out or is breaker-skipped (default 2m; negative disables the
	// stale-cache degradation tier). It also sets Cache.StaleGrace unless
	// that is set explicitly.
	StaleGrace time.Duration
	// ProbeInterval is the period of the background source sweep
	// (ProbeAll). Zero or negative (the default) runs no sweep; tests and
	// operators can still call ProbeAll.
	ProbeInterval time.Duration
	// Trace configures the distributed tracer and slow-query log (trace
	// store capacity, sample rate, slow threshold). Trace.Clock defaults
	// to the gateway clock.
	Trace trace.Options
	// Push configures the metric router behind continuous queries
	// (Subscribe): per-subscriber queue bound, replay ring size for
	// Last-Event-ID resume, and the slow-consumer eviction stall.
	Push router.Options
	// Clock is injectable for tests; defaults to time.Now.
	Clock func() time.Time
}

// RetryOptions configures per-source harvest retries. Retries only happen
// while the request deadline allows; each retry gets a fresh
// HarvestTimeout budget.
type RetryOptions struct {
	// Attempts is how many additional harvest attempts a failed source
	// gets (default 0: fail fast, matching the seed behaviour).
	Attempts int
	// Backoff is the wait before the first retry (default
	// retry.DefaultBase); it follows the internal/retry schedule capped at
	// MaxRetryBackoff.
	Backoff time.Duration
}

// MaxRetryBackoff caps the backoff between harvest retries and between the
// gma Router's remote-query retries.
const MaxRetryBackoff = 2 * time.Second

func (o RetryOptions) fill() RetryOptions {
	if o.Attempts < 0 {
		o.Attempts = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = retry.DefaultBase
	}
	return o
}

const (
	defaultHarvestTimeout = 10 * time.Second
	defaultQueryTimeout   = 30 * time.Second
	defaultStaleGrace     = 2 * time.Minute
	// planCacheSize bounds the LRU cache of parsed query plans.
	planCacheSize = 512
	// historyPruneInterval is the period of the background history
	// retention sweep.
	historyPruneInterval = time.Minute
	// probeTimeout bounds each source ping of a ProbeAll sweep.
	probeTimeout = 2 * time.Second
)

// ErrGatewayClosed is returned for queries issued after Shutdown or Close.
var ErrGatewayClosed = errors.New("core: gateway is shut down")

// SourceConfig registers one data source with the gateway.
type SourceConfig struct {
	// URL is the GridRM data-source URL.
	URL string
	// Props are passed to the driver on connect (community strings,
	// timeouts, cache TTLs ...).
	Props driver.Properties
	// Drivers optionally lists driver names to use in prioritised order
	// (paper Fig 8); empty means dynamic selection.
	Drivers []string
	// Description is free text for the management view.
	Description string
}

// SourceInfo describes a registered data source and its health, backing
// the management tree view (paper Fig 9: poll-failure and alert icons).
type SourceInfo struct {
	SourceConfig
	// LastDriver is the driver that last served the source.
	LastDriver string
	// LastSuccess is when a harvest last succeeded.
	LastSuccess time.Time
	// LastError is the most recent harvest failure ("" when healthy).
	LastError string
	// LastErrorAt is when LastError happened.
	LastErrorAt time.Time
	// Breaker is the source's circuit-breaker state: "closed", "open" or
	// "half-open" (populated on read for the management view).
	Breaker string
	// Health is the source's state, read from Failures: "healthy" at 0,
	// "degraded" below the breaker's Threshold, "down" at or above it
	// (never with the breaker disabled).
	Health string
	// Failures is the breaker's count of consecutive harvest and probe
	// failures.
	Failures int
}

// sourceStates names the values of SourceInfo.Health, in the order
// stateOf numbers them.
var sourceStates = [...]string{"healthy", "degraded", "down"}

// DriverInfo describes a registered driver for the management view.
type DriverInfo struct {
	// Name is the driver's registration name.
	Name string
	// Version is the driver's self-reported version, if any.
	Version string
	// Groups lists the GLUE groups the driver's schema maps.
	Groups []string
}

// Stats counts gateway activity.
type Stats struct {
	// Queries counts Query calls accepted.
	Queries int64
	// QueryErrors counts Query calls that failed outright.
	QueryErrors int64
	// Harvests counts per-source real-time harvests performed.
	Harvests int64
	// HarvestErrors counts harvests that failed.
	HarvestErrors int64
	// CacheServed counts per-source results served from the query cache.
	CacheServed int64
	// Coalesced counts cache-missing queries that shared another query's
	// in-flight harvest instead of dialing the driver themselves.
	Coalesced int64
	// Routed counts queries forwarded to remote gateways.
	Routed int64
	// Denied counts security denials (coarse or fine).
	Denied int64
	// Timeouts counts harvests and fan-out legs abandoned at a deadline.
	Timeouts int64
	// Retries counts harvest retry attempts performed.
	Retries int64
	// BreakerSkipped counts harvests skipped because a breaker was open.
	BreakerSkipped int64
	// BreakerOpens counts closed-to-open breaker transitions.
	BreakerOpens int64
	// StaleServes counts degraded results served from an
	// expired-but-within-grace query-cache entry.
	StaleServes int64
	// HistoryFallbacks counts degraded results served from the latest
	// historical-store sample.
	HistoryFallbacks int64
	// DriverPanics counts driver panics contained at a call boundary and
	// converted into errors.
	DriverPanics int64
	// PlanCacheHits counts query parses served from the plan cache.
	PlanCacheHits int64
	// PlanCacheMisses counts query parses that had to run the parser.
	PlanCacheMisses int64
	// RowsPublished counts harvested rows fanned into the push router.
	RowsPublished int64
	// RowsDropped counts rows dropped from subscriber queues (bounded-
	// queue overflow or eviction) — the push pipeline's accounted loss.
	RowsDropped int64
	// SubscriberEvictions counts subscribers evicted for stalling past
	// the router's stall threshold.
	SubscriberEvictions int64
	// SinkDelivered counts rows delivered to registered sinks.
	SinkDelivered int64
	// SinkDropped counts rows dropped at sink queues, open breakers, or
	// exhausted retries.
	SinkDropped int64
	// SinkBreakerOpens counts per-sink breaker closed-to-open
	// transitions.
	SinkBreakerOpens int64
	// EventsDropped counts events the Event Manager's listeners and
	// outbound drivers lost: queue overflow, eviction or failed transmits.
	EventsDropped int64
	// Fanouts counts all-sites fan-out queries executed.
	Fanouts int64
	// FanoutLegs counts the remote legs those fan-outs dispatched (region
	// legs count once, however many sites they cover) — FanoutLegs/Fanouts
	// is the entry gateway's fan-out degree, which republishers keep at
	// the republisher count rather than the site count.
	FanoutLegs int64
	// Probes counts source pings ProbeAll sweeps made.
	Probes int64
	// ProbeFailures counts the pings that failed.
	ProbeFailures int64
	// ProbeSkipped counts sources a sweep passed over because their
	// breaker refused a call.
	ProbeSkipped int64
	// SourceTransitions counts source state changes (source-state events).
	SourceTransitions int64
}

// GlobalRouter forwards queries for remote sites; internal/gma provides the
// GMA-based implementation.
type GlobalRouter interface {
	// RemoteQueryContext executes req at the gateway owning site and
	// returns its response, bounded by ctx so an all-sites fan-out can
	// abandon a hung site at the request deadline.
	RemoteQueryContext(ctx context.Context, site string, req QueryOptions) (*Response, error)
	// FanoutPlan lists the legs of an all-sites query beyond the local one:
	// a direct leg for each remote site the router can reach, or one region
	// leg for all the sites a republisher answers for. The legs and their
	// Covers may be shared with other callers: they are read, never written.
	FanoutPlan(ctx context.Context) ([]FanoutLeg, error)
}

// Gateway is a GridRM gateway's local layer.
type Gateway struct {
	name    string
	clock   func() time.Time
	drivers *driver.Manager
	schemas *schema.Manager
	pool    *pool.Manager
	cache   *qcache.Cache
	history *history.Store
	durable *tsdb.Store // nil when Durable.Dir is unset
	events  *event.Manager
	coarse  *security.CoarsePolicy
	fine    *security.FinePolicy

	recordHistory  bool
	harvestTimeout time.Duration
	queryTimeout   time.Duration
	retry          RetryOptions
	breakerOpts    breaker.Options

	flights *flightGroup

	registry  *metrics.Registry
	stageHist *metrics.HistogramVec
	tracer    *trace.Tracer
	plans     *sqlparse.PlanCache
	push      *router.Router // continuous-query fan-out (distinct from the federation router)

	probeInterval time.Duration
	stopLoop      context.CancelFunc
	loopDone      chan struct{}

	mu      sync.RWMutex
	sources map[string]*source
	// sorted is every key of sources in order, shared by every reader and
	// never written in place; nil once a registration has changed, until the
	// next read rebuilds it (sortedSources).
	sorted   []string
	router   GlobalRouter
	closed   bool
	inflight sync.WaitGroup // queries in flight; Add only under mu while !closed

	queries, queryErrors, harvests     atomic.Int64
	harvestErrors, cacheServed, routed atomic.Int64
	denied                             atomic.Int64
	timeouts, retries                  atomic.Int64
	breakerSkipped, breakerOpens       atomic.Int64
	coalesced, inflightHarvests        atomic.Int64
	staleServes, historyFallbacks      atomic.Int64
	driverPanics, historyPrunes        atomic.Int64
	fanouts, fanoutLegs                atomic.Int64
	probes, probeFailures              atomic.Int64
	probeSkipped, transitions          atomic.Int64
}

// New creates a Gateway.
func New(cfg Config) *Gateway {
	if cfg.Name == "" {
		cfg.Name = "gateway"
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Coarse == nil {
		cfg.Coarse = security.OpenCoarsePolicy()
	}
	if cfg.Fine == nil {
		cfg.Fine = security.OpenFinePolicy()
	}
	if cfg.Cache.Clock == nil {
		cfg.Cache.Clock = cfg.Clock
	}
	if cfg.Pool.Clock == nil {
		cfg.Pool.Clock = cfg.Clock
	}
	if cfg.HarvestTimeout == 0 {
		cfg.HarvestTimeout = defaultHarvestTimeout
	}
	if cfg.QueryTimeout == 0 {
		cfg.QueryTimeout = defaultQueryTimeout
	}
	if cfg.StaleGrace == 0 {
		cfg.StaleGrace = defaultStaleGrace
	}
	if cfg.StaleGrace < 0 {
		cfg.StaleGrace = 0
	}
	if cfg.Cache.StaleGrace == 0 {
		cfg.Cache.StaleGrace = cfg.StaleGrace
	}
	if cfg.Trace.Clock == nil {
		cfg.Trace.Clock = cfg.Clock
	}
	if cfg.Push.Clock == nil {
		cfg.Push.Clock = cfg.Clock
	}
	reg := metrics.NewRegistry()
	if cfg.Pool.DialObserver == nil {
		dialHist := reg.Histogram("gridrm_pool_dial_seconds",
			"Latency of driver connection dials performed by the pool.", nil)
		cfg.Pool.DialObserver = dialHist.Observe
	}
	dm := driver.NewManager()
	g := &Gateway{
		name:           cfg.Name,
		clock:          cfg.Clock,
		drivers:        dm,
		schemas:        schema.NewManager(),
		pool:           pool.New(dm, cfg.Pool),
		cache:          qcache.New(cfg.Cache),
		history:        history.New(history.Options{Clock: cfg.Clock}),
		events:         event.NewManager(),
		coarse:         cfg.Coarse,
		fine:           cfg.Fine,
		recordHistory:  !cfg.DisableHistory,
		harvestTimeout: cfg.HarvestTimeout,
		queryTimeout:   cfg.QueryTimeout,
		retry:          cfg.Retry.fill(),
		breakerOpts:    cfg.Breaker.Fill(),
		flights:        newFlightGroup(),
		tracer:         trace.New(cfg.Trace),
		plans:          sqlparse.NewPlanCache(planCacheSize),
		push:           router.New(cfg.Push),
		registry:       reg,
		sources:        make(map[string]*source),
		probeInterval:  cfg.ProbeInterval,
		loopDone:       make(chan struct{}),
	}
	if cfg.Durable.Dir != "" {
		if cfg.Durable.Clock == nil {
			cfg.Durable.Clock = cfg.Clock
		}
		if cfg.Durable.Alert == nil {
			cfg.Durable.Alert = g.durabilityEvent(event.SeverityAlert)
		}
		if cfg.Durable.Status == nil {
			cfg.Durable.Status = g.durabilityEvent(event.SeverityStatus)
		}
		// Open restores checkpoint + WAL tail into g.history before New
		// returns, so the first degraded query already has pre-restart
		// samples to fall back on.
		g.durable = tsdb.Open(cfg.Durable, g.history)
	}
	g.registerMetrics()
	ctx, stop := context.WithCancel(context.Background())
	g.stopLoop = stop
	go g.loop(ctx)
	return g
}

// durabilityEvent adapts the tsdb alert/status callbacks to the Event
// Manager.
func (g *Gateway) durabilityEvent(severity string) func(kind, detail string) {
	return func(kind, detail string) {
		g.events.Publish(event.Event{
			Source:   "gateway:" + g.name,
			Name:     kind,
			Severity: severity,
			Time:     g.clock(),
			Detail:   detail,
		})
	}
}

// loop is the gateway's one background goroutine. It sweeps history
// retention every historyPruneInterval, so idle keys are released even when
// no writes arrive, and with ProbeInterval set it runs ProbeAll every
// ProbeInterval. Shutdown cancels ctx, which also abandons a sweep in
// flight.
func (g *Gateway) loop(ctx context.Context) {
	defer close(g.loopDone)
	prune := time.NewTicker(historyPruneInterval)
	defer prune.Stop()
	var sweep <-chan time.Time
	if g.probeInterval > 0 {
		t := time.NewTicker(g.probeInterval)
		defer t.Stop()
		sweep = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-prune.C:
			g.historyPrunes.Add(int64(g.history.Prune()))
		case <-sweep:
			g.ProbeAll(ctx)
		}
	}
}

// Query-stage labels of the gridrm_query_stage_seconds histogram.
const (
	StageParse       = "parse"
	StageCache       = "cache"
	StageHarvest     = "harvest"
	StageConsolidate = "consolidate"
	StageFanout      = "fanout"
	StageDispatch    = "dispatch"
)

// registerMetrics creates the per-stage query latency histogram and wires
// each state owner into the metrics registry as one collect, which reads
// the owner once per scrape.
func (g *Gateway) registerMetrics() {
	r := g.registry
	g.stageHist = r.HistogramVec("gridrm_query_stage_seconds",
		"Latency of query pipeline stages (parse, cache, harvest, consolidate, fanout, dispatch).",
		"stage", nil)
	metrics.RegisterRuntime(r)
	r.Collect(func(c *metrics.Collection) {
		stale, fallbacks := g.staleServes.Load(), g.historyFallbacks.Load()
		c.Counter("gridrm_queries_total", "Query calls accepted.", float64(g.queries.Load()))
		c.Counter("gridrm_query_errors_total", "Query calls that failed outright.", float64(g.queryErrors.Load()))
		c.Counter("gridrm_harvests_total", "Per-source real-time harvests performed.", float64(g.harvests.Load()))
		c.Counter("gridrm_harvest_errors_total", "Harvests that failed.", float64(g.harvestErrors.Load()))
		c.Counter("gridrm_cache_served_total", "Per-source results served from the query cache.", float64(g.cacheServed.Load()))
		c.Counter("gridrm_coalesced_total", "Cache-missing queries that shared another query's in-flight harvest.", float64(g.coalesced.Load()))
		c.Counter("gridrm_routed_total", "Queries forwarded to remote gateways.", float64(g.routed.Load()))
		c.Counter("gridrm_denied_total", "Security denials (coarse or fine).", float64(g.denied.Load()))
		c.Counter("gridrm_timeouts_total", "Harvests and fan-out legs abandoned at a deadline.", float64(g.timeouts.Load()))
		c.Counter("gridrm_retries_total", "Harvest retry attempts performed.", float64(g.retries.Load()))
		c.Counter("gridrm_breaker_opens_total", "Closed-to-open circuit breaker transitions.", float64(g.breakerOpens.Load()))
		c.Counter("gridrm_breaker_skipped_total", "Harvests skipped because a breaker was open.", float64(g.breakerSkipped.Load()))
		c.Counter("gridrm_stale_serves_total", "Degraded results served from an expired-within-grace cache entry.", float64(stale))
		c.Counter("gridrm_history_fallbacks_total", "Degraded results served from the latest historical sample.", float64(fallbacks))
		c.Counter("gridrm_degraded_serves_total", "Degraded results served (stale cache + history fallback).", float64(stale+fallbacks))
		c.Counter("gridrm_driver_panics_total", "Driver panics contained at a call boundary.", float64(g.driverPanics.Load()))
		c.Counter("gridrm_probes_total", "Source pings the background sweep made.", float64(g.probes.Load()))
		c.Counter("gridrm_probe_failures_total", "Sweep pings that failed.", float64(g.probeFailures.Load()))
		c.Counter("gridrm_probe_skipped_total", "Sources a sweep passed over because their breaker refused a call.", float64(g.probeSkipped.Load()))
		c.Counter("gridrm_source_transitions_total", "Source state changes (source-state events).", float64(g.transitions.Load()))
	})
	r.Collect(func(c *metrics.Collection) {
		var n [len(sourceStates)]int
		g.mu.RLock()
		for _, s := range g.sources {
			n[g.stateOf(s.breaker.Failures())]++
		}
		g.mu.RUnlock()
		c.Gauge("gridrm_sources_healthy", "Sources whose breaker counts no failure.", float64(n[0]))
		c.Gauge("gridrm_sources_degraded", "Sources whose breaker counts failures below its threshold.", float64(n[1]))
		c.Gauge("gridrm_sources_down", "Sources whose breaker counts failures at or above its threshold.", float64(n[2]))
	})
	r.Collect(func(c *metrics.Collection) {
		c.Gauge("gridrm_inflight_harvests", "Driver harvests currently executing.", float64(g.inflightHarvests.Load()))
	})
	r.Collect(func(c *metrics.Collection) {
		st := g.cache.Stats()
		c.Counter("gridrm_qcache_hits_total", "Query cache hits.", float64(st.Hits))
		c.Counter("gridrm_qcache_misses_total", "Query cache misses.", float64(st.Misses))
		c.Counter("gridrm_qcache_stale_total", "Query cache entries dropped as expired.", float64(st.Stale))
		c.Counter("gridrm_qcache_evictions_total", "Query cache capacity evictions.", float64(st.Evictions))
		c.Counter("gridrm_qcache_grace_hits_total", "Degraded-serve lookups an entry satisfied, fresh or expired within grace.", float64(st.GraceHits))
		c.Gauge("gridrm_qcache_entries", "Query cache entries held (fresh or not yet collected).", float64(st.Entries))
	})
	r.Collect(func(c *metrics.Collection) {
		st := g.pool.Stats()
		c.Counter("gridrm_pool_dials_total", "Connections opened via the DriverManager.", float64(st.Opens))
		c.Counter("gridrm_pool_idle_hits_total", "Pool Gets satisfied from an idle connection.", float64(st.Hits))
		c.Counter("gridrm_pool_ping_failures_total", "Pooled connections discarded as stale: pinged after a statement on them failed, or by the source sweep, and found dead.", float64(st.PingFailures))
		c.Counter("gridrm_pool_misses_total", "Pool Gets that had to open a new connection.", float64(st.Misses))
		c.Counter("gridrm_pool_closes_total", "Pooled connections closed.", float64(st.Closes))
		c.Counter("gridrm_pool_evictions_total", "Idle pooled connections dropped by capacity or age.", float64(st.Evictions))
		c.Gauge("gridrm_pool_idle_connections", "Idle pooled connections.", float64(st.Idle))
	})
	r.Collect(func(c *metrics.Collection) {
		st := g.events.Stats()
		c.Counter("gridrm_events_published_total", "Events recorded by the Event Manager.", float64(st.Published))
		c.Counter("gridrm_event_alerts_total", "Threshold alerts synthesised.", float64(st.Alerts))
		c.Counter("gridrm_events_dropped_total", "Events lost by event listeners and outbound drivers (overflow, eviction, failed transmits).", float64(st.Dropped))
		c.Counter("gridrm_events_delivered_total", "Event listener invocations.", float64(st.Delivered))
		c.Counter("gridrm_events_transmitted_total", "Events outbound drivers transmitted.", float64(st.Transmitted))
		c.Counter("gridrm_events_transmit_errors_total", "Outbound event batches that exhausted their retries.", float64(st.TransmitErrors))
	})
	r.Collect(func(c *metrics.Collection) {
		st := g.push.Stats()
		c.Counter("gridrm_rows_published_total", "Harvested rows fanned into the push router.", float64(st.Published))
		c.Counter("gridrm_rows_enqueued_total", "Per-subscriber row enqueues by the push router.", float64(st.Enqueued))
		c.Counter("gridrm_rows_dropped_total", "Rows dropped from subscriber queues (overflow or eviction).", float64(st.Dropped))
		c.Counter("gridrm_subscriber_evictions_total", "Subscribers evicted for stalling.", float64(st.Evicted))
		c.Gauge("gridrm_subscribers", "Continuous-query subscribers currently registered.", float64(st.Subscribers))
		c.Counter("gridrm_sink_delivered_total", "Rows delivered to registered sinks.", float64(st.SinkDelivered))
		c.Counter("gridrm_sink_dropped_total", "Rows dropped at sink queues, open breakers or exhausted retries.", float64(st.SinkDropped))
		c.Counter("gridrm_sink_retries_total", "Sink delivery retries performed.", float64(st.SinkRetries))
		c.Counter("gridrm_sink_errors_total", "Sink batches that exhausted their retries.", float64(st.SinkErrors))
		c.Counter("gridrm_sink_breaker_opens_total", "Per-sink breaker closed-to-open transitions.", float64(st.SinkBreakerOpens))
	})
	r.Collect(func(c *metrics.Collection) {
		c.Counter("gridrm_fanouts_total", "All-sites fan-out queries executed.", float64(g.fanouts.Load()))
		c.Counter("gridrm_fanout_legs_total", "Remote legs the fan-outs dispatched (a republisher region leg counts once).", float64(g.fanoutLegs.Load()))
	})
	r.Collect(func(c *metrics.Collection) {
		st := g.tracer.Stats()
		c.Counter("gridrm_traces_started_total", "Sampled query traces begun.", float64(st.Started))
		c.Counter("gridrm_traces_stored_total", "Query traces published to the trace store.", float64(st.Stored))
		c.Counter("gridrm_traces_evicted_total", "Query traces evicted from the trace store.", float64(st.Evicted))
		c.Counter("gridrm_slow_queries_total", "Queries recorded in the slow-query log.", float64(st.SlowQueries))
		c.Counter("gridrm_trace_spans_dropped_total", "Spans discarded by the per-trace cap.", float64(st.DroppedSpans))
		c.Counter("gridrm_traces_recycled_total", "Evicted trace legs retired for reuse: every span ended, their handles made inert.", float64(st.Recycled))
		c.Gauge("gridrm_trace_bytes", "Bytes the tracer's stored and free recorders and chunks occupy.", float64(st.Bytes))
	})
	r.Collect(func(c *metrics.Collection) {
		st := g.plans.Stats()
		c.Counter("gridrm_plan_cache_hits_total", "Query parses served from the plan cache.", float64(st.Hits))
		c.Counter("gridrm_plan_cache_misses_total", "Query parses that ran the parser.", float64(st.Misses))
		c.Counter("gridrm_plan_cache_evictions_total", "Parsed plans evicted by the LRU cap.", float64(st.Evictions))
		c.Gauge("gridrm_plan_cache_entries", "Parsed plans currently cached.", float64(st.Entries))
	})
	r.Collect(func(c *metrics.Collection) {
		c.Gauge("gridrm_history_keys", "Distinct (source, group) keys holding history samples.", float64(g.history.Keys()))
		c.Gauge("gridrm_history_samples", "History samples retained across all keys.", float64(g.history.TotalSamples()))
		c.Gauge("gridrm_history_bytes", "Bytes the history store's series hold: sealed chunks, open-chunk arrays and dictionaries.", float64(g.history.Bytes()))
		c.Counter("gridrm_history_pruned_total", "History samples dropped by the retention sweep.", float64(g.historyPrunes.Load()))
	})
	if g.durable != nil {
		r.Collect(func(c *metrics.Collection) {
			st := g.durable.Stats()
			c.Counter("gridrm_history_wal_appends_total", "History records journaled to the WAL.", float64(st.WALAppends))
			c.Counter("gridrm_history_wal_writes_total", "Writes carrying WAL records: one per group commit under the interval fsync policy, one per record otherwise.", float64(st.WALWrites))
			c.Counter("gridrm_history_fsyncs_total", "WAL fsync calls performed.", float64(st.Fsyncs))
			c.Counter("gridrm_history_replayed_records_total", "History records restored from checkpoint + WAL at startup.", float64(st.ReplayedRecords))
			c.Counter("gridrm_history_corrupt_records_total", "Corrupt WAL tails and checkpoints detected and recovered.", float64(st.CorruptRecords))
			c.Counter("gridrm_history_checkpoints_total", "History checkpoints written.", float64(st.Checkpoints))
			c.Counter("gridrm_history_checkpoint_errors_total", "History checkpoints that failed to write.", float64(st.CheckpointErrors))
			c.Counter("gridrm_history_wal_errors_total", "WAL appends, group flushes and segment seals that failed, each dropping history to memory-only.", float64(st.WALErrors))
			c.Counter("gridrm_history_reattaches_total", "Re-attachments to the history dir after a memory-only spell.", float64(st.Reattaches))
			c.Gauge("gridrm_history_disk_bytes", "Bytes the history WAL and checkpoints occupy on disk.", float64(st.DiskBytes))
			c.Gauge("gridrm_history_wal_bytes_since_checkpoint", "Framed WAL bytes no checkpoint covers yet: what a crash now would replay.", float64(st.WALBytesSinceCheckpoint))
			c.Gauge("gridrm_history_durable", "1 while history persistence is attached, 0 in memory-only degradation.", metrics.Flag(st.State == "durable"))
		})
	}
}

// Metrics returns the gateway's metrics registry (served by GET /metrics).
func (g *Gateway) Metrics() *metrics.Registry { return g.registry }

// Tracer returns the gateway's distributed tracer and slow-query log
// (served by GET /traces and the /status slow section).
func (g *Gateway) Tracer() *trace.Tracer { return g.tracer }

// QueryStageLatencies summarises the per-stage query latency histogram for
// status reports.
func (g *Gateway) QueryStageLatencies() []metrics.HistogramSnapshot {
	return g.stageHist.Snapshot()
}

// observeStage records one stage latency, using the gateway clock so tests
// with fake clocks stay deterministic.
func (g *Gateway) observeStage(stage string, start time.Time) {
	g.stageHist.With(stage).Observe(g.clock().Sub(start).Seconds())
}

// Name returns the gateway's site name.
func (g *Gateway) Name() string { return g.name }

// beginQuery admits a query into the in-flight set, refusing once the
// gateway is shut down. The WaitGroup Add happens under the same lock that
// Shutdown uses to set closed, so Add never races Shutdown's Wait.
func (g *Gateway) beginQuery() error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.closed {
		return ErrGatewayClosed
	}
	g.inflight.Add(1)
	return nil
}

func (g *Gateway) endQuery() { g.inflight.Done() }

// Shutdown stops the gateway in order: the background loop first, then new
// queries are refused and in-flight ones drained until ctx expires, then
// the Event Manager is flushed and the connection pool closed. It returns
// ctx.Err() when the drain was abandoned at the deadline — events and pool
// are still closed in that case. Safe to call more than once.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()

	g.stopLoop()
	<-g.loopDone

	drained := make(chan struct{})
	go func() {
		g.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// Drain the push router after the query drain (so final harvests still
	// reach subscribers) and before durable close: intake stops, queued
	// rows flush to sinks until ctx's deadline, then sinks close. A dead
	// sink cannot extend the shutdown past ctx.
	if perr := g.push.Close(ctx); err == nil {
		err = perr
	}

	// After the drain no more Records arrive; a final checkpoint makes the
	// full retained state durable before the process goes away.
	if g.durable != nil {
		_ = g.durable.Close()
	}

	g.events.Publish(event.Event{
		Source:   "gateway:" + g.name,
		Name:     "gateway-shutdown",
		Severity: event.SeverityStatus,
		Time:     g.clock(),
	})
	g.events.Close()
	g.pool.CloseAll()
	return err
}

// Close shuts the gateway down immediately: pooled connections are closed
// and the Event Manager drained, without waiting for in-flight queries. Use
// Shutdown for a graceful drain.
func (g *Gateway) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = g.Shutdown(ctx)
}

// RegisterDriver installs a data-source driver and its GLUE schema mapping.
// Drivers can be added at runtime without affecting normal operation.
func (g *Gateway) RegisterDriver(d driver.Driver, ds *schema.DriverSchema) error {
	if ds == nil || d == nil {
		return fmt.Errorf("core: driver and schema are both required")
	}
	if ds.Driver != d.Name() {
		return fmt.Errorf("core: schema names driver %q, driver is %q", ds.Driver, d.Name())
	}
	if err := g.schemas.Register(ds); err != nil {
		return err
	}
	if err := g.drivers.RegisterDriver(d); err != nil {
		g.schemas.Deregister(ds.Driver)
		return err
	}
	g.events.Publish(event.Event{
		Source:   "gateway:" + g.name,
		Name:     "driver-registered",
		Severity: event.SeverityStatus,
		Time:     g.clock(),
		Detail:   d.Name(),
	})
	return nil
}

// DeregisterDriver removes a driver and its schema at runtime.
func (g *Gateway) DeregisterDriver(name string) error {
	if err := g.drivers.DeregisterDriver(name); err != nil {
		return err
	}
	g.schemas.Deregister(name)
	g.events.Publish(event.Event{
		Source:   "gateway:" + g.name,
		Name:     "driver-deregistered",
		Severity: event.SeverityStatus,
		Time:     g.clock(),
		Detail:   name,
	})
	return nil
}

// Drivers lists registered drivers for the management view.
func (g *Gateway) Drivers() []DriverInfo {
	var out []DriverInfo
	for _, name := range g.drivers.Drivers() {
		info := DriverInfo{Name: name}
		if d, ok := g.drivers.Driver(name); ok {
			if v, ok := d.(driver.Versioned); ok {
				info.Version = v.Version()
			}
		}
		if ds, _, ok := g.schemas.Lookup(name); ok {
			info.Groups = ds.GroupNames()
		}
		out = append(out, info)
	}
	return out
}

// AddSource registers a data source. Static driver preferences, when given,
// are installed with the DriverManager.
func (g *Gateway) AddSource(cfg SourceConfig) error {
	if _, err := driver.ParseURL(cfg.URL); err != nil {
		return err
	}
	for _, name := range cfg.Drivers {
		if _, ok := g.drivers.Driver(name); !ok {
			return fmt.Errorf("core: source %s prefers unregistered driver %q", cfg.URL, name)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.sources[cfg.URL]; dup {
		return fmt.Errorf("core: source %s already registered", cfg.URL)
	}
	g.sources[cfg.URL] = &source{SourceInfo: SourceInfo{SourceConfig: cfg}, breaker: breaker.New(g.breakerOpts)}
	g.sorted = nil
	g.drivers.SetPreferences(cfg.URL, cfg.Drivers)
	return nil
}

// RemoveSource unregisters a data source and drops its cached results.
func (g *Gateway) RemoveSource(url string) error {
	g.mu.Lock()
	_, ok := g.sources[url]
	if ok {
		delete(g.sources, url)
		g.sorted = nil
	}
	g.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: source %s not registered", url)
	}
	g.drivers.SetPreferences(url, nil)
	g.cache.InvalidateSource(url)
	return nil
}

// source is one registered data source: its stored record — the SourceInfo
// fields read from the breaker (Breaker, Health, Failures) stay zero here
// and are filled by snapshot — and the circuit breaker in front of its
// harvests, whose count only noteSuccess and noteFailure change, under g.mu.
type source struct {
	SourceInfo
	breaker *breaker.Breaker
}

// snapshot is s's record with the per-read fields filled in. The caller
// holds g.mu.
func (g *Gateway) snapshot(s *source, now time.Time) SourceInfo {
	info := s.SourceInfo
	info.Breaker = string(s.breaker.State(now))
	info.Failures = s.breaker.Failures()
	info.Health = sourceStates[g.stateOf(info.Failures)]
	return info
}

// stateOf maps a breaker's consecutive-failure count to its source's state,
// an index into sourceStates: healthy at 0, degraded below the breaker's
// Threshold, down at or above it. A disabled breaker (negative Threshold)
// never refuses a call, so its source is never down.
func (g *Gateway) stateOf(failures int) int {
	switch t := g.breakerOpts.Threshold; {
	case failures == 0:
		return 0
	case t < 0 || failures < t:
		return 1
	}
	return 2
}

// Sources lists registered data sources with health, sorted by URL.
func (g *Gateway) Sources() []SourceInfo {
	now := g.clock()
	g.mu.RLock()
	out := make([]SourceInfo, 0, len(g.sources))
	for _, s := range g.sources {
		out = append(out, g.snapshot(s, now))
	}
	g.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Source returns one registered source's info.
func (g *Gateway) Source(url string) (SourceInfo, bool) {
	now := g.clock()
	g.mu.RLock()
	defer g.mu.RUnlock()
	s, ok := g.sources[url]
	if !ok {
		return SourceInfo{}, false
	}
	return g.snapshot(s, now), true
}

// lookup returns a registered source's connection properties and circuit
// breaker.
func (g *Gateway) lookup(url string) (driver.Properties, *breaker.Breaker, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s, ok := g.sources[url]
	if !ok {
		return nil, nil, fmt.Errorf("core: source %s not registered", url)
	}
	return s.Props, s.breaker, nil
}

// lastDriver names the driver that last harvested url ("" when none has).
func (g *Gateway) lastDriver(url string) string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if s, ok := g.sources[url]; ok {
		return s.LastDriver
	}
	return ""
}

// SetGlobalRouter wires the gateway to the Global layer.
func (g *Gateway) SetGlobalRouter(r GlobalRouter) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.router = r
}

// sortedSources returns every registered source URL in order. The list is
// built on the first read after a registration changed and then shared by
// every reader until the next change, so registering 5,000 sources sorts
// once, not once a source; readers must not write to it.
func (g *Gateway) sortedSources() []string {
	g.mu.RLock()
	urls := g.sorted
	g.mu.RUnlock()
	if urls != nil {
		return urls
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sorted == nil {
		urls := make([]string, 0, len(g.sources))
		for url := range g.sources {
			urls = append(urls, url)
		}
		sort.Strings(urls)
		g.sorted = urls
	}
	return g.sorted
}

// ProbeAll sweeps every registered source once, in URL order, until ctx is
// done, so an open breaker recovers through its half-open slot with no
// client in the loop. The background loop runs it every ProbeInterval.
func (g *Gateway) ProbeAll(ctx context.Context) {
	for _, url := range g.sortedSources() {
		if ctx.Err() != nil {
			return
		}
		g.probe(ctx, url)
	}
}

// probe is a cheap liveness check of one source via a pooled connection,
// bounded by probeTimeout. Liveness is the probe's question, so it is the
// one caller that pings a connection no statement has failed on: an idle
// connection that does not answer is discarded as stale and the next one
// tried, and a fresh connect proves liveness by itself. A source whose
// breaker refuses a call is passed over, not charged (a failure would
// extend its cooldown for ever); once the cooldown elapses the probe claims
// the half-open slot itself. A probe abandoned because ctx, the sweep, was
// cancelled notes nothing and gives back any slot it claimed, like a
// harvest abandoned before the driver; one that ran out its own
// probeTimeout is the source's failure.
func (g *Gateway) probe(ctx context.Context, url string) {
	props, br, err := g.lookup(url)
	if err != nil {
		return // removed since the sweep listed it
	}
	if !br.Allow(g.clock()) {
		g.probeSkipped.Add(1)
		return
	}
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	for {
		conn, err := g.pool.GetContext(pctx, url, props)
		if err == nil && conn.Reused() && conn.PingContext(pctx) != nil {
			if err = pctx.Err(); err == nil {
				continue // stale and now closed: the next idle connection, or a dial
			}
		}
		switch {
		case err != nil && ctx.Err() != nil:
			br.Release()
		case err != nil:
			g.probes.Add(1)
			g.probeFailures.Add(1)
			g.noteFailure(url, err, g.clock())
		default:
			g.probes.Add(1)
			driverName := conn.Driver()
			conn.Release()
			g.noteSuccess(url, driverName, g.clock())
		}
		return
	}
}

// Events returns the gateway's Event Manager.
func (g *Gateway) Events() *event.Manager { return g.events }

// HistoryStore returns the gateway's historical store.
func (g *Gateway) HistoryStore() *history.Store { return g.history }

// DurableHistory returns the history persistence layer, or nil when the
// gateway runs memory-only (Durable.Dir unset).
func (g *Gateway) DurableHistory() *tsdb.Store { return g.durable }

// HistoryStatus summarises the historical store for status reports.
type HistoryStatus struct {
	Keys    int   `json:"keys"`
	Samples int   `json:"samples"`
	Pruned  int64 `json:"pruned_total"`
	// Durability is nil when the gateway runs without a history dir.
	Durability *tsdb.Stats `json:"durability,omitempty"`
}

// HistoryStatus reports history retention and durability state.
func (g *Gateway) HistoryStatus() HistoryStatus {
	st := HistoryStatus{
		Keys:    g.history.Keys(),
		Samples: g.history.TotalSamples(),
		Pruned:  g.historyPrunes.Load(),
	}
	if g.durable != nil {
		ds := g.durable.Stats()
		st.Durability = &ds
	}
	return st
}

// Cache returns the gateway's query cache.
func (g *Gateway) Cache() *qcache.Cache { return g.cache }

// PlanCache returns the gateway's cache of parsed query plans.
func (g *Gateway) PlanCache() *sqlparse.PlanCache { return g.plans }

// Pool returns the gateway's ConnectionManager.
func (g *Gateway) Pool() *pool.Manager { return g.pool }

// DriverManager returns the gateway's GridRMDriverManager.
func (g *Gateway) DriverManager() *driver.Manager { return g.drivers }

// SchemaManager returns the gateway's SchemaManager.
func (g *Gateway) SchemaManager() *schema.Manager { return g.schemas }

// CoarsePolicy returns the CGSL policy.
func (g *Gateway) CoarsePolicy() *security.CoarsePolicy { return g.coarse }

// FinePolicy returns the FGSL policy.
func (g *Gateway) FinePolicy() *security.FinePolicy { return g.fine }

// Stats returns gateway counters.
func (g *Gateway) Stats() Stats {
	plans, push := g.plans.Stats(), g.push.Stats()
	return Stats{
		Queries:        g.queries.Load(),
		QueryErrors:    g.queryErrors.Load(),
		Harvests:       g.harvests.Load(),
		HarvestErrors:  g.harvestErrors.Load(),
		CacheServed:    g.cacheServed.Load(),
		Coalesced:      g.coalesced.Load(),
		Routed:         g.routed.Load(),
		Denied:         g.denied.Load(),
		Timeouts:       g.timeouts.Load(),
		Retries:        g.retries.Load(),
		BreakerSkipped: g.breakerSkipped.Load(),
		BreakerOpens:   g.breakerOpens.Load(),

		StaleServes:      g.staleServes.Load(),
		HistoryFallbacks: g.historyFallbacks.Load(),
		DriverPanics:     g.driverPanics.Load(),

		PlanCacheHits:   int64(plans.Hits),
		PlanCacheMisses: int64(plans.Misses),

		RowsPublished:       push.Published,
		RowsDropped:         push.Dropped,
		SubscriberEvictions: push.Evicted,
		SinkDelivered:       push.SinkDelivered,
		SinkDropped:         push.SinkDropped,
		SinkBreakerOpens:    push.SinkBreakerOpens,
		EventsDropped:       g.events.Stats().Dropped,
		Fanouts:             g.fanouts.Load(),
		FanoutLegs:          g.fanoutLegs.Load(),
		Probes:              g.probes.Load(),
		ProbeFailures:       g.probeFailures.Load(),
		ProbeSkipped:        g.probeSkipped.Load(),
		SourceTransitions:   g.transitions.Load(),
	}
}

// noteSuccess records a harvest or probe that reached url's source: its
// record, and its breaker's count back to 0.
func (g *Gateway) noteSuccess(url, driverName string, at time.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.sources[url]
	if !ok {
		return
	}
	s.LastDriver = driverName
	s.LastSuccess = at
	s.LastError = ""
	from := g.stateOf(s.breaker.Failures())
	s.breaker.OnSuccess()
	g.noteState(s, from, nil, at)
}

// noteFailure records a failed harvest or probe of url's source: a
// poll-failed event, its record, and one more failure on its breaker.
func (g *Gateway) noteFailure(url string, err error, at time.Time) {
	var pe *driver.PanicError
	if errors.As(err, &pe) {
		// A contained driver panic: count it and alert with the captured
		// stack, then let it feed the breaker like any other failure.
		g.driverPanics.Add(1)
		g.events.Publish(event.Event{
			Source:   url,
			Name:     "driver-panic",
			Severity: event.SeverityAlert,
			Time:     at,
			Detail:   fmt.Sprintf("%v\n%s", pe.Value, pe.Stack),
		})
	}
	g.events.Publish(event.Event{
		Source:   url,
		Name:     "poll-failed",
		Severity: event.SeverityStatus,
		Time:     at,
		Detail:   err.Error(),
	})
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.sources[url]
	if !ok {
		return
	}
	s.LastError = err.Error()
	s.LastErrorAt = at
	from := g.stateOf(s.breaker.Failures())
	if s.breaker.OnFailure(at) {
		g.breakerOpens.Add(1)
	}
	g.noteState(s, from, err, at)
}

// noteState publishes s's state change, if its breaker's last note moved
// it out of state from: one source-state event, an Alert into degraded or
// down or a Status event back to healthy, detailed "from -> to: cause", and
// one count in SourceTransitions. The caller holds g.mu, so the events of
// one source come in the order of the notes that caused them.
func (g *Gateway) noteState(s *source, from int, cause error, at time.Time) {
	to := g.stateOf(s.breaker.Failures())
	if to == from {
		return
	}
	g.transitions.Add(1)
	sev := event.SeverityAlert
	if to == 0 {
		sev = event.SeverityStatus
	}
	detail := sourceStates[from] + " -> " + sourceStates[to]
	if cause != nil {
		detail += ": " + cause.Error()
	}
	g.events.Publish(event.Event{
		Source:   s.URL,
		Name:     "source-state",
		Severity: sev,
		Time:     at,
		Detail:   detail,
	})
}
