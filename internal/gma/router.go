package gma

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridrm/internal/breaker"
	"gridrm/internal/core"
	"gridrm/internal/metrics"
	"gridrm/internal/retry"
	"gridrm/internal/trace"
)

// ExecContext forwards a query to a remote gateway endpoint, bounded by ctx;
// internal/web's RemoteQueryContext is the HTTP implementation.
type ExecContext func(ctx context.Context, endpoint string, req core.QueryOptions) (*core.Response, error)

// Config configures the Router's resilience features. The zero value is
// the production default: a 15s lookup cache, per-endpoint breakers at the
// shared defaults, no retries, no hedging.
type Config struct {
	// LookupTTL is how long a directory lookup (and the registration
	// list) is served from the router's cache without consulting the
	// directory. Expired entries are still kept and served stale when
	// every directory replica is unreachable — the Global-layer analogue
	// of the local stale-cache degradation tier (default 15s; negative
	// disables caching entirely).
	LookupTTL time.Duration
	// Breaker configures the per-remote-endpoint circuit breaker
	// (Threshold 0 = breaker defaults; negative disables).
	Breaker breaker.Options
	// RetryAttempts is how many additional attempts a failed remote query
	// gets, with exponential backoff, while the caller's ctx allows.
	RetryAttempts int
	// RetryBackoff is the wait before the first retry (default 50ms); it
	// follows the internal/retry schedule capped at core.MaxRetryBackoff.
	RetryBackoff time.Duration
	// HedgeAfter launches a second identical remote query when the first
	// has not answered after this long; the first response wins and the
	// loser is cancelled (0 disables hedging).
	HedgeAfter time.Duration
	// Clock is injectable for tests; nil uses time.Now.
	Clock func() time.Time
}

// Stats counts Router activity.
type Stats struct {
	// RemoteQueries counts remote queries attempted (before retries).
	RemoteQueries int64
	// RemoteFailures counts remote queries that failed after all retries.
	RemoteFailures int64
	// RemoteRetries counts retry attempts performed.
	RemoteRetries int64
	// RemoteBreakerOpens counts closed-to-open transitions of per-endpoint
	// breakers.
	RemoteBreakerOpens int64
	// RemoteBreakerSkipped counts remote queries rejected cheaply because
	// the endpoint's breaker was open.
	RemoteBreakerSkipped int64
	// Hedges counts hedge requests launched for straggling remote queries.
	Hedges int64
	// HedgeWins counts hedge requests that answered before the original.
	HedgeWins int64
	// LookupCacheHits counts directory lookups served fresh from the cache.
	LookupCacheHits int64
	// StaleLookups counts lookups (and registration lists) served from an
	// expired cache entry because the directory was unreachable.
	StaleLookups int64
	// RepubRoutes counts site-scoped queries routed to the site's owning
	// republisher instead of the site itself.
	RepubRoutes int64
	// RepubFallthroughs counts republisher-routed queries that fell
	// through to the site's own gateway because the republisher failed.
	RepubFallthroughs int64
	// GenerationEvictions counts cached lookups evicted before their TTL
	// because the directory reported a newer registration Generation.
	GenerationEvictions int64
}

// cachedLookup is one member's cached registration record.
type cachedLookup struct {
	r  Registration
	at time.Time
}

// Router routes remote-site queries via the GMA directory; it implements
// core.GlobalRouter. It keeps a TTL'd lookup cache
// with stale-on-error semantics and a circuit breaker per remote endpoint,
// retries with backoff, optionally hedges straggling remote queries, and —
// when republishers are registered — routes site queries through the
// owning republisher (consistent hash) with fall-through to the site
// itself.
type Router struct {
	dir  DirectoryService
	exec ExecContext
	// local is the local site name, excluded from Sites().
	local string
	cfg   Config
	clock func() time.Time
	// dirKey identifies the directory set; cached lookups are keyed on
	// (dirKey, site) so routers sharing a cache implementation can never
	// serve an endpoint resolved against a different directory set.
	dirKey string

	mu      sync.Mutex
	lookups map[string]cachedLookup // by cacheKey(site)
	// regs is the last known registration list; ring and owners are
	// derived from it and rebuilt whenever the list is refreshed.
	regs   []Registration
	regsAt time.Time
	ring   *Ring
	// gens tracks the Generation the router last saw per member, for
	// early eviction of cached lookups on re-registration.
	gens     map[string]uint64
	breakers map[string]*breaker.Breaker // by endpoint

	remoteQueries, remoteFailures, remoteRetries atomic.Int64
	breakerOpens, breakerSkipped                 atomic.Int64
	hedges, hedgeWins                            atomic.Int64
	lookupHits, staleLookups                     atomic.Int64
	repubRoutes, repubFallthroughs               atomic.Int64
	genEvictions                                 atomic.Int64
}

// NewRouter creates the Router for the gateway named local; exec forwards
// one query to a remote endpoint. cfg's zero fields take the defaults
// documented on Config.
func NewRouter(dir DirectoryService, exec ExecContext, local string, cfg Config) *Router {
	if cfg.LookupTTL == 0 {
		cfg.LookupTTL = 15 * time.Second
	}
	cfg.Breaker = cfg.Breaker.Fill()
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	return &Router{
		dir: dir, exec: exec, local: local, cfg: cfg, clock: clock,
		dirKey:   directoryKey(dir),
		lookups:  make(map[string]cachedLookup),
		gens:     make(map[string]uint64),
		breakers: make(map[string]*breaker.Breaker),
	}
}

// directoryKey derives a stable identity for a directory set: the replica
// URLs for a MultiDirectory, the base URL for a DirectoryClient, and the
// instance address otherwise.
func directoryKey(dir DirectoryService) string {
	switch d := dir.(type) {
	case *DirectoryClient:
		return d.BaseURL
	case *MultiDirectory:
		names := make([]string, 0, len(d.replicas))
		for _, r := range d.replicas {
			names = append(names, r.name)
		}
		sort.Strings(names)
		return strings.Join(names, ",")
	default:
		return fmt.Sprintf("%p", dir)
	}
}

// cacheKey scopes a member's cache entry to this router's directory set.
func (r *Router) cacheKey(name string) string { return r.dirKey + "\x00" + name }

// Stats returns the router's counters.
func (r *Router) Stats() Stats {
	return Stats{
		RemoteQueries:        r.remoteQueries.Load(),
		RemoteFailures:       r.remoteFailures.Load(),
		RemoteRetries:        r.remoteRetries.Load(),
		RemoteBreakerOpens:   r.breakerOpens.Load(),
		RemoteBreakerSkipped: r.breakerSkipped.Load(),
		Hedges:               r.hedges.Load(),
		HedgeWins:            r.hedgeWins.Load(),
		LookupCacheHits:      r.lookupHits.Load(),
		StaleLookups:         r.staleLookups.Load(),
		RepubRoutes:          r.repubRoutes.Load(),
		RepubFallthroughs:    r.repubFallthroughs.Load(),
		GenerationEvictions:  r.genEvictions.Load(),
	}
}

// RegisterMetrics exports the router's counters — and, when the directory
// is a MultiDirectory, replica health gauges — into a metrics registry
// (typically the gateway's, so they appear on GET /metrics).
func (r *Router) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("gridrm_remote_queries_total", "Remote gateway queries attempted.", r.remoteQueries.Load)
	reg.CounterFunc("gridrm_remote_failures_total", "Remote gateway queries that failed after retries.", r.remoteFailures.Load)
	reg.CounterFunc("gridrm_remote_retries_total", "Remote query retry attempts performed.", r.remoteRetries.Load)
	reg.CounterFunc("gridrm_remote_breaker_opens_total", "Per-endpoint breaker closed-to-open transitions.", r.breakerOpens.Load)
	reg.CounterFunc("gridrm_remote_breaker_skipped_total", "Remote queries rejected because the endpoint breaker was open.", r.breakerSkipped.Load)
	reg.CounterFunc("gridrm_remote_hedges_total", "Hedge requests launched for straggling remote queries.", r.hedges.Load)
	reg.CounterFunc("gridrm_remote_hedge_wins_total", "Hedge requests that answered before the original.", r.hedgeWins.Load)
	reg.CounterFunc("gridrm_lookup_cache_hits_total", "Directory lookups served fresh from the router cache.", r.lookupHits.Load)
	reg.CounterFunc("gridrm_stale_lookups_total", "Lookups served from an expired cache entry during a directory outage.", r.staleLookups.Load)
	reg.CounterFunc("gridrm_repub_routes_total", "Site queries routed via the owning republisher.", r.repubRoutes.Load)
	reg.CounterFunc("gridrm_repub_fallthroughs_total", "Republisher-routed queries that fell through to the site gateway.", r.repubFallthroughs.Load)
	reg.CounterFunc("gridrm_generation_evictions_total", "Cached lookups evicted early on registration generation change.", r.genEvictions.Load)
	if md, ok := r.dir.(*MultiDirectory); ok {
		reg.GaugeFunc("gridrm_directory_replicas_healthy", "Directory replicas whose last operation succeeded.",
			func() float64 {
				n := 0
				for _, h := range md.ReplicaHealth() {
					if h.Healthy {
						n++
					}
				}
				return float64(n)
			})
		reg.GaugeFunc("gridrm_directory_replicas", "Directory replicas configured.",
			func() float64 { return float64(len(md.ReplicaHealth())) })
	}
}

// endpointBreaker returns the breaker guarding one remote endpoint,
// creating it on first use. With a negative Breaker.Threshold the breaker
// is disabled and admits everything.
func (r *Router) endpointBreaker(endpoint string) *breaker.Breaker {
	r.mu.Lock()
	defer r.mu.Unlock()
	br, ok := r.breakers[endpoint]
	if !ok {
		br = breaker.New(r.cfg.Breaker)
		r.breakers[endpoint] = br
	}
	return br
}

// EndpointBreakerState reports one endpoint's breaker state ("closed" when
// breakers are disabled), for tests and the management view.
func (r *Router) EndpointBreakerState(endpoint string) string {
	return string(r.endpointBreaker(endpoint).State(r.clock()))
}

// lookup resolves a member name to its registration: fresh cache entry
// first, then the directory, falling back to a stale cache entry when
// every directory replica is unreachable.
func (r *Router) lookup(ctx context.Context, name string) (Registration, error) {
	now := r.clock()
	caching := r.cfg.LookupTTL > 0
	key := r.cacheKey(name)
	if caching {
		r.mu.Lock()
		c, ok := r.lookups[key]
		r.mu.Unlock()
		if ok && now.Sub(c.at) <= r.cfg.LookupTTL {
			r.lookupHits.Add(1)
			return c.r, nil
		}
	}
	reg, ok, err := r.dir.LookupContext(ctx, name)
	if err != nil {
		if caching {
			// Stale-on-error: a warm entry outlives a full directory
			// outage, like the local layer's stale-cache degradation tier.
			r.mu.Lock()
			c, cached := r.lookups[key]
			r.mu.Unlock()
			if cached {
				r.staleLookups.Add(1)
				return c.r, nil
			}
		}
		return Registration{}, fmt.Errorf("gma: directory lookup for %q: %w", name, err)
	}
	if !ok {
		// Authoritative not-found: drop any stale record so a deregistered
		// member stops being routable at the next TTL boundary.
		if caching {
			r.mu.Lock()
			delete(r.lookups, key)
			r.mu.Unlock()
		}
		return Registration{}, fmt.Errorf("gma: no producer registered for site %q", name)
	}
	if caching {
		r.mu.Lock()
		r.lookups[key] = cachedLookup{r: reg, at: now}
		if r.gens[name] != reg.Generation {
			r.gens[name] = reg.Generation
		}
		r.mu.Unlock()
	}
	return reg, nil
}

// invalidateLookup expires one member's cached lookup so the next attempt
// re-consults the directory. The entry is kept with a zero timestamp
// rather than deleted: stale-on-error still has a record to serve if the
// directory is down too.
func (r *Router) invalidateLookup(name string) {
	r.mu.Lock()
	key := r.cacheKey(name)
	if c, ok := r.lookups[key]; ok {
		c.at = time.Time{}
		r.lookups[key] = c
	}
	r.mu.Unlock()
}

// registrations returns the directory's registration list, cached for
// LookupTTL with stale-on-error fallback. Refreshing the list rebuilds
// the ownership ring and evicts cached lookups whose Generation changed —
// a re-registered member is re-resolved before its lookup TTL expires.
func (r *Router) registrations(ctx context.Context) ([]Registration, error) {
	now := r.clock()
	caching := r.cfg.LookupTTL > 0
	if caching {
		r.mu.Lock()
		regs, at := r.regs, r.regsAt
		r.mu.Unlock()
		if regs != nil && now.Sub(at) <= r.cfg.LookupTTL {
			return regs, nil
		}
	}
	regs, err := r.dir.ListContext(ctx)
	if err != nil {
		if caching {
			r.mu.Lock()
			regs := r.regs
			r.mu.Unlock()
			if regs != nil {
				r.staleLookups.Add(1)
				return regs, nil
			}
		}
		return nil, err
	}
	r.storeRegistrations(regs, now)
	return regs, nil
}

// storeRegistrations installs a freshly fetched registration list:
// caches it, rebuilds the republisher ring, and applies generation-based
// eviction to the lookup cache.
func (r *Router) storeRegistrations(regs []Registration, now time.Time) {
	var repubs []string
	for _, reg := range regs {
		if reg.Role == RoleRepublisher {
			repubs = append(repubs, reg.Name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.LookupTTL > 0 {
		r.regs = append([]Registration(nil), regs...)
		r.regsAt = now
	}
	r.ring = NewRing(repubs, DefaultVNodes)
	for _, reg := range regs {
		if prev, seen := r.gens[reg.Name]; seen && prev != reg.Generation {
			if _, cached := r.lookups[r.cacheKey(reg.Name)]; cached {
				delete(r.lookups, r.cacheKey(reg.Name))
				r.genEvictions.Add(1)
			}
		}
		r.gens[reg.Name] = reg.Generation
	}
}

// owner returns the republisher owning site on the current ring ("" when
// no republishers are registered).
func (r *Router) owner(site string) string {
	r.mu.Lock()
	ring := r.ring
	r.mu.Unlock()
	if ring.Empty() {
		return ""
	}
	return ring.Owner(site)
}

// routeViaRepublisher reports whether a query for target may be served by
// its owning republisher: cached-mode reads of a site's data. Real-time
// and historical queries always go to the site itself — a republisher
// serves its merged cached view, not the site's agents or history.
func routeViaRepublisher(target Registration, req core.QueryOptions) bool {
	return target.Role == RoleSite && req.Mode == core.ModeCached
}

// RemoteQueryContext implements core.GlobalRouter: directory lookup (with
// cache), republisher-first routing for cached site reads, per-endpoint
// breaker admission, the remote call with optional hedging, and retries
// with backoff — all bounded by ctx. When the request is being traced the
// hop is recorded as a "remote-query" span; the HTTP exec propagates the
// trace context to the remote gateway and stitches its returned spans into
// the local trace.
//
// A failed attempt expires the target's cached lookup before the retry, so
// a site re-registered at a new endpoint is re-resolved immediately rather
// than being unroutable for a full lookup TTL.
func (r *Router) RemoteQueryContext(ctx context.Context, site string, req core.QueryOptions) (*core.Response, error) {
	ctx, sp := trace.StartSpan(ctx, "remote-query")
	if sp != nil {
		sp.SetAttr("site", site)
		defer sp.End()
	}
	p, err := r.lookup(ctx, site)
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	sp.SetAttr("endpoint", p.Endpoint)
	r.remoteQueries.Add(1)

	// Republisher-first: cached reads of an owned site are answered by
	// the owning republisher's merged view; any failure falls through to
	// the site's own gateway below, where breakers/retries/hedging apply.
	if routeViaRepublisher(p, req) {
		if owner := r.owner(site); owner != "" && owner != site {
			if resp, ok := r.tryRepublisher(ctx, owner, site, req, sp); ok {
				return resp, nil
			}
		}
	}

	backoff := retry.Backoff{Base: r.cfg.RetryBackoff, Max: core.MaxRetryBackoff}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// Re-resolve: the previous attempt invalidated the cached
			// lookup, so a re-registered endpoint is picked up here.
			if np, err := r.lookup(ctx, site); err == nil {
				if np.Endpoint != p.Endpoint {
					sp.SetAttr("endpoint", np.Endpoint)
				}
				p = np
			}
		}
		br := r.endpointBreaker(p.Endpoint)
		if !br.Allow(r.clock()) {
			r.breakerSkipped.Add(1)
			if lastErr != nil {
				// The breaker opened mid-retry: surface the real failure.
				break
			}
			r.remoteFailures.Add(1)
			err := fmt.Errorf("gma: circuit open for site %q (%s)", site, p.Endpoint)
			sp.SetError(err)
			return nil, err
		}
		resp, err := r.execHedged(ctx, p.Endpoint, req)
		if err == nil {
			br.OnSuccess()
			return resp, nil
		}
		lastErr = err
		if br.OnFailure(r.clock()) {
			r.breakerOpens.Add(1)
		}
		r.invalidateLookup(site)
		if attempt >= r.cfg.RetryAttempts || ctx.Err() != nil {
			break
		}
		if err := retry.Sleep(ctx, backoff.Delay(attempt)); err != nil {
			lastErr = err
			break
		}
		r.remoteRetries.Add(1)
	}
	r.remoteFailures.Add(1)
	err = fmt.Errorf("gma: remote query to %s (%s): %w", site, p.Endpoint, lastErr)
	sp.SetError(err)
	return nil, err
}

// tryRepublisher attempts one site-scoped query against the owning
// republisher. It is a single hedged attempt through the republisher
// endpoint's breaker: the direct-to-site path behind it provides the
// retry budget, so a dead republisher costs one failed round trip (and
// after its breaker opens, nothing).
func (r *Router) tryRepublisher(ctx context.Context, owner, site string, req core.QueryOptions, sp *trace.Span) (*core.Response, bool) {
	reg, err := r.lookup(ctx, owner)
	if err != nil || reg.Role != RoleRepublisher {
		return nil, false
	}
	br := r.endpointBreaker(reg.Endpoint)
	if !br.Allow(r.clock()) {
		r.breakerSkipped.Add(1)
		r.repubFallthroughs.Add(1)
		return nil, false
	}
	r.repubRoutes.Add(1)
	sp.SetAttr("republisher", owner)
	resp, err := r.execHedged(ctx, reg.Endpoint, req)
	if err == nil {
		br.OnSuccess()
		return resp, true
	}
	if br.OnFailure(r.clock()) {
		r.breakerOpens.Add(1)
	}
	r.invalidateLookup(owner)
	r.repubFallthroughs.Add(1)
	return nil, false
}

// execHedged performs one remote call; when HedgeAfter is configured and
// the call has not answered in time, a second identical call is launched
// and the first response wins — the Dean/Barroso hedged-request pattern for
// tail tolerance. The loser is cancelled through the shared context.
func (r *Router) execHedged(ctx context.Context, endpoint string, req core.QueryOptions) (*core.Response, error) {
	if r.cfg.HedgeAfter <= 0 {
		return r.exec(ctx, endpoint, req)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		resp   *core.Response
		err    error
		hedged bool
	}
	ch := make(chan result, 2)
	launch := func(hedged bool) {
		go func() {
			resp, err := r.exec(hctx, endpoint, req)
			ch <- result{resp: resp, err: err, hedged: hedged}
		}()
	}
	launch(false)
	outstanding := 1
	hedgeLaunched := false
	timer := time.NewTimer(r.cfg.HedgeAfter)
	defer timer.Stop()
	var firstErr error
	for {
		select {
		case <-timer.C:
			if !hedgeLaunched {
				hedgeLaunched = true
				r.hedges.Add(1)
				launch(true)
				outstanding++
			}
		case res := <-ch:
			if res.err == nil {
				if res.hedged {
					r.hedgeWins.Add(1)
				}
				return res.resp, nil
			}
			if firstErr == nil {
				firstErr = res.err
			}
			outstanding--
			if outstanding == 0 {
				// Nothing left in flight; if the hedge never launched it
				// never will (we return before the timer matters).
				return nil, firstErr
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Sites lists the names of registered site-role members, excluding the
// local site, for the servlet's /sites. The list rides the registration
// cache: cached for LookupTTL and served stale when the directory is
// unreachable, so all-sites fan-out keeps working through an outage.
func (r *Router) Sites() []string {
	regs, err := r.registrations(context.Background())
	if err != nil {
		return nil
	}
	sites := make([]string, 0, len(regs))
	for _, reg := range regs {
		if reg.Role == RoleSite && reg.Name != r.local {
			sites = append(sites, reg.Name)
		}
	}
	return sites
}

// FanoutPlan implements core.GlobalRouter: it turns the all-sites
// fan-out into a tree. Sites owned by a registered republisher are
// covered by one leg targeting that republisher (the republisher answers
// from its merged region view); sites without an owner get direct legs.
// The entry gateway's fan-out degree becomes O(republishers), not
// O(sites); a failed republisher leg is re-expanded by the caller into
// direct legs for the sites it covered.
func (r *Router) FanoutPlan(ctx context.Context) ([]core.FanoutLeg, error) {
	regs, err := r.registrations(ctx)
	if err != nil {
		return nil, err
	}
	var sites []string
	repub := make(map[string]bool)
	for _, reg := range regs {
		switch reg.Role {
		case RoleSite:
			if reg.Name != r.local {
				sites = append(sites, reg.Name)
			}
		case RoleRepublisher:
			repub[reg.Name] = true
		}
	}
	sort.Strings(sites)
	r.mu.Lock()
	ring := r.ring
	r.mu.Unlock()
	var legs []core.FanoutLeg
	if ring.Empty() {
		for _, s := range sites {
			legs = append(legs, core.FanoutLeg{Target: s})
		}
		return legs, nil
	}
	assign := ring.Assign(sites)
	for _, owner := range ring.Members() {
		covered := assign[owner]
		// A ring member that is no longer registered (stale ring vs a
		// fresher list) gets no leg; its sites fan out directly below.
		if len(covered) == 0 || !repub[owner] {
			continue
		}
		legs = append(legs, core.FanoutLeg{Target: owner, Republisher: true, Covers: covered})
	}
	// Sites the ring could not place (no live owner) fan out directly.
	for _, s := range sites {
		if owner := ring.Owner(s); owner == "" || !repub[owner] {
			legs = append(legs, core.FanoutLeg{Target: s})
		}
	}
	return legs, nil
}

var _ core.GlobalRouter = (*Router)(nil)
