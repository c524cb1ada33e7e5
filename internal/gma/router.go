package gma

import (
	"context"
	"fmt"
	"slices"
	"strconv"
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
// the production default: a 15s directory copy, per-endpoint breakers at
// the shared defaults, no retries.
type Config struct {
	// LookupTTL is how long the router routes from its copy of the
	// directory (one registration list) without listing it again. An
	// expired copy is still kept and served stale when every directory
	// replica is unreachable — the Global-layer analogue of the local
	// stale-cache degradation tier (default 15s; negative keeps no copy,
	// so every routing decision lists the directory).
	LookupTTL time.Duration
	// Breaker configures the per-remote-endpoint circuit breaker
	// (Threshold 0 = breaker defaults; negative disables).
	Breaker breaker.Options
	// RetryAttempts is how many additional attempts a failed remote query
	// gets, with exponential backoff, while the caller's ctx allows.
	RetryAttempts int
	// RetryBackoff is the wait before the first retry (default
	// retry.DefaultBase); it follows the internal/retry schedule capped at
	// core.MaxRetryBackoff.
	RetryBackoff time.Duration
	// Clock is injectable for tests; nil uses time.Now.
	Clock func() time.Time
	// Watch follows a republisher's version beside exec, as
	// web.RemoteVersionContext does over HTTP: the router keeps one watch
	// per republisher endpoint it holds answers from, and serves a held
	// answer without a request while its watch is live and names the
	// answer's version. Nil keeps no watch: every held answer is
	// revalidated with a request.
	Watch VersionContext
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
	// LookupCacheHits counts member names (a query's target, or the
	// republisher owning it) resolved from a copy of the directory
	// younger than LookupTTL.
	LookupCacheHits int64
	// StaleLookups counts routing decisions served from an expired copy
	// because the directory was unreachable.
	StaleLookups int64
	// RepubRoutes counts site-scoped queries routed to the site's owning
	// republisher instead of the site itself.
	RepubRoutes int64
	// RepubFallthroughs counts republisher-routed queries that fell
	// through to the site's own gateway because the republisher failed.
	RepubFallthroughs int64
	// NotModified counts republisher answers served from the answer the
	// router held, after the republisher answered 304 Not Modified.
	NotModified int64
	// WatchConfirmed counts republisher answers served from the answer the
	// router held with no request, its version confirmed by a live watch.
	WatchConfirmed int64
	// RegionLegs counts the region legs a republisher answered: evaluated,
	// 304 or watch-confirmed.
	RegionLegs int64
	// LiveWatches is how many version watches are live now.
	LiveWatches int
}

// snapshot is the router's copy of the directory: one registration list
// in ListContext's name order, the ring over its republishers, and when
// it was listed. It is never changed once built, so a routing decision
// that holds one sees a single version of the directory: every site it
// plans has an owner it can resolve. The fan-out plan and the digest are
// pure functions of the list and the local name, so a copy the router
// keeps makes them once (see keep) and every all-sites query of the copy
// shares them.
type snapshot struct {
	regs []Registration
	ring *Ring
	at   time.Time
	// kept marks legs and digest as made: only a copy the router keeps
	// has them.
	kept bool
	// legs is the all-sites fan-out plan over regs (see FanoutPlan).
	legs []core.FanoutLeg
	// sum is the hash Digest(regs) names: a list with the same one is the
	// same membership, and renews the copy instead of replacing it.
	sum uint64
	// digest is the 32-bit hash of Digest(regs), the
	// gridrm_directory_copy_digest gauge.
	digest uint32
	// expired marks a copy a failed remote call discredited: the next
	// decision lists again, and this one is kept for stale-on-error.
	expired bool
}

func newSnapshot(regs []Registration, at time.Time) *snapshot {
	var repubs []string
	for _, reg := range regs {
		if reg.Role == RoleRepublisher {
			repubs = append(repubs, reg.Name)
		}
	}
	return &snapshot{regs: regs, ring: NewRing(repubs, DefaultVNodes), at: at}
}

// keep makes what every decision on a kept copy shares: the fan-out plan
// for the gateway named local, and the digest. It runs before the copy is
// published, so readers never see it half made. A copy the router does not
// keep (LookupTTL < 0) serves one decision and skips both.
func (s *snapshot) keep(local string) {
	s.legs = s.plan(local)
	s.sum = digest(s.regs)
	s.digest = DigestHash(strconv.FormatUint(s.sum, 16))
	s.kept = true
}

// republishers is the set of republisher endpoints s lists.
func (s *snapshot) republishers() map[string]bool {
	live := make(map[string]bool)
	for _, reg := range s.regs {
		if reg.Role == RoleRepublisher {
			live[reg.Endpoint] = true
		}
	}
	return live
}

// find returns the member named name, whatever its role.
func (s *snapshot) find(name string) (Registration, bool) {
	i, ok := slices.BinarySearchFunc(s.regs, name, func(reg Registration, name string) int {
		return strings.Compare(reg.Name, name)
	})
	if !ok {
		return Registration{}, false
	}
	return s.regs[i], true
}

// sites lists the site-role members other than local, in name order.
func (s *snapshot) sites(local string) []string {
	sites := make([]string, 0, len(s.regs))
	for _, reg := range s.regs {
		if reg.Role == RoleSite && reg.Name != local {
			sites = append(sites, reg.Name)
		}
	}
	return sites
}

// Router routes remote-site queries via the GMA directory; it implements
// core.GlobalRouter. It routes from one TTL'd copy of the directory with
// stale-on-error semantics, keeps a circuit breaker per remote endpoint,
// retries with backoff, and — when republishers are registered — routes
// site queries through the owning republisher (consistent hash) with
// fall-through to the site itself.
type Router struct {
	dir  DirectoryService
	exec ExecContext
	// local is the local site name, excluded from Sites().
	local string
	cfg   Config
	clock func() time.Time

	mu sync.Mutex
	// snap is the one copy of the directory: nil until the first list,
	// and always nil when LookupTTL < 0.
	snap     *snapshot
	breakers map[string]*breaker.Breaker // by endpoint
	// held are the republishers' latest answers, revalidated by call.
	held heldAnswers
	// watches are the version watches, by republisher endpoint; closed is
	// set by Close, after which none starts. watching counts their loops.
	watches  map[string]*versionWatch
	closed   bool
	watching sync.WaitGroup

	remoteQueries, remoteFailures, remoteRetries atomic.Int64
	breakerOpens, breakerSkipped                 atomic.Int64
	lookupHits, staleLookups                     atomic.Int64
	repubRoutes, repubFallthroughs               atomic.Int64
	notModified, watchConfirmed, regionLegs      atomic.Int64
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
		cfg.RetryBackoff = retry.DefaultBase
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	return &Router{
		dir: dir, exec: exec, local: local, cfg: cfg, clock: clock,
		breakers: make(map[string]*breaker.Breaker),
	}
}

// Stats returns the router's counters.
func (r *Router) Stats() Stats {
	return Stats{
		RemoteQueries:        r.remoteQueries.Load(),
		RemoteFailures:       r.remoteFailures.Load(),
		RemoteRetries:        r.remoteRetries.Load(),
		RemoteBreakerOpens:   r.breakerOpens.Load(),
		RemoteBreakerSkipped: r.breakerSkipped.Load(),
		LookupCacheHits:      r.lookupHits.Load(),
		StaleLookups:         r.staleLookups.Load(),
		RepubRoutes:          r.repubRoutes.Load(),
		RepubFallthroughs:    r.repubFallthroughs.Load(),
		NotModified:          r.notModified.Load(),
		WatchConfirmed:       r.watchConfirmed.Load(),
		RegionLegs:           r.regionLegs.Load(),
		LiveWatches:          r.liveWatches(),
	}
}

// RegisterMetrics exports the router's counters and its copy of the
// directory — and, when the directory is a MultiDirectory, replica health
// gauges — into a metrics registry (typically the gateway's, so they
// appear on GET /metrics).
func (r *Router) RegisterMetrics(reg *metrics.Registry) {
	md, multi := r.dir.(*MultiDirectory)
	reg.Collect(func(c *metrics.Collection) {
		st, kept := r.Stats(), r.kept()
		answers, bytes := r.held.size()
		var age, digest, members float64
		if kept != nil {
			age, digest, members = r.clock().Sub(kept.at).Seconds(), float64(kept.digest), float64(len(kept.regs))
		}
		c.Counter("gridrm_remote_queries_total", "Remote gateway queries attempted.", float64(st.RemoteQueries))
		c.Counter("gridrm_remote_failures_total", "Remote gateway queries that failed after retries.", float64(st.RemoteFailures))
		c.Counter("gridrm_remote_retries_total", "Remote query retry attempts performed.", float64(st.RemoteRetries))
		c.Counter("gridrm_remote_breaker_opens_total", "Per-endpoint breaker closed-to-open transitions.", float64(st.RemoteBreakerOpens))
		c.Counter("gridrm_remote_breaker_skipped_total", "Remote queries rejected because the endpoint breaker was open.", float64(st.RemoteBreakerSkipped))
		c.Counter("gridrm_lookup_cache_hits_total", "Member names resolved from a fresh copy of the directory.", float64(st.LookupCacheHits))
		c.Counter("gridrm_stale_lookups_total", "Routing decisions served from an expired copy during a directory outage.", float64(st.StaleLookups))
		c.Counter("gridrm_repub_routes_total", "Site queries routed via the owning republisher.", float64(st.RepubRoutes))
		c.Counter("gridrm_repub_fallthroughs_total", "Republisher-routed queries that fell through to the site gateway.", float64(st.RepubFallthroughs))
		c.Counter("gridrm_remote_not_modified_total", "Republisher answers served from the held answer after a 304 Not Modified.", float64(st.NotModified))
		c.Counter("gridrm_remote_watch_confirmed_total", "Republisher answers served from the held answer with no request, confirmed by a live version watch.", float64(st.WatchConfirmed))
		c.Counter("gridrm_remote_region_legs_total", "Region legs a republisher answered: evaluated, 304 or watch-confirmed.", float64(st.RegionLegs))
		c.Gauge("gridrm_remote_live_watches", "Version watches on republishers that are live.", float64(st.LiveWatches))
		c.Gauge("gridrm_remote_held_answers", "Republisher answers held for revalidation.", float64(answers))
		c.Gauge("gridrm_remote_held_bytes", "Estimated bytes of the republisher answers held for revalidation.", float64(bytes))
		c.Gauge("gridrm_directory_copy_age_seconds", "Seconds since the router last listed the directory (0 with no copy kept).", age)
		c.Gauge("gridrm_directory_copy_digest", "32-bit hash of the digest of the router's copy of the directory (0 with no copy kept); members whose gauges differ disagree about the ring.", digest)
		c.Gauge("gridrm_directory_copy_members", "Registrations in the router's copy of the directory.", members)
		if !multi {
			return
		}
		replicas, healthy := md.ReplicaHealth(), 0
		for _, h := range replicas {
			if h.Healthy {
				healthy++
			}
		}
		c.Gauge("gridrm_directory_replicas_healthy", "Directory replicas whose last operation succeeded.", float64(healthy))
		c.Gauge("gridrm_directory_replicas", "Directory replicas configured.", float64(len(replicas)))
	})
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

// kept returns the copy of the directory the router holds (nil if none).
func (r *Router) kept() *snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snap
}

// read returns the snapshot one routing decision uses: the kept copy
// while it is younger than LookupTTL (cached), else a fresh ListContext.
// A list with the kept copy's digest (a 304 from an HTTP directory) renews
// the copy: its plan, ring and held answers stay, and only its age
// restarts. When every directory replica is unreachable it serves the kept
// copy stale, so a warm router outlives a full directory outage.
func (r *Router) read(ctx context.Context) (s *snapshot, cached bool, err error) {
	now := r.clock()
	kept := r.kept()
	if kept != nil && !kept.expired && now.Sub(kept.at) <= r.cfg.LookupTTL {
		return kept, true, nil
	}
	regs, err := r.dir.ListContext(ctx)
	if err != nil {
		if kept != nil {
			r.staleLookups.Add(1)
			return kept, false, nil
		}
		return nil, false, fmt.Errorf("gma: directory list: %w", err)
	}
	if kept != nil && digest(regs) == kept.sum {
		renewed := *kept
		renewed.at, renewed.expired = now, false
		r.mu.Lock()
		r.snap = &renewed
		r.mu.Unlock()
		return &renewed, false, nil
	}
	s = newSnapshot(regs, now)
	live := s.republishers()
	r.held.retain(live)
	r.unwatch(live)
	if r.cfg.LookupTTL > 0 {
		s.keep(r.local)
		r.mu.Lock()
		r.snap = s
		r.mu.Unlock()
	}
	return s, false, nil
}

// expire marks s expired if it is still the kept copy, so the next
// decision lists the directory again. The copy stays kept: stale-on-error
// still has it to serve if the directory is down too.
func (r *Router) expire(s *snapshot) {
	r.mu.Lock()
	if r.snap == s {
		expired := *s
		expired.expired = true
		r.snap = &expired
	}
	r.mu.Unlock()
}

// resolve finds the member named name in the snapshot a decision uses,
// counting a cache hit when that snapshot was cached. A cached snapshot
// that lacks the name is listed again once, so a member that registered
// since is routable at once; a freshly listed or stale one that lacks it
// is authoritative.
func (r *Router) resolve(ctx context.Context, name string) (*snapshot, Registration, bool, error) {
	s, cached, err := r.read(ctx)
	if err != nil {
		return nil, Registration{}, false, err
	}
	reg, ok := s.find(name)
	if !ok && cached {
		r.expire(s)
		if s, cached, err = r.read(ctx); err != nil {
			return nil, Registration{}, false, err
		}
		reg, ok = s.find(name)
	}
	if !ok {
		return nil, Registration{}, false, fmt.Errorf("gma: no producer registered for site %q", name)
	}
	if cached {
		r.lookupHits.Add(1)
	}
	return s, reg, cached, nil
}

// routeViaRepublisher reports whether a query for target may be served by
// its owning republisher: cached-mode reads of a site's data. Real-time
// and historical queries always go to the site itself — a republisher
// serves its merged cached view, not the site's agents or history.
func routeViaRepublisher(target Registration, req core.QueryOptions) bool {
	return target.Role == RoleSite && req.Mode == core.ModeCached
}

// RemoteQueryContext implements core.GlobalRouter: resolution against
// the router's copy of the directory, republisher-first routing for
// cached site reads, per-endpoint breaker admission, the remote call, and
// retries with backoff — all bounded by ctx. The target and its owning
// republisher come from one snapshot. When the request is being traced
// the hop is recorded as a "remote-query" span; the HTTP exec propagates
// the trace context to the remote gateway and stitches its returned spans
// into the local trace.
//
// A failed attempt expires the snapshot before the retry, so a site
// re-registered at a new endpoint is re-resolved immediately rather than
// being unroutable for a full lookup TTL.
func (r *Router) RemoteQueryContext(ctx context.Context, site string, req core.QueryOptions) (*core.Response, error) {
	ctx, sp := trace.StartSpan(ctx, "remote-query")
	if sp.Recording() {
		sp.SetAttr("site", site)
		defer sp.End()
	}
	s, p, cached, err := r.resolve(ctx, site)
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	sp.SetAttr("endpoint", p.Endpoint)
	r.remoteQueries.Add(1)

	// Republisher-first: cached reads of an owned site are answered by
	// the owning republisher's merged view; any failure falls through to
	// the site's own gateway below, where breakers and retries apply.
	if routeViaRepublisher(p, req) {
		if owner, ok := s.find(s.ring.Owner(site)); ok {
			if cached {
				r.lookupHits.Add(1)
			}
			if resp, ok := r.tryRepublisher(ctx, s, owner, req, sp); ok {
				return resp, nil
			}
		}
	}

	backoff := retry.Backoff{Base: r.cfg.RetryBackoff, Max: core.MaxRetryBackoff}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// Re-resolve: the previous attempt expired the snapshot, so a
			// re-registered endpoint is picked up here.
			if ns, np, _, err := r.resolve(ctx, site); err == nil {
				if np.Endpoint != p.Endpoint {
					sp.SetAttr("endpoint", np.Endpoint)
				}
				s, p = ns, np
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
		resp, err := r.call(ctx, p, req, sp)
		if err == nil {
			br.OnSuccess()
			if p.Role == RoleRepublisher {
				r.regionLegs.Add(1)
			}
			return resp, nil
		}
		lastErr = err
		if br.OnFailure(r.clock()) {
			r.breakerOpens.Add(1)
		}
		r.expire(s)
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
// republisher, resolved from snapshot s. It is a single attempt through
// the republisher endpoint's breaker: the direct-to-site path behind it
// provides the retry budget, so a dead republisher costs one failed round
// trip (and after its breaker opens, nothing).
func (r *Router) tryRepublisher(ctx context.Context, s *snapshot, owner Registration, req core.QueryOptions, sp trace.Span) (*core.Response, bool) {
	br := r.endpointBreaker(owner.Endpoint)
	if !br.Allow(r.clock()) {
		r.breakerSkipped.Add(1)
		r.repubFallthroughs.Add(1)
		return nil, false
	}
	r.repubRoutes.Add(1)
	sp.SetAttr("republisher", owner.Name)
	resp, err := r.call(ctx, owner, req, sp)
	if err == nil {
		br.OnSuccess()
		return resp, true
	}
	if br.OnFailure(r.clock()) {
		r.breakerOpens.Add(1)
	}
	r.expire(s)
	r.repubFallthroughs.Add(1)
	return nil, false
}

// Sites lists the names of registered site-role members, excluding the
// local site, for the servlet's /sites. It reads the router's copy of the
// directory, so it is served stale when the directory is unreachable and
// all-sites fan-out keeps working through an outage.
func (r *Router) Sites() []string {
	s, _, err := r.read(context.Background())
	if err != nil {
		return nil
	}
	return s.sites(r.local)
}

// FanoutPlan implements core.GlobalRouter: it turns the all-sites
// fan-out into a tree. With republishers registered, each one's ring
// shard becomes one leg targeting it (the republisher answers from its
// merged region view); with none, every site gets a direct leg. The ring
// and the sites come from one snapshot, so every site has a registered
// owner and is covered exactly once. The entry gateway's fan-out degree
// becomes O(republishers), not O(sites); a failed republisher leg is
// re-expanded by the caller into direct legs for the sites it covered.
//
// The plan is made once per kept copy of the directory, so every call on a
// kept copy returns the same legs: callers read them, and their Covers, and
// never write to either. A router that keeps no copy plans each call.
func (r *Router) FanoutPlan(ctx context.Context) ([]core.FanoutLeg, error) {
	s, _, err := r.read(ctx)
	if err != nil {
		return nil, err
	}
	if !s.kept {
		return s.plan(r.local), nil
	}
	return s.legs, nil
}

// plan computes the fan-out plan over s for the gateway named local.
func (s *snapshot) plan(local string) []core.FanoutLeg {
	sites := s.sites(local)
	if s.ring.Empty() {
		legs := make([]core.FanoutLeg, len(sites))
		for i, site := range sites {
			legs[i] = core.FanoutLeg{Target: site}
		}
		return legs
	}
	assign := s.ring.Assign(sites)
	var legs []core.FanoutLeg
	for _, reg := range s.regs {
		if covered := assign[reg.Name]; len(covered) > 0 {
			legs = append(legs, core.FanoutLeg{Target: reg.Name, Republisher: true, Covers: covered})
		}
	}
	return legs
}

var _ core.GlobalRouter = (*Router)(nil)
