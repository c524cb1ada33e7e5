package repub

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/gma"
	"gridrm/internal/metrics"
	"gridrm/internal/resultset"
	"gridrm/internal/retry"
	"gridrm/internal/sqlparse"
	"gridrm/internal/web"
)

// A feed's streams ask the child for heartbeats, and a stream silent for
// the idle timeout is given up as dead.
const (
	feedHeartbeat   = 5 * time.Second
	feedIdleTimeout = 3 * feedHeartbeat
)

// QueryFunc runs one query against a child site, for scrapes and the
// scrape fallback. The default resolves the site through the directory and
// uses the servlet interface (web.RemoteQueryContext).
type QueryFunc func(ctx context.Context, site string, req core.QueryOptions) (*core.Response, error)

// Options configures a republisher gateway.
type Options struct {
	// Name is the republisher's directory name (required).
	Name string
	// Endpoint is the advertised base URL of Handler (required when the
	// republisher registers itself).
	Endpoint string
	// Directory is the registry shared with the sites (required).
	Directory gma.DirectoryService
	// Query overrides how sites are scraped (tests).
	Query QueryFunc
	// RefreshInterval bounds how long the republisher goes without
	// re-reading the directory and re-registering (default 2s). A change
	// of membership is acted on at once, not at the interval.
	RefreshInterval time.Duration
	// ScrapeInterval is the re-scrape cadence for sites whose feed is down
	// (default 5s).
	ScrapeInterval time.Duration
	// Clock is a time source for tests.
	Clock func() time.Time
}

// Stats is a snapshot of the republisher's counters.
type Stats struct {
	// RegionQueries counts queries answered from the merged region view.
	RegionQueries int64 `json:"regionQueries"`
	// SiteQueries counts queries answered for one owned site.
	SiteQueries int64 `json:"siteQueries"`
	// NotOwned counts queries refused because the site is not owned.
	NotOwned int64 `json:"notOwned"`
	// NotModified counts region and site queries answered 304: the
	// caller's validator was still current, so nothing was evaluated.
	NotModified int64 `json:"notModified"`
	// Scrapes and ScrapeErrors count child-site scrape attempts.
	Scrapes      int64 `json:"scrapes"`
	ScrapeErrors int64 `json:"scrapeErrors"`
	// LiveRows counts rows applied from feeds.
	LiveRows int64 `json:"liveRows"`
	// Subscriptions counts feeds opened and seeded; SubscribeFallbacks
	// counts feeds that would not open, each followed by a scrape and a
	// ScrapeInterval.
	Subscriptions      int64 `json:"subscriptions"`
	SubscribeFallbacks int64 `json:"subscribeFallbacks"`
	// Rebalances counts refresh cycles that changed the owned-site set.
	Rebalances int64 `json:"rebalances"`
	// MembershipChanges counts directory watches that returned because
	// the membership changed, not because RefreshInterval passed.
	MembershipChanges int64 `json:"membershipChanges"`
	// RefreshErrors counts failed directory watches and registrations.
	RefreshErrors int64 `json:"refreshErrors"`
	// StoredRows is the current row count across every view.
	StoredRows int `json:"storedRows"`
}

// Gateway is a running republisher: it watches the directory, owns its
// shard of the consistent-hash ring, mirrors the owned sites' rows, and
// answers region and per-site queries from the merged view.
type Gateway struct {
	opts  Options
	store *Store
	plans *sqlparse.PlanCache
	// epoch is drawn at New, so a restarted republisher never matches a
	// validator its predecessor handed out.
	epoch   uint64
	metrics *metrics.Registry

	mu sync.Mutex
	// owns is replaced whole, never written in place, so a reader may keep
	// the slice it read under mu. ownsGen counts the replacements.
	owns       []string
	ownsGen    uint64
	membership Membership
	workers    map[string]*siteWorker
	started    bool
	cancel     context.CancelFunc
	runCtx     context.Context
	wg         sync.WaitGroup

	regionQueries      atomic.Int64
	siteQueries        atomic.Int64
	notOwned           atomic.Int64
	notModified        atomic.Int64
	scrapes            atomic.Int64
	scrapeErrors       atomic.Int64
	liveRows           atomic.Int64
	subscriptions      atomic.Int64
	subscribeFallbacks atomic.Int64
	rebalances         atomic.Int64
	membershipChanges  atomic.Int64
	refreshErrors      atomic.Int64
}

// Membership is the directory membership the owned shard was computed
// from, for /status. Republishers on one directory that show different
// digests disagree about the ring.
type Membership struct {
	// Digest is gma.Digest of the directory's records.
	Digest string `json:"digest"`
	// Members counts the records, of every role.
	Members int `json:"members"`
	// ChangedAt is when the republisher last saw the digest change.
	ChangedAt time.Time `json:"changedAt"`
}

type siteWorker struct {
	site   string
	groups []string // mirrored: the site's registered ones
	cancel context.CancelFunc
	done   chan struct{}
	// What /status shows: whether the feed is open, the site's seq of the
	// row it applied last, and the view's newest update (unix ns).
	streaming atomic.Bool
	applied   atomic.Uint64
	updated   atomic.Int64
}

// New builds a republisher gateway. Start launches its loops.
func New(opts Options) (*Gateway, error) {
	if opts.Name == "" {
		return nil, fmt.Errorf("repub: Options.Name is required")
	}
	if opts.Directory == nil {
		return nil, fmt.Errorf("repub: Options.Directory is required")
	}
	if opts.RefreshInterval <= 0 {
		opts.RefreshInterval = 2 * time.Second
	}
	if opts.ScrapeInterval <= 0 {
		opts.ScrapeInterval = 5 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	g := &Gateway{
		opts:    opts,
		store:   NewStore(),
		plans:   sqlparse.NewPlanCache(512), // the site gateways' size: entries send the same few texts
		epoch:   rand.Uint64(),
		metrics: metrics.NewRegistry(),
		workers: make(map[string]*siteWorker),
	}
	if g.opts.Query == nil {
		g.opts.Query = g.directoryQuery
	}
	g.registerMetrics()
	return g, nil
}

// registerMetrics exports Stats on the republisher's GET /metrics. A
// counter field Foo is gridrm_repub_foo_total and the one gauge, StoredRows,
// is gridrm_repub_stored_rows. Beside them, gridrm_directory_copy_digest is
// gma.DigestHash of Membership's digest, the gauge the entry router exports
// for its own copy, so members whose gauges differ disagree about the ring.
func (g *Gateway) registerMetrics() {
	for _, c := range []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"region_queries", "Queries answered from the merged region view.", &g.regionQueries},
		{"site_queries", "Queries answered for one owned site.", &g.siteQueries},
		{"not_owned", "Queries refused because a site they name is not owned.", &g.notOwned},
		{"not_modified", "Queries answered 304 Not Modified: the caller's validator was current.", &g.notModified},
		{"scrapes", "Child-site scrape attempts.", &g.scrapes},
		{"scrape_errors", "Child-site scrapes that failed.", &g.scrapeErrors},
		{"live_rows", "Rows applied from feeds.", &g.liveRows},
		{"subscriptions", "Feeds opened and seeded.", &g.subscriptions},
		{"subscribe_fallbacks", "Feeds that would not open, each followed by a scrape.", &g.subscribeFallbacks},
		{"rebalances", "Refresh cycles that changed the owned-site set.", &g.rebalances},
		{"membership_changes", "Directory watches that returned on a membership change.", &g.membershipChanges},
		{"refresh_errors", "Failed directory watches and registrations.", &g.refreshErrors},
	} {
		g.metrics.CounterFunc("gridrm_repub_"+c.name+"_total", c.help, c.v.Load)
	}
	g.metrics.GaugeFunc("gridrm_repub_stored_rows", "Rows held across every view.",
		func() float64 { return float64(g.store.Rows()) })
	g.metrics.GaugeFunc("gridrm_directory_copy_digest", "32-bit hash of the digest of the directory membership the owned shard rests on (0 before the first refresh).",
		func() float64 {
			if d := g.Membership().Digest; d != "" {
				return float64(gma.DigestHash(d))
			}
			return 0
		})
}

// Metrics returns the republisher's metrics registry (served by GET /metrics).
func (g *Gateway) Metrics() *metrics.Registry { return g.metrics }

// Name returns the republisher's directory name.
func (g *Gateway) Name() string { return g.opts.Name }

// Owns snapshots the currently owned sites, sorted.
func (g *Gateway) Owns() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.owns...)
}

// Stats snapshots the counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		RegionQueries:      g.regionQueries.Load(),
		SiteQueries:        g.siteQueries.Load(),
		NotOwned:           g.notOwned.Load(),
		NotModified:        g.notModified.Load(),
		Scrapes:            g.scrapes.Load(),
		ScrapeErrors:       g.scrapeErrors.Load(),
		LiveRows:           g.liveRows.Load(),
		Subscriptions:      g.subscriptions.Load(),
		SubscribeFallbacks: g.subscribeFallbacks.Load(),
		Rebalances:         g.rebalances.Load(),
		MembershipChanges:  g.membershipChanges.Load(),
		RefreshErrors:      g.refreshErrors.Load(),
		StoredRows:         g.store.Rows(),
	}
}

// Membership snapshots the membership the owned shard rests on.
func (g *Gateway) Membership() Membership {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.membership
}

// Feed is how one owned site's view is kept, for /status: Mode is "stream"
// while the site's /subscribe streams are open and "scrape" while the view
// rests on scrapes; AgeSeconds is how long ago the view last changed (0
// while it is empty); LastSeq is the site's seq of the row the feed applied
// last.
type Feed struct {
	Site       string  `json:"site"`
	Mode       string  `json:"mode"`
	AgeSeconds float64 `json:"ageSeconds"`
	LastSeq    uint64  `json:"lastSeq"`
}

// Feeds reports how each owned site's view is kept, in site order.
func (g *Gateway) Feeds() []Feed {
	now := g.opts.Clock()
	g.mu.Lock()
	defer g.mu.Unlock()
	feeds := make([]Feed, 0, len(g.owns))
	for _, site := range g.owns {
		if w := g.workers[site]; w != nil {
			f := Feed{Site: site, Mode: "scrape", LastSeq: w.applied.Load()}
			if w.streaming.Load() {
				f.Mode = "stream"
			}
			if at := w.updated.Load(); at != 0 {
				f.AgeSeconds = now.Sub(time.Unix(0, at)).Seconds()
			}
			feeds = append(feeds, f)
		}
	}
	return feeds
}

// Start begins the watch loop: watch the directory, rebuild the ring,
// reconcile site workers, and keep the republisher's own registration
// (role, Owns) current. An immediate first refresh runs before Start
// returns, so tests and single-shot tools see a settled ownership set.
func (g *Gateway) Start(ctx context.Context) error {
	g.mu.Lock()
	if g.started {
		g.mu.Unlock()
		return fmt.Errorf("repub: %s already started", g.opts.Name)
	}
	g.started = true
	g.runCtx, g.cancel = context.WithCancel(ctx)
	g.mu.Unlock()
	seen, _ := g.refresh(g.runCtx, "")
	g.wg.Add(1)
	go g.watch(seen)
	return nil
}

// Stop halts the loops, stops every site worker, and withdraws the
// republisher's registration so entry gateways replan without it.
func (g *Gateway) Stop(ctx context.Context) {
	g.mu.Lock()
	if !g.started {
		g.mu.Unlock()
		return
	}
	g.started = false
	cancel := g.cancel
	workers := g.workers
	g.workers = make(map[string]*siteWorker)
	g.owns = nil
	g.ownsGen++
	g.mu.Unlock()
	cancel()
	for _, w := range workers {
		<-w.done
	}
	g.wg.Wait()
	_ = g.opts.Directory.DeregisterContext(ctx, g.opts.Name)
}

// Halt stops the loops and workers WITHOUT deregistering — the crash
// path. The stale registration stays in the directory, which is exactly
// the failure the entry gateway's fall-through and the router's breakers
// must absorb; the chaos harness uses this to kill a republisher.
func (g *Gateway) Halt() {
	g.mu.Lock()
	if !g.started {
		g.mu.Unlock()
		return
	}
	g.started = false
	cancel := g.cancel
	workers := g.workers
	g.workers = make(map[string]*siteWorker)
	g.mu.Unlock()
	cancel()
	for _, w := range workers {
		<-w.done
	}
	g.wg.Wait()
}

// watch refreshes until the republisher stops. Each refresh waits on the
// directory for a membership other than seen, or for RefreshInterval; a
// failed one waits out RefreshInterval, so a dead directory cannot spin
// the loop.
func (g *Gateway) watch(seen string) {
	defer g.wg.Done()
	for g.runCtx.Err() == nil {
		var ok bool
		if seen, ok = g.refresh(g.runCtx, seen); !ok {
			_ = retry.Sleep(g.runCtx, g.opts.RefreshInterval)
		}
	}
}

// refresh runs one directory cycle: watch the directory from the digest
// seen ("" returns at once), build the ring over every registered
// republisher (self included), recompute the owned shard, reconcile
// workers, and (re)register self with the current Owns. It returns the
// digest the shard now rests on; ok is false when the watch failed.
func (g *Gateway) refresh(ctx context.Context, seen string) (digest string, ok bool) {
	regs, err := g.opts.Directory.WatchContext(ctx, seen, g.opts.RefreshInterval)
	if err != nil {
		if ctx.Err() == nil {
			g.refreshErrors.Add(1)
		}
		return seen, false
	}
	if digest = gma.Digest(regs); digest != seen {
		if seen != "" {
			g.membershipChanges.Add(1)
		}
		g.mu.Lock()
		g.membership = Membership{Digest: digest, Members: len(regs), ChangedAt: g.opts.Clock()}
		g.mu.Unlock()
	}
	if err := g.rebalance(ctx, regs); err != nil && ctx.Err() == nil {
		g.refreshErrors.Add(1)
	}
	return digest, true
}

// rebalance moves the owned shard to what regs place on this republisher.
// A worker stops when its site is shed or re-registers with other groups,
// and its view goes with it; every owned site without a worker gets a
// fresh one, seeded by a scrape of the groups the site now registers.
func (g *Gateway) rebalance(ctx context.Context, regs []gma.Registration) error {
	var republishers, sites []string
	groups := make(map[string][]string)
	self := false
	for _, r := range regs {
		switch r.Role {
		case gma.RoleRepublisher:
			republishers = append(republishers, r.Name)
			if r.Name == g.opts.Name {
				self = true
			}
		case gma.RoleSite:
			sites = append(sites, r.Name)
			groups[r.Name] = r.Groups
		}
	}
	if !self {
		republishers = append(republishers, g.opts.Name)
	}
	ring := gma.NewRing(republishers, gma.DefaultVNodes)
	var owns []string
	for _, site := range sites {
		if ring.Owner(site) == g.opts.Name {
			owns = append(owns, site)
		}
	}
	sort.Strings(owns)

	g.mu.Lock()
	if !g.started {
		g.mu.Unlock()
		return nil
	}
	changed := !slices.Equal(owns, g.owns)
	if changed {
		g.owns = owns
		g.ownsGen++
	}
	var stopped []*siteWorker
	ownSet := make(map[string]bool, len(owns))
	for _, s := range owns {
		ownSet[s] = true
	}
	for site, w := range g.workers {
		if !ownSet[site] || !slices.Equal(w.groups, mirrored(groups[site])) {
			w.cancel()
			stopped = append(stopped, w)
			delete(g.workers, site)
		}
	}
	g.mu.Unlock()
	// A stopped worker's last write lands before its view is dropped, and
	// its successor starts on an empty view.
	for _, w := range stopped {
		<-w.done
		g.store.RemoveSite(w.site)
	}
	g.mu.Lock()
	for _, site := range owns {
		if _, ok := g.workers[site]; !ok && g.started {
			wctx, cancel := context.WithCancel(g.runCtx)
			w := &siteWorker{site: site, groups: mirrored(groups[site]), cancel: cancel, done: make(chan struct{})}
			g.workers[site] = w
			go g.runSite(wctx, w)
		}
	}
	g.mu.Unlock()
	if changed {
		g.rebalances.Add(1)
	}
	return g.register(ctx, owns)
}

// register advertises (or re-advertises) the republisher with its current
// shard. Owns changes do not bump Generation — the entry router rebuilds
// its ring from membership, not Owns — but a changed Endpoint does; the
// entry router routes to the new Endpoint from its next directory list.
func (g *Gateway) register(ctx context.Context, owns []string) error {
	if g.opts.Endpoint == "" {
		return nil
	}
	return g.opts.Directory.RegisterContext(ctx, gma.Registration{
		Name:     g.opts.Name,
		Endpoint: g.opts.Endpoint,
		Role:     gma.RoleRepublisher,
		Owns:     owns,
	})
}

// mirrored is what the republisher mirrors of a site that registered
// groups: those, else every GLUE group.
func mirrored(groups []string) []string {
	if len(groups) > 0 {
		return groups
	}
	return glue.GroupNames()
}

// runSite mirrors one owned site until ctx ends by its feed (follow). Any end
// of a feed — a cut, a gap, an eviction, a child restarted behind the same
// URL — ends it, and a fresh feed is seeded by a scrape. While the site's
// feed will not open, scrapes on ScrapeInterval stand in for it.
func (g *Gateway) runSite(ctx context.Context, w *siteWorker) {
	defer close(w.done)
	for ctx.Err() == nil {
		if g.follow(ctx, w) || ctx.Err() != nil {
			continue
		}
		g.subscribeFallbacks.Add(1)
		g.scrapeSite(ctx, w)
		if retry.Sleep(ctx, g.opts.ScrapeInterval) != nil {
			return
		}
	}
}

// scrapeSite pulls a full snapshot of every mirrored group from the site
// and reports whether it is complete: every group answered and no source
// behind an answer failed without contributing rows. Partial answers are
// installed all the same — a short view beats an empty one.
func (g *Gateway) scrapeSite(ctx context.Context, w *siteWorker) bool {
	complete := true
	for _, group := range w.groups {
		sctx, cancel := context.WithTimeout(ctx, g.opts.ScrapeInterval)
		resp, err := g.opts.Query(sctx, w.site, core.QueryOptions{
			SQL:  "SELECT * FROM " + group,
			Site: w.site,
		})
		cancel()
		g.scrapes.Add(1)
		if err != nil {
			g.scrapeErrors.Add(1)
			complete = false
			continue
		}
		for _, st := range resp.Sources {
			if st.Err != "" && st.Rows == 0 {
				complete = false
			}
		}
		now := g.opts.Clock()
		g.store.SetSnapshot(w.site, group, resp.ResultSet, now)
		w.updated.Store(now.UnixNano())
	}
	return complete
}

// follow opens the site's feed, a fresh /subscribe stream a group seeded by a
// complete scrape, and applies its rows until a stream ends or the site says
// rows were lost. opened is false when a stream would not open.
func (g *Gateway) follow(ctx context.Context, w *siteWorker) (opened bool) {
	endpoint, err := g.endpoint(ctx, w.site)
	if err != nil {
		return false
	}
	c := web.Client{BaseURL: endpoint}
	feed, end := context.WithCancel(ctx) // ends every stream of the feed
	defer end()
	hung := time.AfterFunc(feedIdleTimeout, end) // a child that takes the requests and never answers them
	streams := make([]*web.ClientSubscription, len(w.groups))
	for i, group := range w.groups {
		q := core.QueryOptions{SQL: "SELECT * FROM " + group}
		if streams[i], err = c.SubscribeContext(feed, web.SubscribeConfig{Query: q, Heartbeat: feedHeartbeat, IdleTimeout: feedIdleTimeout}); err != nil {
			return false
		}
	}
	hung.Stop()
	// The feed is seeded once its streams are open: a row the site publishes
	// meanwhile waits in its stream and lands on the seed. An incomplete
	// scrape is repeated after ScrapeInterval, for live rows update what the
	// view holds and never supply rows a scrape missed.
	for !g.scrapeSite(feed, w) {
		if retry.Sleep(feed, g.opts.ScrapeInterval) != nil {
			return true
		}
	}
	g.subscriptions.Add(1)
	w.streaming.Store(true)
	defer w.streaming.Store(false)
	var applying sync.WaitGroup
	for _, cs := range streams {
		applying.Add(1)
		go func() {
			defer applying.Done()
			defer end() // the feed ends with its first stream
			g.apply(w, cs)
		}()
	}
	applying.Wait()
	return true
}

// apply upserts one stream's rows into the site's view until the stream ends
// or the site says rows were lost. A gap notice ends no stream, and the site
// writes one in the same burst as the row after it: apply looks for one after
// every row.
func (g *Gateway) apply(w *siteWorker, cs *web.ClientSubscription) {
	for !lost(cs) {
		select {
		case m := <-cs.C():
			g.store.Upsert(w.site, m.Group, m.Source, m.Columns, m.Row, m.Time)
			g.liveRows.Add(1)
			w.applied.Store(m.Seq)
			w.updated.Store(g.opts.Clock().UnixNano())
		case <-cs.Done():
			return
		}
	}
}

// lost reports whether the site told the stream that rows are gone: a gap
// notice or an eviction.
func lost(cs *web.ClientSubscription) bool { return cs.Gaps() > 0 || cs.Evicted() }

// endpoint resolves a child site's servlet in the directory, for its scrapes
// and its feed alike.
func (g *Gateway) endpoint(ctx context.Context, site string) (string, error) {
	reg, ok, err := g.opts.Directory.LookupContext(ctx, site)
	if err != nil {
		return "", err
	}
	if !ok {
		return "", fmt.Errorf("repub: site %q not in directory", site)
	}
	return reg.Endpoint, nil
}

// directoryQuery is the default QueryFunc: the site's servlet answers.
func (g *Gateway) directoryQuery(ctx context.Context, site string, req core.QueryOptions) (*core.Response, error) {
	endpoint, err := g.endpoint(ctx, site)
	if err != nil {
		return nil, err
	}
	return web.RemoteQueryContext(ctx, endpoint, req)
}

// QueryContext answers a query from the merged view. Scope comes from
// req.Site: the republisher's own name (or empty, or the all-sites
// wildcard) selects the whole region — every owned site — while an owned
// site's name selects just that slice. A site this republisher does not
// own is an error, which is the signal the entry gateway uses to degrade
// to direct legs after a rebalance. Historical queries are refused: the
// view holds latest rows only, and the refusal routes the query to the
// site's own history store.
//
// Every answer carries a validator. A request that brings back the current
// one is answered NotModified once its scope has been checked, before
// anything is evaluated.
func (g *Gateway) QueryContext(ctx context.Context, req core.QueryOptions) (*core.Response, error) {
	start := g.opts.Clock()
	if req.Mode == core.ModeHistorical {
		return nil, fmt.Errorf("repub: historical queries are answered by sites, not republishers")
	}
	plan, err := g.plans.Plan(req.SQL)
	if err != nil {
		return nil, err
	}
	q := plan.Query
	if _, ok := glue.Lookup(q.Table); !ok {
		return nil, fmt.Errorf("repub: unknown GLUE group %q", q.Table)
	}
	sites, pinned, gen, err := g.cover(req)
	if err != nil {
		return nil, err
	}
	id := requestID(plan.SQL, req.Mode, pinned)
	var vbuf [validatorLen]byte
	if req.Validator != "" && string(g.appendValidator(vbuf[:0], id, gen, g.store.Version(q.Table, sites))) == req.Validator {
		g.notModified.Add(1)
		return &core.Response{NotModified: true, Validator: req.Validator}, nil
	}
	meta, parts, fresh, version := g.store.Parts(q.Table, sites)
	if meta == nil {
		group, _ := glue.Lookup(q.Table)
		if meta, err = resultset.MetadataForGroup(group, nil); err != nil {
			return nil, err
		}
	}
	out, err := sqlparse.ApplyToParts(q, meta, parts)
	if err != nil {
		return nil, err
	}
	statuses := make([]core.SourceStatus, 0, len(fresh))
	for _, f := range fresh {
		statuses = append(statuses, core.SourceStatus{
			Source:      "repub-view:" + f.Site,
			Cached:      !f.Live,
			HarvestedAt: f.At,
			Rows:        f.Rows,
		})
	}
	return &core.Response{
		Site:      g.opts.Name,
		SQL:       plan.SQL,
		Mode:      req.Mode,
		ResultSet: out,
		Sources:   statuses,
		Elapsed:   g.opts.Clock().Sub(start),
		Validator: string(g.appendValidator(vbuf[:0], id, gen, version)),
	}, nil
}

// cover returns the sites a query covers, the sites it pinned itself (a
// site, or a region; none for the whole owned shard), and the generation of
// the owned shard it read them at, counting the query as a region or a site
// query, or refuses a scope that is not this republisher's to answer.
func (g *Gateway) cover(req core.QueryOptions) (sites, pinned []string, gen uint64, err error) {
	g.mu.Lock()
	owns := g.owns // sorted
	gen = g.ownsGen
	g.mu.Unlock()
	switch req.Site {
	case "", g.opts.Name, core.AllSites:
		if len(req.Region) > 0 {
			// The caller pinned the region: answer exactly those sites, and
			// refuse when the shard has drifted from the caller's plan or
			// the region names a site twice — a wrong-coverage answer would
			// silently double- or under-count.
			var buf [64]bool
			seen := buf[:]
			if len(owns) > len(buf) {
				seen = make([]bool, len(owns))
			}
			for _, s := range req.Region {
				i, ok := slices.BinarySearch(owns, s)
				if !ok {
					g.notOwned.Add(1)
					return nil, nil, 0, fmt.Errorf("repub: %s does not own site %q", g.opts.Name, s)
				}
				if seen[i] {
					return nil, nil, 0, fmt.Errorf("repub: region names site %q twice", s)
				}
				seen[i] = true
			}
			g.regionQueries.Add(1)
			return req.Region, req.Region, gen, nil
		}
		g.regionQueries.Add(1)
		return owns, nil, gen, nil
	}
	if _, ok := slices.BinarySearch(owns, req.Site); !ok {
		g.notOwned.Add(1)
		return nil, nil, 0, fmt.Errorf("repub: %s does not own site %q", g.opts.Name, req.Site)
	}
	g.siteQueries.Add(1)
	sites = []string{req.Site}
	return sites, sites, gen, nil
}

// validatorLen is a validator's fixed length: four values of 16 hex digits.
const validatorLen = 64

// appendValidator appends the validator of the answer to request id over
// views at version v, read while the owned shard was at generation gen: the
// epoch, id, v's stamp, and v's removals plus gen. Each of the last two only
// grows, so an answer that any update, removal or rebalance since could have
// changed gets a validator it never had; the version is exact, since nothing
// of it is hashed.
func (g *Gateway) appendValidator(buf []byte, id, gen uint64, v Version) []byte {
	const digits = "0123456789abcdef"
	for _, x := range [4]uint64{g.epoch, id, v.Stamp, v.Removals + gen} {
		for shift := 60; shift >= 0; shift -= 4 {
			buf = append(buf, digits[x>>shift&0xF])
		}
	}
	return buf
}

// requestID names the question a request asks, so that a validator matches
// only an answer to the same question: the canonical SQL, which names the
// group; the mode the answer echoes; and the sites the request pinned, in
// order (none for the whole owned shard, which the shard generation
// versions). It is FNV-1a over them, each length-prefixed.
func requestID(sql string, mode core.Mode, pinned []string) uint64 {
	h := hashString(14695981039346656037, sql)
	h = hashByte(h, byte(mode))
	for _, site := range pinned {
		h = hashString(h, site)
	}
	return h
}

func hashString(h uint64, s string) uint64 {
	for n := len(s); n > 0; n >>= 8 {
		h = hashByte(h, byte(n))
	}
	h = hashByte(h, 0xff)
	for i := 0; i < len(s); i++ {
		h = hashByte(h, s[i])
	}
	return h
}

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * 1099511628211 }
