package repub

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/gma"
	"gridrm/internal/resultset"
	"gridrm/internal/retry"
	"gridrm/internal/router"
	"gridrm/internal/sqlparse"
	"gridrm/internal/web"
)

// SubscribeFunc opens a continuous query against a child site. The
// republisher prefers this feed — rows arrive as they are harvested — and
// falls back to periodic scrapes when it is absent or refused.
type SubscribeFunc func(ctx context.Context, site, sql string) (*router.Subscription, error)

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
	// Groups lists the GLUE groups to mirror; default: every group the
	// schema knows.
	Groups []string
	// Subscribe, when set, feeds the view by continuous query.
	Subscribe SubscribeFunc
	// Query overrides how sites are scraped (tests, in-process wiring).
	Query QueryFunc
	// RefreshInterval is the directory poll / rebalance cadence
	// (default 2s).
	RefreshInterval time.Duration
	// ScrapeInterval is the re-scrape cadence for sites without a live
	// subscription (default 5s).
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
	// Scrapes and ScrapeErrors count child-site scrape attempts.
	Scrapes      int64 `json:"scrapes"`
	ScrapeErrors int64 `json:"scrapeErrors"`
	// LiveRows counts rows applied from subscriptions.
	LiveRows int64 `json:"liveRows"`
	// Subscriptions counts successfully established subscription
	// sessions; SubscribeFallbacks counts sessions that fell back to
	// scraping.
	Subscriptions      int64 `json:"subscriptions"`
	SubscribeFallbacks int64 `json:"subscribeFallbacks"`
	// Rebalances counts refresh cycles that changed the owned-site set.
	Rebalances int64 `json:"rebalances"`
	// RefreshErrors counts directory refresh failures.
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

	mu      sync.Mutex
	owns    []string
	workers map[string]*siteWorker
	started bool
	cancel  context.CancelFunc
	runCtx  context.Context
	wg      sync.WaitGroup

	regionQueries      atomic.Int64
	siteQueries        atomic.Int64
	notOwned           atomic.Int64
	scrapes            atomic.Int64
	scrapeErrors       atomic.Int64
	liveRows           atomic.Int64
	subscriptions      atomic.Int64
	subscribeFallbacks atomic.Int64
	rebalances         atomic.Int64
	refreshErrors      atomic.Int64
}

type siteWorker struct {
	cancel context.CancelFunc
	done   chan struct{}
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
	if len(opts.Groups) == 0 {
		opts.Groups = glue.GroupNames()
	}
	g := &Gateway{
		opts:    opts,
		store:   NewStore(),
		plans:   sqlparse.NewPlanCache(512), // the site gateways' size: entries send the same few texts
		workers: make(map[string]*siteWorker),
	}
	if g.opts.Query == nil {
		g.opts.Query = g.directoryQuery
	}
	return g, nil
}

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
		Scrapes:            g.scrapes.Load(),
		ScrapeErrors:       g.scrapeErrors.Load(),
		LiveRows:           g.liveRows.Load(),
		Subscriptions:      g.subscriptions.Load(),
		SubscribeFallbacks: g.subscribeFallbacks.Load(),
		Rebalances:         g.rebalances.Load(),
		RefreshErrors:      g.refreshErrors.Load(),
		StoredRows:         g.store.Rows(),
	}
}

// Start begins the refresh loop: poll the directory, rebuild the ring,
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
	if err := g.Refresh(g.runCtx); err != nil {
		g.refreshErrors.Add(1)
	}
	g.wg.Add(1)
	go g.refreshLoop()
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

func (g *Gateway) refreshLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.opts.RefreshInterval)
	defer t.Stop()
	for {
		select {
		case <-g.runCtx.Done():
			return
		case <-t.C:
			if err := g.Refresh(g.runCtx); err != nil {
				g.refreshErrors.Add(1)
			}
		}
	}
}

// Refresh runs one directory cycle synchronously: list the members, build
// the ring over every registered republisher (self included), recompute
// the owned shard, reconcile workers, and (re)register self with the
// current Owns. Exported so tests and the simulator can force a
// deterministic rebalance.
func (g *Gateway) Refresh(ctx context.Context) error {
	regs, err := g.opts.Directory.ListContext(ctx)
	if err != nil {
		return err
	}
	var republishers, sites []string
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
	changed := !equalStrings(owns, g.owns)
	g.owns = owns
	var stopped []*siteWorker
	ownSet := make(map[string]bool, len(owns))
	for _, s := range owns {
		ownSet[s] = true
	}
	for site, w := range g.workers {
		if !ownSet[site] {
			w.cancel()
			stopped = append(stopped, w)
			delete(g.workers, site)
			g.store.RemoveSite(site)
		}
	}
	for _, site := range owns {
		if _, ok := g.workers[site]; !ok {
			wctx, cancel := context.WithCancel(g.runCtx)
			w := &siteWorker{cancel: cancel, done: make(chan struct{})}
			g.workers[site] = w
			go g.runSite(wctx, site, w.done)
		}
	}
	g.mu.Unlock()
	for _, w := range stopped {
		<-w.done
	}
	if changed {
		g.rebalances.Add(1)
	}
	return g.register(ctx, owns)
}

// register advertises (or re-advertises) the republisher with its current
// shard. Owns changes do not bump Generation — the entry router rebuilds
// its ring from membership, not Owns — but a changed Endpoint does, which
// is what invalidates routed lookups after a republisher moves.
func (g *Gateway) register(ctx context.Context, owns []string) error {
	if g.opts.Endpoint == "" {
		return nil
	}
	return g.opts.Directory.RegisterContext(ctx, gma.Registration{
		Name:     g.opts.Name,
		Endpoint: g.opts.Endpoint,
		Role:     gma.RoleRepublisher,
		Groups:   g.opts.Groups,
		Owns:     owns,
	})
}

// runSite mirrors one owned site until ctx ends: scrape a full snapshot,
// then hold a subscription session (when wired) or re-scrape on a timer.
// The session is entered only on top of a complete snapshot: live rows
// update what the view holds, they never supply rows a partial scrape
// missed, so an incomplete scrape is repeated after ScrapeInterval instead.
func (g *Gateway) runSite(ctx context.Context, site string, done chan struct{}) {
	defer close(done)
	for ctx.Err() == nil {
		complete := g.scrapeSite(ctx, site)
		if complete && g.opts.Subscribe != nil && g.consumeSubscriptions(ctx, site) {
			// The session ended (site restart, eviction): loop around to
			// re-scrape and re-subscribe.
			continue
		}
		if retry.Sleep(ctx, g.opts.ScrapeInterval) != nil {
			return
		}
	}
}

// scrapeSite pulls a full snapshot of every mirrored group from the site
// and reports whether it is complete: every group answered and no source
// behind an answer failed without contributing rows. Partial answers are
// installed all the same — a short view beats an empty one.
func (g *Gateway) scrapeSite(ctx context.Context, site string) bool {
	complete := true
	for _, group := range g.opts.Groups {
		sctx, cancel := context.WithTimeout(ctx, g.opts.ScrapeInterval)
		resp, err := g.opts.Query(sctx, site, core.QueryOptions{
			SQL:  "SELECT * FROM " + group,
			Site: site,
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
		g.store.SetSnapshot(site, group, resp.ResultSet, g.opts.Clock())
	}
	return complete
}

// consumeSubscriptions opens one continuous query per mirrored group and
// feeds the store until any subscription ends or ctx is cancelled. It
// returns false when the session could not be established (caller falls
// back to the scrape timer) and true when an established session ended.
func (g *Gateway) consumeSubscriptions(ctx context.Context, site string) bool {
	subs := make([]*router.Subscription, 0, len(g.opts.Groups))
	for _, group := range g.opts.Groups {
		sub, err := g.opts.Subscribe(ctx, site, "SELECT * FROM "+group)
		if err != nil {
			for _, s := range subs {
				s.Close()
			}
			g.subscribeFallbacks.Add(1)
			return false
		}
		subs = append(subs, sub)
	}
	g.subscriptions.Add(1)
	// One goroutine per feed; the session ends when the first feed does.
	ended := make(chan struct{}, len(subs))
	var wg sync.WaitGroup
	for _, sub := range subs {
		wg.Add(1)
		go func(sub *router.Subscription) {
			defer wg.Done()
			for {
				select {
				case m := <-sub.C():
					g.store.Upsert(site, m.Group, m.Source, m.Columns, m.Row, m.Time)
					g.liveRows.Add(1)
				case <-sub.Done():
					ended <- struct{}{}
					return
				case <-ctx.Done():
					ended <- struct{}{}
					return
				}
			}
		}(sub)
	}
	<-ended
	for _, s := range subs {
		s.Close()
	}
	wg.Wait()
	return ctx.Err() == nil
}

// directoryQuery is the default QueryFunc: resolve the site's endpoint in
// the directory and query its servlet interface.
func (g *Gateway) directoryQuery(ctx context.Context, site string, req core.QueryOptions) (*core.Response, error) {
	reg, ok, err := g.opts.Directory.LookupContext(ctx, site)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("repub: site %q not in directory", site)
	}
	return web.RemoteQueryContext(ctx, reg.Endpoint, req)
}

// QueryContext answers a query from the merged view. Scope comes from
// req.Site: the republisher's own name (or empty, or the all-sites
// wildcard) selects the whole region — every owned site — while an owned
// site's name selects just that slice. A site this republisher does not
// own is an error, which is the signal the entry gateway uses to degrade
// to direct legs after a rebalance. Historical queries are refused: the
// view holds latest rows only, and the refusal routes the query to the
// site's own history store.
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
	var sites []string
	switch req.Site {
	case "", g.opts.Name, core.AllSites:
		sites = g.Owns()
		if len(req.Region) > 0 {
			// The caller pinned the region: answer exactly those sites, and
			// refuse when the shard has drifted from the caller's plan — a
			// wrong-coverage answer would silently double- or under-count.
			owned := make(map[string]bool, len(sites))
			for _, s := range sites {
				owned[s] = true
			}
			for _, s := range req.Region {
				if !owned[s] {
					g.notOwned.Add(1)
					return nil, fmt.Errorf("repub: %s does not own site %q", g.opts.Name, s)
				}
			}
			sites = req.Region
		}
		g.regionQueries.Add(1)
	default:
		if !g.ownsSite(req.Site) {
			g.notOwned.Add(1)
			return nil, fmt.Errorf("repub: %s does not own site %q", g.opts.Name, req.Site)
		}
		sites = []string{req.Site}
		g.siteQueries.Add(1)
	}
	rs, fresh, ok := g.store.Merged(q.Table, sites)
	if !ok {
		group, _ := glue.Lookup(q.Table)
		meta, err := resultset.MetadataForGroup(group, nil)
		if err != nil {
			return nil, err
		}
		rs = resultset.New(meta)
	}
	out, err := sqlparse.ApplyToResultSet(q, rs)
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
	}, nil
}

func (g *Gateway) ownsSite(site string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, s := range g.owns {
		if s == site {
			return true
		}
	}
	return false
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
