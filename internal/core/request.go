package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"gridrm/internal/driver"
	"gridrm/internal/glue"
	"gridrm/internal/pool"
	"gridrm/internal/resultset"
	"gridrm/internal/retry"
	"gridrm/internal/security"
	"gridrm/internal/sqlparse"
	"gridrm/internal/trace"
)

// Mode selects how a query is satisfied.
type Mode int

const (
	// ModeCached (the default) serves per-source results from the query
	// cache when fresh, harvesting only on miss — the paper's tree-view
	// behaviour that "limits resource intrusion" (§4).
	ModeCached Mode = iota
	// ModeRealTime forces a fresh harvest from every target source (the
	// explicit poll of Fig 9).
	ModeRealTime
	// ModeHistorical answers from the gateway's internal historical
	// store; results carry SourceURL and SampledAt provenance columns.
	ModeHistorical
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeCached:
		return "cached"
	case ModeRealTime:
		return "real-time"
	case ModeHistorical:
		return "historical"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// QueryOptions is a client query as received by the Abstract Client
// Interface Layer — the network addresses of the data sources plus the SQL
// to execute (paper §3.2.2) — and the per-request execution knobs. It is
// the one entry point Gateway.QueryContext consumes; every other query
// helper (Query, Poll, the wire codecs) builds one of these.
type QueryOptions struct {
	// Principal identifies the client for the security layers.
	Principal security.Principal
	// SQL is the query, e.g. "SELECT * FROM Processor WHERE
	// LoadLast1Min > 2".
	SQL string
	// Site targets a remote gateway; empty or the local name means
	// local, and AllSites ("*") fans the query out to the local site and
	// every site reachable through the Global layer, consolidating the
	// answers (§3.1.1: the RequestManager coordinates retrieval from
	// "not only local resources, but also resources controlled by remote
	// GridRM Gateways").
	Site string
	// Sources restricts the query to these registered source URLs;
	// empty means every registered source whose driver maps the group.
	Sources []string
	// Region restricts a republisher region query (Site = the republisher's
	// name) to exactly these sites. The entry gateway pins each region leg
	// of an all-sites fan-out to the sites the leg covers, so a republisher
	// that also mirrors the entry's own site never double-counts it, and a
	// republisher whose shard drifted from the plan refuses rather than
	// answering with the wrong coverage. Site gateways ignore it.
	Region []string
	// Mode selects cached, real-time or historical execution.
	Mode Mode
	// Since/Until bound historical queries (zero = unbounded).
	Since, Until time.Time
	// Timeout bounds this request, overriding the gateway's default
	// QueryTimeout (zero keeps the default behaviour; the caller's context
	// deadline still applies either way).
	Timeout time.Duration
	// Trace selects this query's tracing: DecideSample (the default)
	// follows the gateway's sample rate, DecideOn forces a trace,
	// DecideOff suppresses one.
	Trace trace.Decision
	// FromSeq resumes a continuous query (Subscribe) after a reconnect:
	// rows still held in the push router's replay ring with sequence
	// numbers above FromSeq are replayed before live delivery begins.
	// Ignored by QueryContext.
	FromSeq uint64
}

// SourceStatus reports the per-source outcome of a query.
//
// Partial-result contract: a live query never fails outright because some
// of its sources failed, timed out, or were skipped by an open breaker —
// the consolidated ResultSet carries every row that arrived in time, and
// each straggler or failure is reported here with a non-empty Err
// ("timed out" for deadline expiry, "circuit open" for breaker skips).
type SourceStatus struct {
	// Source is the data-source URL.
	Source string
	// Driver is the driver that served it (when known).
	Driver string
	// Cached reports whether the result came from the query cache.
	Cached bool
	// HarvestedAt is when the rows were actually collected.
	HarvestedAt time.Time
	// Rows is how many rows the source contributed before filtering.
	Rows int
	// Err is the failure, if the source could not be queried. A degraded
	// result keeps the underlying failure here alongside its rows.
	Err string
	// Degraded marks rows served from a degradation tier after the live
	// path failed: DegradedStaleCache or DegradedHistory. Empty for
	// normal (fresh or fresh-cached) results.
	Degraded string
	// Age is how old the rows were when served, for degraded results.
	Age time.Duration
}

// Straggler and breaker markers used in SourceStatus.Err.
const (
	// ErrTimedOut marks a source or site abandoned at a deadline.
	ErrTimedOut = "timed out"
	// ErrCircuitOpen marks a harvest skipped by an open circuit breaker.
	ErrCircuitOpen = "circuit open"
)

// Degradation tiers reported in SourceStatus.Degraded.
const (
	// DegradedStaleCache marks rows from an expired-but-within-grace
	// query-cache entry.
	DegradedStaleCache = "stale-cache"
	// DegradedHistory marks rows from the latest historical-store sample.
	DegradedHistory = "history"
)

// Response is the consolidated result of a query.
type Response struct {
	// Site is the gateway that answered.
	Site string
	// SQL is the canonicalised query text.
	SQL string
	// Mode echoes the execution mode.
	Mode Mode
	// ResultSet is the consolidated, filtered result.
	ResultSet *resultset.ResultSet
	// Sources reports per-source outcomes (empty for historical
	// queries).
	Sources []SourceStatus
	// Elapsed is the gateway-side processing time.
	Elapsed time.Duration
	// TraceID identifies the query's trace when it was sampled; fetch the
	// span tree from the tracer (or GET /traces/<id>).
	TraceID string
	// Trace carries the finished spans this gateway recorded when it
	// served a propagated remote trace, so the calling gateway can stitch
	// them under its own span tree. Empty for locally rooted queries —
	// those are read from the trace store instead.
	Trace []trace.SpanData
}

// AllSites is the Request.Site wildcard for virtual-organisation-wide
// queries.
const AllSites = "*"

// PermissionError reports a security denial.
type PermissionError struct {
	// Principal is the denied client.
	Principal string
	// What describes the denied action.
	What string
}

// Error implements the error interface.
func (e *PermissionError) Error() string {
	return fmt.Sprintf("core: permission denied for %q: %s", e.Principal, e.What)
}

// harvestSQL is the canonical per-source query the gateway executes: the
// full GLUE group. Client WHERE/ORDER/LIMIT/projection are applied over the
// consolidated rows, so every client query on a group shares one cache
// entry and one history record per source. Each GLUE group's text is built
// once: it is a cache key, a flight key and a plan-cache key on every harvest.
func harvestSQL(group string) string {
	if sql, ok := harvestSQLs[group]; ok {
		return sql
	}
	return "SELECT * FROM " + group
}

var harvestSQLs = func() map[string]string {
	m := make(map[string]string)
	for _, name := range glue.GroupNames() {
		m[name] = "SELECT * FROM " + name
	}
	return m
}()

// QueryContext executes a query — the RequestManager path of Fig 3: SQL
// comes in, a consolidated ResultSet comes out. The request is bounded by
// ctx; when opts.Timeout is set it is applied on top, and when neither
// carries a deadline the gateway's QueryTimeout (if enabled) is. On expiry,
// live queries return partial results: rows from the sources that answered
// in time, with the stragglers marked ErrTimedOut in their SourceStatus.
//
// When the query is sampled for tracing (opts.Trace, the gateway's sample
// rate, or a propagated remote trace context), the whole pipeline — parse,
// cache lookup, harvest, pool checkout, driver execute, consolidation,
// remote fan-out — is recorded as a span tree and the Response carries its
// TraceID. Queries slower than the tracer's threshold additionally land in
// the slow-query log, sampled or not.
func (g *Gateway) QueryContext(ctx context.Context, opts QueryOptions) (*Response, error) {
	if err := g.beginQuery(); err != nil {
		g.queryErrors.Add(1)
		return nil, err
	}
	defer g.endQuery()
	ctx, span := g.startQuerySpan(ctx, opts)
	start := g.clock()
	resp, err := g.query(ctx, opts, start)
	elapsed := g.clock().Sub(start)
	span.SetError(err)
	span.End()
	if !isSubQuery(ctx) {
		slow := trace.SlowQuery{
			Time:    start,
			Site:    g.name,
			SQL:     opts.SQL,
			Mode:    opts.Mode.String(),
			Elapsed: elapsed,
			TraceID: span.TraceID(),
		}
		if err != nil {
			slow.Err = err.Error()
		}
		g.tracer.ObserveQuery(slow)
	}
	if err != nil {
		g.queryErrors.Add(1)
		return nil, err
	}
	resp.Elapsed = elapsed
	if span.IsRoot() {
		resp.TraceID = span.TraceID()
		if span.ParentID() != "" {
			// This gateway served a leg of a remote gateway's trace: ship
			// the finished spans back so the caller can stitch them under
			// its own tree.
			resp.Trace = span.Collected()
		}
	}
	return resp, nil
}

// startQuerySpan begins this query's span: a child "query" span when the
// context already carries one (the local leg of an all-sites fan-out), the
// trace root otherwise — continuing a propagated remote trace when the
// context carries one.
func (g *Gateway) startQuerySpan(ctx context.Context, opts QueryOptions) (context.Context, *trace.Span) {
	var span *trace.Span
	if trace.SpanFromContext(ctx) != nil {
		ctx, span = trace.StartSpan(ctx, "query")
	} else {
		ctx, span = g.tracer.StartTrace(ctx, "query", g.name, opts.Trace)
	}
	if span != nil {
		span.SetAttr("sql", opts.SQL)
		span.SetAttr("mode", opts.Mode.String())
		if opts.Site != "" {
			span.SetAttr("target", opts.Site)
		}
	}
	return ctx, span
}

// deadline bounds a query that is about to block — the miss fan-out, the
// Global layer — by the request's timeout, or the gateway's QueryTimeout when
// neither request nor caller set one, measured from the query's start.
func (g *Gateway) deadline(ctx context.Context, timeout time.Duration, start time.Time) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		if _, has := ctx.Deadline(); has || g.queryTimeout <= 0 {
			return ctx, func() {}
		}
		timeout = g.queryTimeout
	}
	return context.WithTimeout(ctx, timeout-g.clock().Sub(start))
}

// subQueryKey marks the contexts of an all-sites fan-out's local legs, so
// only the consolidated parent query lands in the slow-query log.
type subQueryKey struct{}

func markSubQuery(ctx context.Context) context.Context {
	return context.WithValue(ctx, subQueryKey{}, true)
}

func isSubQuery(ctx context.Context) bool {
	marked, _ := ctx.Value(subQueryKey{}).(bool)
	return marked
}

func (g *Gateway) query(ctx context.Context, req QueryOptions, start time.Time) (*Response, error) {
	g.queries.Add(1)

	if req.Site != "" && req.Site != g.name {
		ctx, cancel := g.deadline(ctx, req.Timeout, start)
		defer cancel()
		if req.Site == AllSites {
			return g.queryAllSites(ctx, req, start)
		}
		// Remote site: coarse check, then route through the Global layer.
		if g.coarse.Check(req.Principal, security.OpGlobalQuery) != security.Allow {
			g.denied.Add(1)
			return nil, &PermissionError{Principal: req.Principal.Name, What: "global query"}
		}
		g.mu.RLock()
		router := g.router
		g.mu.RUnlock()
		if router == nil {
			return nil, fmt.Errorf("core: no global layer configured for remote site %q", req.Site)
		}
		g.routed.Add(1)
		return router.RemoteQueryContext(ctx, req.Site, req)
	}

	op := security.OpQueryRealTime
	if req.Mode == ModeHistorical {
		op = security.OpQueryHistory
	}
	if g.coarse.Check(req.Principal, op) != security.Allow {
		g.denied.Add(1)
		return nil, &PermissionError{Principal: req.Principal.Name, What: string(op)}
	}

	parseStart := g.clock()
	psp := trace.SpanFromContext(ctx).Child("parse")
	plan, err := g.plans.Plan(req.SQL)
	psp.SetError(err)
	psp.End()
	g.observeStage(StageParse, parseStart)
	if err != nil {
		return nil, err
	}
	group, ok := glue.Lookup(plan.Query.Table)
	if !ok {
		return nil, fmt.Errorf("core: unknown GLUE group %q", plan.Query.Table)
	}

	if req.Mode == ModeHistorical {
		return g.queryHistorical(ctx, req, plan, group)
	}
	return g.queryLive(ctx, req, plan, group, start)
}

func (g *Gateway) queryHistorical(ctx context.Context, req QueryOptions, plan *sqlparse.Plan, group *glue.Group) (*Response, error) {
	source := ""
	if len(req.Sources) == 1 {
		source = req.Sources[0]
	} else if len(req.Sources) > 1 {
		return nil, fmt.Errorf("core: historical queries accept at most one source filter")
	}
	if source != "" {
		if g.fine.Check(req.Principal, source, group.Name) != security.Allow {
			g.denied.Add(1)
			return nil, &PermissionError{Principal: req.Principal.Name, What: "history of " + source}
		}
	}
	hsp := trace.SpanFromContext(ctx).Child("history-query")
	rs, err := g.history.Query(group.Name, source, req.Since, req.Until)
	hsp.SetError(err)
	hsp.End()
	if err != nil {
		return nil, err
	}
	out, err := sqlparse.ApplyToResultSet(plan.Query, rs)
	if err != nil {
		return nil, err
	}
	return &Response{Site: g.name, SQL: plan.SQL, Mode: req.Mode, ResultSet: out}, nil
}

// openSource is a target the fresh-cache rung left unanswered, with its place
// in the target order and the source span opened for it there.
type openSource struct {
	i    int
	url  string
	span *trace.Span
}

// queryLive walks each target's ladder (FGSL gate → fresh cache → harvest →
// stale cache → history) in two steps. The gate and the fresh-cache rung never
// block, so they run here, on the query's own goroutine, and settle every
// denied or fresh source in place; only the sources they leave open fan out. A
// query answered wholly from cache starts no goroutine and derives no deadline.
func (g *Gateway) queryLive(ctx context.Context, req QueryOptions, plan *sqlparse.Plan, group *glue.Group, start time.Time) (*Response, error) {
	targets, err := g.targetSources(req, group)
	if err != nil {
		return nil, err
	}
	hsql := harvestSQL(group.Name) // once per query, not per source
	statuses := make([]SourceStatus, len(targets))
	results := make([]*resultset.ResultSet, len(targets))
	qsp := trace.SpanFromContext(ctx)
	var open []openSource
	for i, url := range targets {
		ssp := qsp.Child("source")
		ssp.SetAttr("url", url)
		if st, rs, settled := g.freshSource(req, url, group, hsql); settled {
			endSourceSpan(ssp, &st)
			statuses[i], results[i] = st, rs
			continue
		}
		if open == nil {
			open = make([]openSource, 0, len(targets)-i)
		}
		open = append(open, openSource{i: i, url: url, span: ssp})
	}
	if len(open) > 0 {
		fctx, cancel := g.deadline(ctx, req.Timeout, start)
		defer cancel()
		g.harvestOpen(fctx, req.Mode, group, hsql, open, statuses, results)
	}

	consolidateStart := g.clock()
	csp := qsp.Child("consolidate")
	meta, err := resultset.MetadataForGroup(group, nil)
	if err != nil {
		csp.SetError(err)
		csp.End()
		return nil, err
	}
	// The sources' sets are the parts the answer is evaluated over, compacted
	// in place: an answer copies each cell it keeps once, or shares the one
	// set it is.
	parts := results[:0]
	for i, rs := range results {
		if rs == nil {
			continue
		}
		if err := meta.Conforms(rs.Metadata()); err != nil {
			// A driver produced a non-canonical shape; report it against
			// the source rather than failing the whole consolidation.
			statuses[i].Err = err.Error()
			continue
		}
		parts = append(parts, rs)
	}
	out, err := sqlparse.ApplyToParts(plan.Query, meta, parts)
	csp.SetError(err)
	csp.End()
	g.observeStage(StageConsolidate, consolidateStart)
	if err != nil {
		return nil, err
	}
	return &Response{
		Site:      g.name,
		SQL:       plan.SQL,
		Mode:      req.Mode,
		ResultSet: out,
		Sources:   statuses,
	}, nil
}

// harvestOpen runs the rest of the ladder for the open sources, one goroutine
// each. The channel is buffered to their number, so a straggler finishing after
// the deadline writes into the buffer, never into the slices the caller reads.
func (g *Gateway) harvestOpen(ctx context.Context, mode Mode, group *glue.Group, hsql string, open []openSource, statuses []SourceStatus, results []*resultset.ResultSet) {
	type sourceResult struct {
		i      int
		status SourceStatus
		rs     *resultset.ResultSet
	}
	ch := make(chan sourceResult, len(open))
	for _, o := range open {
		go func(o openSource) {
			st, rs := g.harvestSource(ctx, mode, o.url, group, hsql, o.span)
			ch <- sourceResult{i: o.i, status: st, rs: rs}
		}(o)
	}
	for remaining := len(open); remaining > 0; remaining-- {
		select {
		case r := <-ch:
			statuses[r.i], results[r.i] = r.status, r.rs
		case <-ctx.Done():
			// Deadline: return what we have; the stragglers (status still
			// unwritten) are marked timed out. Their goroutines unwind promptly
			// (their harvest context is a child of ctx) into the buffer.
			for _, o := range open {
				if statuses[o.i].Source == "" {
					g.timeouts.Add(1)
					statuses[o.i] = SourceStatus{Source: o.url, Err: ErrTimedOut}
				}
			}
			return
		}
	}
}

// targetSources resolves which registered sources a query should touch.
func (g *Gateway) targetSources(req QueryOptions, group *glue.Group) ([]string, error) {
	if len(req.Sources) > 0 {
		g.mu.RLock()
		defer g.mu.RUnlock()
		// The registry's own strings, not the request's: these become cache
		// keys, which outlive the request and would keep its memory with them.
		urls := make([]string, len(req.Sources))
		for i, url := range req.Sources {
			s, ok := g.sources[url]
			if !ok {
				return nil, fmt.Errorf("core: source %s not registered", url)
			}
			urls[i] = s.URL
		}
		return urls, nil
	}
	g.mu.RLock()
	urls := make([]string, 0, len(g.sources))
	for url := range g.sources {
		urls = append(urls, url)
	}
	g.mu.RUnlock()
	sort.Strings(urls)
	var targets []string
	for _, url := range urls {
		if g.supportsGroup(url, group.Name) {
			targets = append(targets, url)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: no registered source supports group %s", group.Name)
	}
	return targets, nil
}

// supportsGroup reports whether some driver usable for url maps the group.
// The last-good driver and static preferences are consulted first; failing
// that, any registered driver accepting the URL counts.
func (g *Gateway) supportsGroup(url, group string) bool {
	check := func(driverName string) bool {
		ds, _, ok := g.schemas.Lookup(driverName)
		if !ok {
			return false
		}
		_, has := ds.Groups[group]
		return has
	}
	if name, ok := g.drivers.CachedDriver(url); ok {
		return check(name)
	}
	if prefs := g.drivers.Preferences(url); len(prefs) > 0 {
		for _, name := range prefs {
			if check(name) {
				return true
			}
		}
		return false
	}
	for _, name := range g.drivers.Drivers() {
		d, ok := g.drivers.Driver(name)
		if !ok || !d.AcceptsURL(url) {
			continue
		}
		if check(name) {
			return true
		}
	}
	return false
}

// freshSource is the top of a source's ladder, the part that cannot block:
// the FGSL check and, for a cached-mode query, the fresh-cache lookup. settled
// reports the source answered — denied, or served from cache.
func (g *Gateway) freshSource(req QueryOptions, url string, group *glue.Group, hsql string) (status SourceStatus, rs *resultset.ResultSet, settled bool) {
	status.Source = url
	if d := g.fine.Check(req.Principal, url, group.Name); d != security.Allow {
		g.denied.Add(1)
		status.Err = "permission denied"
		if d == security.Defer {
			// This gateway owns the resource, so there is nobody further to
			// defer to; refuse, naming the rule outcome.
			status.Err = "permission deferred but source is local: denied"
		}
		return status, nil, true
	}
	if req.Mode != ModeCached {
		return status, nil, false
	}
	lookupStart := g.clock()
	rs, at, ok := g.cache.Get(url, hsql)
	g.observeStage(StageCache, lookupStart)
	if !ok {
		return status, nil, false
	}
	g.cacheServed.Add(1)
	status.Cached = true
	status.HarvestedAt = at
	status.Rows = rs.Len()
	status.Driver = g.lastDriver(url)
	return status, rs, true
}

// endSourceSpan closes a source's span with the outcome in its status.
func endSourceSpan(ssp *trace.Span, status *SourceStatus) {
	if ssp == nil {
		return
	}
	if status.Err != "" {
		ssp.SetError(errors.New(status.Err))
	}
	if status.Cached {
		ssp.SetAttr("cached", "true")
	}
	if status.Degraded != "" {
		ssp.SetAttr("degraded", status.Degraded)
	}
	ssp.End()
}

// harvestSource is the rest of the ladder for a source freshSource left open:
// the circuit breaker, the coalesced harvest under the per-source timeout,
// then the degraded tiers. ssp is the span opened before freshSource: its time
// before "harvest" begins is the cache lookup and the hand-off to this goroutine.
func (g *Gateway) harvestSource(ctx context.Context, mode Mode, url string, group *glue.Group, hsql string, ssp *trace.Span) (status SourceStatus, rs *resultset.ResultSet) {
	status.Source = url
	defer endSourceSpan(ssp, &status)
	if _, br, err := g.lookup(url); err == nil && !br.Allow(g.clock()) {
		g.breakerSkipped.Add(1)
		status.Err = ErrCircuitOpen
		rs = g.degradedResult(mode, url, hsql, group, &status)
		return status, rs
	}

	// The harvest span is the first below "source" that anything hangs off,
	// so no context is derived before this point.
	hsp := ssp.Child("harvest")
	res, shared := g.sharedHarvest(trace.ContextWithSpan(ctx, hsp), url, group, hsql)
	if shared {
		g.coalesced.Add(1)
		hsp.SetAttr("coalesced", "true")
	}
	hsp.SetError(res.err)
	hsp.End()
	if res.err != nil {
		if errors.Is(res.err, context.DeadlineExceeded) || errors.Is(res.err, context.Canceled) {
			status.Err = ErrTimedOut
		} else {
			status.Err = res.err.Error()
		}
		rs = g.degradedResult(mode, url, hsql, group, &status)
		return status, rs
	}
	status.Driver = res.driverName
	status.HarvestedAt = res.at
	status.Rows = res.rs.Len()
	return status, res.rs
}

// degradedResult is the tail of the degradation ladder (fresh cache →
// coalesced/fresh harvest → stale cache → history → unavailable): after a
// harvest failed, timed out or was breaker-skipped, it tries an
// expired-but-within-grace query-cache entry, then the latest
// historical-store sample. Only cached-mode queries degrade — an explicit
// real-time poll promised fresh rows and must fail honestly, and
// historical queries never reach here. status keeps the underlying failure
// in Err while Degraded and Age annotate where the rows came from and how
// old they are. Returns nil when every tier is dry ("unavailable").
func (g *Gateway) degradedResult(mode Mode, url, hsql string, group *glue.Group, status *SourceStatus) *resultset.ResultSet {
	if mode != ModeCached {
		return nil
	}
	fill := func(tier string, at time.Time, rows int) {
		status.Degraded = tier
		status.HarvestedAt = at
		status.Age = g.clock().Sub(at)
		status.Rows = rows
		if status.Driver == "" {
			status.Driver = g.lastDriver(url)
		}
	}
	if rs, at, ok := g.cache.GetStale(url, hsql); ok {
		g.staleServes.Add(1)
		fill(DegradedStaleCache, at, rs.Len())
		return rs
	}
	if rs, at, ok := g.history.Latest(url, group.Name); ok {
		g.historyFallbacks.Add(1)
		fill(DegradedHistory, at, rs.Len())
		return rs
	}
	return nil
}

// sharedHarvest obtains one source's full-group rows by harvest.
// Concurrent harvests for the same (source URL, canonical harvest SQL)
// share one driver call through the single-flight group; followers get the
// leader's rows themselves (to read and Merge, like a cached result) and
// report shared=true.
func (g *Gateway) sharedHarvest(ctx context.Context, url string, group *glue.Group, hsql string) (flightResult, bool) {
	return g.flights.do(ctx, flightKey{url, hsql}, func() flightResult {
		return g.harvestLeader(ctx, url, group, hsql)
	})
}

// harvestLeader performs a real driver harvest with all its bookkeeping:
// retries, stats, breaker and health notes, cache fill, history record and
// the push to subscribers and rule sinks. All bookkeeping lives here, on the
// leader, so followers of a coalesced harvest never double count — and the
// cache is filled before the flight completes, so a caller arriving after
// the flight sees the cached rows rather than starting a new harvest. A
// leader whose context is already done returns that error untouched: no
// driver call, no counter, no breaker or health note.
func (g *Gateway) harvestLeader(ctx context.Context, url string, group *glue.Group, hsql string) flightResult {
	if err := ctx.Err(); err != nil {
		return flightResult{err: err}
	}
	g.inflightHarvests.Add(1)
	defer g.inflightHarvests.Add(-1)
	start := g.clock()
	rs, driverName, err := g.harvestWithRetry(ctx, url, hsql)
	g.observeStage(StageHarvest, start)
	now := g.clock()
	if err != nil {
		g.harvestErrors.Add(1)
		g.noteFailure(url, err, now)
		// The request-level deadline is counted by queryLive's straggler
		// sweep; only count per-source harvest timeouts here.
		if (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) && ctx.Err() == nil {
			g.timeouts.Add(1)
		}
		return flightResult{driverName: driverName, at: now, err: err}
	}
	g.harvests.Add(1)
	g.noteSuccess(url, driverName, now)
	g.cache.Put(url, hsql, rs)
	if g.recordHistory {
		if g.durable != nil {
			// Journal-through: the sample lands in memory and the WAL
			// before the harvest returns; a WAL fault degrades the store
			// to memory-only without failing the harvest.
			_ = g.durable.Record(url, group.Name, rs, now)
		} else {
			_ = g.history.Record(url, group.Name, rs, now)
		}
	}
	g.publishRows(ctx, url, group, rs)
	return flightResult{rs: rs, driverName: driverName, at: now}
}

// harvestWithRetry runs harvest attempts under the gateway's retry policy.
// Each attempt gets a fresh HarvestTimeout budget; backoff waits and
// further attempts stop as soon as the request context expires.
func (g *Gateway) harvestWithRetry(ctx context.Context, url, hsql string) (*resultset.ResultSet, string, error) {
	backoff := retry.Backoff{Base: g.retry.Backoff, Max: MaxRetryBackoff}
	var rs *resultset.ResultSet
	var driverName string
	var err error
	for attempt := 0; ; attempt++ {
		rs, driverName, err = g.harvest(ctx, url, hsql)
		if err == nil || attempt >= g.retry.Attempts || ctx.Err() != nil {
			return rs, driverName, err
		}
		g.retries.Add(1)
		if err := retry.Sleep(ctx, backoff.Delay(attempt)); err != nil {
			return nil, driverName, err
		}
	}
}

// harvest runs the canonical full-group query against one source through
// the ConnectionManager (Fig 3's real-time path), bounded by the
// per-source HarvestTimeout on top of the request context. After a
// timeout the connection is discarded, never released: a non-context
// driver may still be using it in the shim goroutine.
//
// An idle connection is trusted until a statement on it fails. Drivers do not
// classify their errors, so when one fails on a reused connection while the
// attempt's context is still live, the connection is pinged then: a failed
// ping means the pooled session had died (counted in the pool's PingFailures,
// closed) and the statement re-runs on the next connection inside this same
// attempt and budget; a ping that answers means the error is the statement's
// own. Each pass either returns or closes one idle connection, so the loop
// ends at a fresh dial at the latest.
func (g *Gateway) harvest(ctx context.Context, url, hsql string) (*resultset.ResultSet, string, error) {
	props, _, err := g.lookup(url)
	if err != nil {
		return nil, "", err
	}
	if g.harvestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.harvestTimeout)
		defer cancel()
	}
	for redialed := false; ; redialed = true {
		conn, err := g.pool.GetContext(ctx, url, props)
		if err != nil {
			return nil, "", err
		}
		driverName := conn.Driver()
		rs, err := execute(ctx, conn, hsql, redialed)
		if err == nil {
			conn.Release()
			rs.Source = url
			return rs, driverName, nil
		}
		if !conn.Reused() || ctx.Err() != nil || conn.PingContext(ctx) == nil {
			conn.Discard()
			return nil, driverName, err
		}
		if err := ctx.Err(); err != nil {
			return nil, driverName, err // the pool settles the abandoned ping
		}
	}
}

// execute runs the harvest statement on conn as a "driver-execute" span;
// redialed marks the run that replaced a stale pooled connection.
func execute(ctx context.Context, conn *pool.Conn, hsql string, redialed bool) (*resultset.ResultSet, error) {
	dsp := trace.SpanFromContext(ctx).Child("driver-execute")
	dsp.SetAttr("driver", conn.Driver())
	if redialed {
		dsp.SetAttr("redialed", "true")
	}
	var rs *resultset.ResultSet
	stmt, err := driver.SafeCreateStatement(conn)
	if err == nil {
		rs, err = driver.QueryContext(ctx, stmt, hsql)
		_ = driver.SafeClose(stmt)
	}
	dsp.SetError(err)
	dsp.End()
	return rs, err
}

// PollContext forces a real-time refresh of one source for one GLUE group
// and returns its rows — the explicit poll behind Fig 9's refresh icon. It
// is a shim over QueryContext.
func (g *Gateway) PollContext(ctx context.Context, principal security.Principal, url, group string) (*Response, error) {
	return g.QueryContext(ctx, QueryOptions{
		Principal: principal,
		SQL:       harvestSQL(group),
		Sources:   []string{url},
		Mode:      ModeRealTime,
	})
}
