package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"gridrm/internal/intern"
	"gridrm/internal/resultset"
	"gridrm/internal/security"
	"gridrm/internal/sqlparse"
	"gridrm/internal/trace"
)

// FanoutLeg is one branch of an all-sites fan-out plan. A direct leg
// targets a site gateway; a republisher leg targets an intermediate
// gateway that answers for every site in Covers from its merged region
// view, collapsing N site round trips into one.
type FanoutLeg struct {
	// Target is the member to query (a site name, or a republisher name
	// for republisher legs); it goes into the sub-request's Site field.
	Target string
	// Republisher marks a region leg.
	Republisher bool
	// Covers lists the sites a republisher leg answers for. When the leg
	// fails, the fan-out degrades to direct legs for these sites.
	Covers []string
}

// legLabel names a leg in source statuses and timeout diagnostics.
func legLabel(leg FanoutLeg) string {
	if leg.Republisher {
		return "repub:" + leg.Target
	}
	return "site:" + leg.Target
}

// relabel appends a leg's source statuses to dst, each under the leg's
// label, and grows dst once, not once a status. dst may be sources[:0],
// which relabels them in place. A labelled source is a name
// the next poll repeats, so it comes from the intern table when it is short
// enough: built on the stack, it allocates only the first time.
func relabel(dst []SourceStatus, label string, sources []SourceStatus) []SourceStatus {
	if len(sources) == 0 {
		return dst
	}
	dst = slices.Grow(dst, len(sources))
	var names intern.Batch
	defer names.Done()
	var buf [intern.MaxLen]byte
	for _, st := range sources {
		if len(label)+1+len(st.Source) > len(buf) {
			st.Source = label + " " + st.Source
		} else {
			name := append(append(append(buf[:0], label...), ' '), st.Source...)
			if s, ok := names.Bytes(name); ok {
				st.Source = s
			} else {
				st.Source = string(name)
			}
		}
		dst = append(dst, st)
	}
	return dst
}

// queryAllSites executes one SQL statement across the whole virtual
// organisation: locally, plus at every remote site the Global layer can
// reach, consolidating the answers into one ResultSet. ORDER BY and LIMIT
// are stripped from the fan-out sub-queries (which keep the ORDER BY column)
// and applied over the legs' rows, so "the 3 busiest hosts anywhere" means
// exactly that. Aggregate queries are pushed down: each site answers the
// partial-aggregate rewrite (sum+count for avg, and so on) and only those
// partial rows cross the wire; the entry gateway combines them (sum of sums,
// min of mins) and finalizes the answer.
//
// The router plans the fan-out (GlobalRouter.FanoutPlan). Sites owned by
// republishers are covered by one region leg each: the entry's fan-out
// degree is the number of republishers, not the number of sites, and the
// partial-aggregate sub-query is answered from the republisher's merged
// view. A failed region leg degrades to direct legs for the sites it
// covered, so a dead republisher costs latency, not answers. A plan that
// cannot be made (the directory is down and nothing is cached) leaves the
// local leg alone, and the answer says so in a "plan" source status: rows
// of one site must not pass for the VO's.
//
// The fan-out is bounded by ctx: a leg that has not answered when the
// deadline passes is reported as timed out and the consolidated rows of
// the legs that did answer are returned.
func (g *Gateway) queryAllSites(ctx context.Context, req QueryOptions, start time.Time) (*Response, error) {
	if g.coarse.Check(req.Principal, security.OpGlobalQuery) != security.Allow {
		g.denied.Add(1)
		return nil, &PermissionError{Principal: req.Principal.Name, What: "global query"}
	}
	plan, err := g.plans.Plan(req.SQL)
	if err != nil {
		return nil, err
	}
	q := plan.Query
	subReq := req
	subReq.Sources = nil // source URLs are site-local knowledge
	// Per-site sub-query: the partial-aggregate rewrite of an aggregate,
	// otherwise the same projection and WHERE with no ORDER/LIMIT — still
	// plain SQL in the same grammar.
	subReq.SQL = plan.SiteSQL

	g.mu.RLock()
	router := g.router
	g.mu.RUnlock()
	// Leg 0 is the local site; the others are the router's plan, which is
	// shared with every query of the same copy of the directory.
	var planned []FanoutLeg
	var planErr error
	if router != nil {
		planned, planErr = router.FanoutPlan(ctx)
	}
	leg := func(i int) FanoutLeg {
		if i == 0 {
			return FanoutLeg{Target: g.name}
		}
		return planned[i-1]
	}
	nlegs := 1 + len(planned)
	// siteCount is the sites the plan covers; room is the statuses the
	// local leg's array keeps free for the others: an answered region leg
	// adds exactly one. What direct legs add is not known until they
	// answer, so the collector grows the array for them.
	siteCount, regions := 1, 0
	for _, l := range planned {
		if l.Republisher {
			siteCount += len(l.Covers)
			regions++
		} else {
			siteCount++
		}
	}
	room := regions

	// querySite runs one direct sub-query against a site (local or
	// remote) under its own span.
	querySite := func(ctx context.Context, site string) (*Response, error) {
		lctx, lsp := trace.StartSpan(ctx, "site")
		lsp.SetAttr("site", site)
		r := subReq
		r.Site = site
		extra := 0
		if site == g.name {
			extra = room
		}
		resp, err := g.QueryContext(markSubQuery(lctx, extra), r)
		lsp.SetError(err)
		lsp.End()
		return resp, err
	}

	// A leg's answered rows and its statuses: those already under their site's
	// label, then, for a direct leg, the site's own statuses, which the
	// collector relabels straight into the answer's.
	type legResult struct {
		i        int
		statuses []SourceStatus
		label    string
		sources  []SourceStatus
		results  []*resultset.ResultSet
		answered int
	}
	// Buffered so legs finishing after the deadline park their result in
	// the channel instead of blocking or racing the collection below.
	fanoutStart := g.clock()
	g.fanouts.Add(1)
	g.fanoutLegs.Add(int64(nlegs - 1))
	fctx, fsp := trace.StartSpan(ctx, "fanout")
	fsp.SetAttrInt("sites", siteCount)
	fsp.SetAttrInt("legs", nlegs)
	ch := make(chan legResult, nlegs)
	for i := range nlegs {
		go func(i int, leg FanoutLeg) {
			out := legResult{i: i}
			if leg.Republisher {
				lctx, lsp := trace.StartSpan(fctx, "region")
				lsp.SetAttr("republisher", leg.Target)
				lsp.SetAttrInt("covers", len(leg.Covers))
				r := subReq
				r.Site = leg.Target
				// Pin the region answer to exactly the planned coverage: a
				// republisher that also mirrors this entry's site must not
				// re-count it, and one whose shard drifted must refuse so we
				// degrade to direct legs below.
				r.Region = leg.Covers
				resp, err := g.QueryContext(markSubQuery(lctx, 0), r)
				lsp.SetError(err)
				lsp.End()
				if err == nil {
					out.answered++
					out.results = append(out.results, resp.ResultSet)
					out.statuses = append(out.statuses, SourceStatus{
						Source: legLabel(leg) + " sites:" + strconv.Itoa(len(leg.Covers)),
					})
					ch <- out
					return
				}
				// Degrade: the republisher is down or no longer owns these
				// sites — fan out directly to everything it covered.
				out.statuses = append(out.statuses, SourceStatus{
					Source: legLabel(leg),
					Err:    err.Error(),
				})
				var mu sync.Mutex
				var wg sync.WaitGroup
				for _, site := range leg.Covers {
					wg.Add(1)
					go func(site string) {
						defer wg.Done()
						resp, err := querySite(fctx, site)
						mu.Lock()
						defer mu.Unlock()
						if err != nil {
							out.statuses = append(out.statuses, SourceStatus{
								Source: "site:" + site,
								Err:    err.Error(),
							})
							return
						}
						out.answered++
						out.results = append(out.results, resp.ResultSet)
						out.statuses = relabel(out.statuses, "site:"+site, resp.Sources)
					}(site)
				}
				wg.Wait()
				ch <- out
				return
			}
			resp, err := querySite(fctx, leg.Target)
			if err != nil {
				// A failed site is a per-site diagnostic, not a query
				// failure — consistent with per-source behaviour.
				out.statuses = append(out.statuses, SourceStatus{
					Source: legLabel(leg),
					Err:    err.Error(),
				})
				ch <- out
				return
			}
			out.answered++
			out.results = append(out.results, resp.ResultSet)
			out.label, out.sources = legLabel(leg), resp.Sources
			ch <- out
		}(i, leg(i))
	}
	results := make([]legResult, nlegs)
	answeredLeg := make([]bool, nlegs)
	remaining := nlegs
collect:
	for remaining > 0 {
		select {
		case r := <-ch:
			results[r.i] = r
			answeredLeg[r.i] = true
			remaining--
		case <-ctx.Done():
			for i := range nlegs {
				if !answeredLeg[i] {
					g.timeouts.Add(1)
					results[i] = legResult{i: i, statuses: []SourceStatus{{
						Source: legLabel(leg(i)),
						Err:    fmt.Errorf("%s: %w", ErrTimedOut, ctx.Err()).Error(),
					}}}
				}
			}
			break collect
		}
	}
	fsp.End()
	g.observeStage(StageFanout, fanoutStart)

	// The legs' answers are the parts the consolidated answer is evaluated
	// over: one whose shape differs from the first's is named, not merged.
	var meta *resultset.Metadata
	sources, answered, answers := 0, 0, 0
	for _, lr := range results {
		sources += len(lr.statuses) + len(lr.sources)
		answers += len(lr.results)
		if len(lr.results) > 0 && meta == nil {
			meta = lr.results[0].Metadata()
		}
	}
	parts := make([]*resultset.ResultSet, 0, answers)
	// An answered local leg's statuses lead the answer's, and that leg is a
	// sub-query whose Response nobody else holds, made with room for the
	// other legs' statuses: they are relabelled in place and the rest go
	// after them. A plan error, which leads the answer, or a failed local leg
	// takes a new array.
	var statuses []SourceStatus
	switch {
	case planErr != nil:
		statuses = make([]SourceStatus, 0, sources+1)
		statuses = append(statuses, SourceStatus{Source: "plan", Err: planErr.Error()})
	case results[0].label != "":
		statuses = slices.Grow(results[0].sources[:0], sources)
	default:
		statuses = make([]SourceStatus, 0, sources)
	}
	for _, lr := range results {
		answered += lr.answered
		statuses = append(statuses, lr.statuses...)
		statuses = relabel(statuses, lr.label, lr.sources)
		for _, rs := range lr.results {
			if err := meta.Conforms(rs.Metadata()); err != nil {
				statuses = append(statuses, SourceStatus{
					Source: "merge",
					Err:    err.Error(),
				})
				continue
			}
			parts = append(parts, rs)
		}
	}
	if answered == 0 {
		return nil, fmt.Errorf("core: no site answered the all-sites query")
	}
	// Aggregates combine the sites' partial rows (sum of sums, min of mins)
	// before ordering and limiting; other rows are sorted, limited and
	// projected as they stand.
	consolidate := sqlparse.ApplyToParts
	if q.Aggregate() {
		consolidate = sqlparse.FinalizeParts
	}
	merged, err := consolidate(plan.Consolidate, meta, parts)
	if err != nil {
		return nil, err
	}
	return &Response{
		Site:      AllSites,
		SQL:       plan.SQL,
		Mode:      req.Mode,
		ResultSet: merged,
		Sources:   statuses,
		Elapsed:   g.clock().Sub(start),
	}, nil
}
