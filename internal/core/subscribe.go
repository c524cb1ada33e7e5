package core

import (
	"context"
	"fmt"

	"gridrm/internal/event"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/router"
	"gridrm/internal/security"
	"gridrm/internal/sqlparse"
	"gridrm/internal/trace"
)

// Subscribe registers a continuous query (R-GMA's third query class): the
// SQL predicate is parsed once, and every row later produced by harvests
// or polls of the queried group is matched against it and pushed to the
// returned subscription. The subscription ends when ctx is cancelled, when
// Close is called on it, when the router evicts it for stalling, or at
// gateway shutdown — select on Done alongside C. An eviction is also
// published as a subscriber-evicted Alert event naming the subscriber and
// the rows it dropped, so /events says why a stream ended.
//
// The push path shares Publish's backpressure contract: the subscription's
// queue is bounded, overflow drops oldest with accounting, and a consumer
// that never drains is evicted rather than allowed to wedge the harvest
// path. opts.FromSeq resumes delivery after a reconnect; if the replay
// ring no longer reaches back that far the subscription reports Gapped.
func (g *Gateway) Subscribe(ctx context.Context, opts QueryOptions) (*router.Subscription, error) {
	g.mu.RLock()
	closed := g.closed
	g.mu.RUnlock()
	if closed {
		return nil, ErrGatewayClosed
	}
	if opts.Site != "" && opts.Site != g.name {
		return nil, fmt.Errorf("core: continuous queries are local; site %q not supported", opts.Site)
	}
	if opts.Mode == ModeHistorical {
		return nil, fmt.Errorf("core: continuous queries cannot be historical")
	}
	if g.coarse.Check(opts.Principal, security.OpQueryRealTime) != security.Allow {
		g.denied.Add(1)
		return nil, &PermissionError{Principal: opts.Principal.Name, What: string(security.OpQueryRealTime)}
	}
	q, err := g.plans.Parse(opts.SQL)
	if err != nil {
		return nil, err
	}
	if q.Aggregate() || len(q.GroupBy) > 0 {
		return nil, fmt.Errorf("core: continuous queries cannot aggregate; subscribe to raw rows and aggregate client-side")
	}
	// A stream has no end to sort or cut at: each row is pushed as it is
	// harvested, so ORDER BY and LIMIT would be silently ignored.
	if q.OrderBy != "" {
		return nil, fmt.Errorf("core: continuous queries cannot ORDER BY; rows are pushed in harvest order")
	}
	if q.Limit >= 0 {
		return nil, fmt.Errorf("core: continuous queries cannot LIMIT; close the subscription instead")
	}
	group, ok := glue.Lookup(q.Table)
	if !ok {
		return nil, fmt.Errorf("core: unknown GLUE group %q", q.Table)
	}
	// Validate the projection (and pin its indices) against the group now,
	// so a typo'd column fails at Subscribe rather than silently matching
	// nothing later.
	if !q.Star() {
		if _, err := resultset.MetadataForGroup(group, q.Columns); err != nil {
			return nil, err
		}
	}
	label := subscriberLabel(opts)
	sub, err := g.push.Subscribe(router.SubscribeOptions{
		Name:    label,
		Match:   g.buildMatch(opts, q, group),
		FromSeq: opts.FromSeq,
	})
	if err != nil {
		return nil, err
	}
	var cancelled <-chan struct{}
	if ctx != nil {
		cancelled = ctx.Done()
	}
	go func() {
		select {
		case <-cancelled:
			sub.Close()
		case <-sub.Done():
			if dropped := sub.Dropped(); sub.Evicted() {
				g.events.Publish(event.Event{
					Source:   "gateway:" + g.name,
					Name:     "subscriber-evicted",
					Severity: event.SeverityAlert,
					Value:    float64(dropped),
					Time:     sub.EvictedAt(),
					Detail:   fmt.Sprintf("%s: evicted for stalling after dropping %d rows", label, dropped),
				})
			}
		}
	}()
	return sub, nil
}

// subscriberLabel names a subscription for the management view.
func subscriberLabel(opts QueryOptions) string {
	who := opts.Principal.Name
	if who == "" {
		who = "anonymous"
	}
	sql := opts.SQL
	if len(sql) > 64 {
		sql = sql[:64] + "..."
	}
	return who + ": " + sql
}

// buildMatch compiles a parsed continuous query into the router's match
// closure. It runs on the publish path for every harvested row, so it does
// index lookups and a WHERE eval — no allocation beyond the projected row.
func (g *Gateway) buildMatch(opts QueryOptions, q *sqlparse.Query, group *glue.Group) func(router.Metric) (router.Metric, bool) {
	var sources map[string]bool
	if len(opts.Sources) > 0 {
		sources = make(map[string]bool, len(opts.Sources))
		for _, s := range opts.Sources {
			sources[s] = true
		}
	}
	principal := opts.Principal
	where := q.Where
	projected := append([]string(nil), q.Columns...)
	return func(m router.Metric) (router.Metric, bool) {
		if m.Group != group.Name {
			return router.Metric{}, false
		}
		if sources != nil && !sources[m.Source] {
			return router.Metric{}, false
		}
		// Fine-grained security is enforced per metric, like the query
		// path's per-source check: a subscriber only sees rows from
		// (source, group) pairs its principal may read.
		if g.fine.Check(principal, m.Source, m.Group) != security.Allow {
			return router.Metric{}, false
		}
		if where != nil {
			resolve := func(col string) (any, bool) {
				idx := columnIndex(m.Columns, col)
				if idx < 0 {
					return nil, false
				}
				return m.Row[idx], true
			}
			ok, err := sqlparse.Eval(where, resolve)
			if err != nil || !ok {
				return router.Metric{}, false
			}
		}
		if len(projected) > 0 {
			row := make([]any, len(projected))
			for i, col := range projected {
				if idx := columnIndex(m.Columns, col); idx >= 0 {
					row[i] = m.Row[idx]
				}
			}
			m.Columns = projected
			m.Row = row
		}
		return m, true
	}
}

// columnIndex finds col in cols case-insensitively (GLUE column names are
// matched the way the query engine matches them).
func columnIndex(cols []string, col string) int {
	for i, c := range cols {
		if equalFold(c, col) {
			return i
		}
	}
	return -1
}

// equalFold is a cheap ASCII case-insensitive compare (column names are
// ASCII identifiers).
func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// PushRouter returns the metric router behind continuous queries, for sink
// registration and the management view.
func (g *Gateway) PushRouter() *router.Router { return g.push }

// AddHarvestRule raises alerts from harvested rows, Fig 3's "Threshold
// exceeded. Alert transmitted" with no polling loop of its own: a sink on
// the push router reads group.field and the row's host key from every
// harvest of the group and runs rule over them, as causes named
// "<Group>.<Field>". Each alert goes to the Event Manager; the rows
// themselves are not published as events. A NULL field raises nothing.
func (g *Gateway) AddHarvestRule(group, field string, rule event.ThresholdRule) error {
	gg, ok := glue.Lookup(group)
	if !ok {
		return fmt.Errorf("core: unknown group %q", group)
	}
	f, ok := gg.Field(field)
	if !ok {
		return fmt.Errorf("core: group %s has no field %q", group, field)
	}
	if f.Kind != glue.Int && f.Kind != glue.Float {
		return fmt.Errorf("core: field %s.%s is %s; only numeric fields take threshold rules", group, field, f.Kind)
	}
	host := ""
	for _, kf := range gg.Fields {
		if kf.Key && kf.Kind == glue.String {
			host = kf.Name
			break
		}
	}
	if host == "" {
		return fmt.Errorf("core: group %s has no string key field to attribute alerts to", group)
	}
	check, err := g.events.Trigger(rule)
	if err != nil {
		return err
	}
	rs := &ruleSink{name: rule.Name, cause: gg.Name + "." + f.Name, field: f.Name, host: host, check: check}
	return g.push.AddSink(rs, router.SinkOptions{Match: func(m router.Metric) (router.Metric, bool) {
		return m, m.Group == gg.Name
	}})
}

// ruleSink runs one harvest rule over the rows the push router hands it.
type ruleSink struct {
	name, cause, field, host string
	check                    func(event.Event)
}

func (s *ruleSink) Name() string { return "rule:" + s.name }
func (s *ruleSink) Close() error { return nil }
func (s *ruleSink) Deliver(_ context.Context, batch []router.Metric) error {
	for _, m := range batch {
		fi, hi := columnIndex(m.Columns, s.field), columnIndex(m.Columns, s.host)
		if fi < 0 || hi < 0 {
			continue
		}
		var v float64
		switch x := m.Row[fi].(type) {
		case float64:
			v = x
		case int64:
			v = float64(x)
		default:
			continue // NULL: the source cannot supply this field
		}
		host, _ := m.Row[hi].(string)
		s.check(event.Event{Source: m.Source, Host: host, Name: s.cause, Value: v, Time: m.Time})
	}
	return nil
}

// publishRows fans a fresh harvest's rows into the push router. When
// nothing subscribes (Idle is one atomic load) it boxes nothing and only
// marks the skip, so a later resume knows of it. It never
// blocks: the router's queues are bounded with drop-oldest overflow, so a
// stuck subscriber costs the harvest path nothing but this fan-out loop.
// The rows are boxed here, once a publish, into one slab of their own: the
// router's consumers keep them, and rs is shared with the cache.
func (g *Gateway) publishRows(ctx context.Context, url string, group *glue.Group, rs *resultset.ResultSet) {
	if rs.Len() == 0 {
		return
	}
	if g.push.Idle() {
		g.push.Skip()
		return
	}
	start := g.clock()
	span := trace.SpanFromContext(ctx).Child("dispatch")
	meta := rs.Metadata()
	n, w := rs.Len(), meta.ColumnCount()
	slab, rows := make([]any, n*w), make([][]any, n)
	for r := range rows {
		rows[r] = slab[r*w : (r+1)*w : (r+1)*w]
	}
	for c := 0; c < w; c++ {
		if col := rs.Column(c); col != nil {
			for r := 0; r < n; r++ {
				slab[r*w+c] = col.Cell(r).Value()
			}
		}
	}
	n = g.push.Publish(url, group.Name, meta.ColumnNames(), rows, start)
	span.SetAttrInt("rows", n)
	span.End()
	g.observeStage(StageDispatch, start)
}
