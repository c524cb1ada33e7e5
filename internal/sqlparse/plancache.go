package sqlparse

import (
	"container/list"
	"slices"
	"strings"
	"sync"
)

// PlanCache is a bounded LRU cache of parsed queries keyed by query text.
// Gateways parse every request on the hot path; real workloads repeat a
// small set of query strings (harvest SQL is always the canonical
// `SELECT * FROM <group>`), so caching the parse pays for itself quickly.
//
// Cached plans are shared between callers and MUST be treated as immutable
// — copy the Query (`sub := *q`) before modifying, as the federated
// sub-query rewrite does.
//
// A nil or zero-capacity PlanCache is valid and degrades to plain Parse.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used

	hits, misses, evictions uint64
}

// Plan is one parse and the texts derived from it that a gateway echoes or
// forwards on every request, rendered once when the plan is made. They sit
// beside the Query, not in it: a Query is copied and edited by value.
type Plan struct {
	Query *Query
	// SQL is Query.String(), the canonical text.
	SQL string
	// SiteSQL is the per-site sub-query of a federated execution: the
	// partial-aggregate rewrite of an aggregate query, otherwise the same
	// WHERE without ORDER BY and LIMIT, which only make sense over the
	// consolidated rows, and the same projection plus the ORDER BY column
	// when the projection lacks it.
	SiteSQL string
	// Consolidate is what the entry evaluates over the sites' answers to
	// SiteSQL: for an aggregate query, Query itself (see FinalizeParts);
	// otherwise Query without its WHERE, which the sites applied, so that it
	// sorts, limits and then projects.
	Consolidate *Query

	text string // the request text this plan is cached under
}

func newPlan(text string, q *Query) *Plan {
	p := &Plan{Query: q, SQL: q.String(), Consolidate: q, text: text}
	if q.Aggregate() {
		q.aggs = &aggMemo{owner: q}
		p.SiteSQL = q.PartialQuery().String()
		return p
	}
	site, hub := *q, *q
	site.OrderBy, site.Desc, site.Limit = "", false, -1
	if q.OrderBy != "" && !q.Star() && !slices.ContainsFunc(q.Columns, func(c string) bool { return strings.EqualFold(c, q.OrderBy) }) {
		site.Columns = append(slices.Clip(q.Columns), q.OrderBy)
	}
	hub.Where = nil
	p.SiteSQL, p.Consolidate = site.String(), &hub
	return p
}

// DriverPlans is the capacity of the PlanCache each driver shell owns. A
// gateway sends a driver one text per GLUE group, the canonical harvest SQL,
// so the nine groups fit several times over and what a direct caller's ad-hoc
// statements displace is at worst re-parsed.
const DriverPlans = 64

// NewPlanCache creates a PlanCache holding at most capacity plans.
// capacity <= 0 yields a disabled cache (still safe to use).
func NewPlanCache(capacity int) *PlanCache {
	c := &PlanCache{capacity: capacity}
	if capacity > 0 {
		c.entries = make(map[string]*list.Element) // grows with use, not to its bound
		c.order = list.New()
	}
	return c
}

// Parse returns the parsed form of sql, consulting the cache first.
func (c *PlanCache) Parse(sql string) (*Query, error) {
	if c == nil || c.capacity <= 0 {
		return Parse(sql)
	}
	p, err := c.Plan(sql)
	if err != nil {
		return nil, err
	}
	return p.Query, nil
}

// Plan returns the plan for sql, consulting the cache first. Only
// successful parses are cached; errors are recomputed each time (they are
// not hot-path material).
func (c *PlanCache) Plan(sql string) (*Plan, error) {
	cached := c != nil && c.capacity > 0
	if cached {
		c.mu.Lock()
		if el, ok := c.entries[sql]; ok {
			c.order.MoveToFront(el)
			c.hits++
			p := el.Value.(*Plan)
			c.mu.Unlock()
			return p, nil
		}
		c.misses++
		c.mu.Unlock()
	}
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	p := newPlan(sql, q)
	if !cached {
		return p, nil
	}
	c.mu.Lock()
	if _, ok := c.entries[sql]; !ok {
		c.entries[sql] = c.order.PushFront(p)
		if c.order.Len() > c.capacity {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*Plan).text)
			c.evictions++
		}
	}
	c.mu.Unlock()
	return p, nil
}

// PlanCacheStats is a point-in-time snapshot of cache effectiveness.
type PlanCacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// Stats returns current counters. Safe on a nil cache.
func (c *PlanCache) Stats() PlanCacheStats {
	if c == nil || c.capacity <= 0 {
		return PlanCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.order.Len(),
	}
}
