package sqlparse

import (
	"fmt"
	"slices"
	"strings"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// This file implements the aggregation stage of the evaluator (eval.go):
// a query's aggregates over raw rows, and the combining of the per-site
// partial aggregates of a federated (all-sites) query. Aggregates follow SQL
// NULL semantics: NULL inputs are skipped, count(*) counts every row,
// count(col) counts non-NULL values, and sum/min/max/avg of zero non-NULL
// inputs yield NULL. A global aggregate (no GROUP BY) over zero rows still
// produces one row (count = 0, the rest NULL).

// aggIn is one accumulator of an aggregate evaluation: the input column it
// reads and how it folds the cells there.
type aggIn struct {
	col    int       // input column index; -1 for count(*)
	agg    AggFunc   // AggNone for a grouping column, which nothing folds
	kind   glue.Kind // input column kind; glue.Int for count(*)
	counts bool      // a site's partial count, whose cells add up
}

// aggOut is one output column of an aggregate evaluation.
type aggOut struct {
	rep   int // the input column a grouping item copies from its group's first row; -1 otherwise
	state int // the accumulator it finalizes
	count int // avg combined from partials: the count accumulator that divides the sum one; -1 otherwise
}

// aggPlan is a compiled aggregate select list over a concrete input shape.
type aggPlan struct {
	in       []aggIn
	out      []aggOut
	groupIdx []int // input column indexes of the GROUP BY columns
	meta     *resultset.Metadata
}

func numericKind(k glue.Kind) bool { return k == glue.Int || k == glue.Float }

// groupIndexes resolves q's GROUP BY columns in the input shape, or names
// the first one it lacks.
func groupIndexes(q *Query, in *resultset.Metadata) ([]int, string) {
	var idx []int
	for _, g := range q.GroupBy {
		i := in.ColumnIndex(g)
		if i < 0 {
			return nil, g
		}
		idx = append(idx, i)
	}
	return idx, ""
}

// buildAggPlan resolves q's items against the raw input metadata and derives
// the output metadata: one accumulator an item.
func buildAggPlan(q *Query, in *resultset.Metadata) (*aggPlan, error) {
	groupIdx, missing := groupIndexes(q, in)
	if missing != "" {
		return nil, fmt.Errorf("sqlparse: unknown column %q in table %s", missing, q.Table)
	}
	plan := &aggPlan{groupIdx: groupIdx}
	cols := make([]resultset.Column, 0, len(q.Items))
	for j, it := range q.Items {
		ip := aggIn{col: -1, agg: it.Agg, kind: glue.Int}
		var inCol resultset.Column
		if !it.Star {
			i := in.ColumnIndex(it.Column)
			if i < 0 {
				return nil, fmt.Errorf("sqlparse: unknown column %q in table %s", it.Column, q.Table)
			}
			ip.col = i
			inCol = in.Column(i)
			ip.kind = inCol.Kind
		}
		out := aggOut{rep: -1, state: j, count: -1}
		var col resultset.Column
		switch it.Agg {
		case AggNone:
			col, out.rep = inCol, ip.col
		case AggCount:
			col = resultset.Column{Name: it.Name(), Kind: glue.Int, Group: inCol.Group}
		case AggSum:
			if !numericKind(ip.kind) {
				return nil, fmt.Errorf("sqlparse: sum(%s) requires a numeric column, %s is %s",
					it.Column, it.Column, ip.kind)
			}
			col = resultset.Column{Name: it.Name(), Kind: ip.kind, Unit: inCol.Unit, Group: inCol.Group}
		case AggAvg:
			if !numericKind(ip.kind) {
				return nil, fmt.Errorf("sqlparse: avg(%s) requires a numeric column, %s is %s",
					it.Column, it.Column, ip.kind)
			}
			col = resultset.Column{Name: it.Name(), Kind: glue.Float, Unit: inCol.Unit, Group: inCol.Group}
		case AggMin, AggMax:
			col = resultset.Column{Name: it.Name(), Kind: ip.kind, Unit: inCol.Unit, Group: inCol.Group}
		}
		cols = append(cols, col)
		plan.in = append(plan.in, ip)
		plan.out = append(plan.out, out)
	}
	var err error
	if plan.meta, err = resultset.NewMetadata(cols); err != nil {
		return nil, err
	}
	return plan, nil
}

// buildPartialPlan resolves q's partial rewrite against the shape of the
// sites' answers to it (pmeta), one accumulator a partial item, and maps q's
// items onto them: counts and sums add up, min-of-mins, max-of-maxes, and avg
// is finalized as sum/count.
func buildPartialPlan(q *Query, pmeta *resultset.Metadata) (*aggPlan, error) {
	groupIdx, missing := groupIndexes(q, pmeta)
	if missing != "" {
		return nil, fmt.Errorf("sqlparse: partial result missing group column %q", missing)
	}
	plan := &aggPlan{groupIdx: groupIdx}
	pq := q.PartialQuery()
	for _, it := range pq.Items {
		j := pmeta.ColumnIndex(it.Name())
		if j < 0 {
			return nil, fmt.Errorf("sqlparse: partial result missing column %q", it.Name())
		}
		plan.in = append(plan.in, aggIn{col: j, agg: it.Agg, kind: pmeta.Column(j).Kind, counts: it.Agg == AggCount})
	}
	state := func(it SelectItem) int {
		return slices.IndexFunc(pq.Items, func(p SelectItem) bool { return strings.EqualFold(p.Name(), it.Name()) })
	}
	cols := make([]resultset.Column, 0, len(q.Items))
	for _, it := range q.Items {
		out := aggOut{rep: -1, state: state(it), count: -1}
		if it.Agg == AggAvg {
			out.state = state(SelectItem{Column: it.Column, Agg: AggSum})
			out.count = state(SelectItem{Column: it.Column, Agg: AggCount})
		}
		src := pmeta.Column(plan.in[out.state].col)
		col := resultset.Column{Name: it.Name(), Kind: src.Kind, Unit: src.Unit, Group: src.Group}
		switch it.Agg {
		case AggNone:
			out.rep = plan.in[out.state].col
		case AggAvg:
			col.Kind = glue.Float
		}
		cols = append(cols, col)
		plan.out = append(plan.out, out)
	}
	var err error
	if plan.meta, err = resultset.NewMetadata(cols); err != nil {
		return nil, err
	}
	return plan, nil
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	n    int64 // rows observed (non-NULL for everything but count(*))
	sumI int64
	sumF float64
	cmp  resultset.Cell // current min/max
}

// observe folds v into the aggregate agg over a column of kind kind. It
// serves both evaluations: a row's cell, and a site's partial, where a
// partial sum, min or max folds like a row's value.
func (s *aggState) observe(agg AggFunc, kind glue.Kind, v resultset.Cell) {
	if v.Null {
		return
	}
	switch agg {
	case AggSum, AggAvg:
		if kind == glue.Int {
			s.sumI += v.Int
		}
		s.sumF += v.AsFloat()
	case AggMin:
		if s.n == 0 || resultset.CompareCells(v, s.cmp) < 0 {
			s.cmp = v
		}
	case AggMax:
		if s.n == 0 || resultset.CompareCells(v, s.cmp) > 0 {
			s.cmp = v
		}
	}
	s.n++
}

// value returns the aggregate agg of the kind-kind values observed: NULL for
// anything but a count of none.
func (s *aggState) value(agg AggFunc, kind glue.Kind) resultset.Cell {
	switch {
	case agg == AggCount:
		return resultset.Cell{Kind: glue.Int, Int: s.n}
	case s.n == 0:
		return resultset.Cell{Null: true}
	case agg == AggSum && kind == glue.Int:
		return resultset.Cell{Kind: glue.Int, Int: s.sumI}
	case agg == AggSum:
		return resultset.Cell{Kind: glue.Float, Float: s.sumF}
	case agg == AggAvg:
		return resultset.Cell{Kind: glue.Float, Float: s.sumF / float64(s.n)}
	}
	return s.cmp // min/max
}

// aggGroup is the accumulator row for one grouping key.
type aggGroup struct {
	rep    resultset.Ref // first row seen — source of the group-by column values
	states []aggState
}

// fold folds row r of set row into g's accumulators.
func (p *aggPlan) fold(g *aggGroup, row *resultset.ResultSet, r int) {
	for j, in := range p.in {
		switch s := &g.states[j]; {
		case in.col < 0: // count(*)
			s.n++
		case in.counts:
			if v := row.Cell(r, in.col); !v.Null {
				s.n += v.Int
			}
		case in.agg != AggNone:
			s.observe(in.agg, in.kind, row.Cell(r, in.col))
		}
	}
}

// value returns output column j of group g.
func (p *aggPlan) value(parts []*resultset.ResultSet, g *aggGroup, j int) resultset.Cell {
	out := p.out[j]
	in := p.in[out.state]
	switch {
	case out.rep >= 0:
		return parts[g.rep.Part].Cell(int(g.rep.Row), out.rep)
	case out.count >= 0:
		// The sum partial's state, finalized over the count partial's.
		sum := g.states[out.state]
		sum.n = g.states[out.count].n
		if in.kind == glue.Int {
			sum.sumF = float64(sum.sumI)
		}
		return sum.value(AggAvg, glue.Float)
	}
	return g.states[out.state].value(in.agg, in.kind)
}

// groupRows folds the rows sel names (every row of parts when nil) into one
// accumulator row per distinct cells at plan.groupIdx; groups come back in
// first-seen row order. A global aggregate (no GROUP BY) over zero rows still
// has one group.
func (p *aggPlan) groupRows(parts []*resultset.ResultSet, sel []resultset.Ref) []*aggGroup {
	groups := make(map[string]*aggGroup)
	var order []*aggGroup
	var key []byte // reused: a key string is made once per group, not per row
	each(parts, sel, func(ref resultset.Ref) {
		row, r := parts[ref.Part], int(ref.Row)
		key = key[:0]
		for _, c := range p.groupIdx {
			key = resultset.AppendCellKey(key, row.Cell(r, c))
		}
		g := groups[string(key)]
		if g == nil {
			g = &aggGroup{rep: ref, states: make([]aggState, len(p.in))}
			groups[string(key)] = g
			order = append(order, g)
		}
		p.fold(g, row, r)
	})
	if len(p.groupIdx) == 0 && len(order) == 0 {
		order = append(order, &aggGroup{states: make([]aggState, len(p.in))})
	}
	return order
}

// aggregate evaluates q's aggregate select list over the rows sel names
// (every row of parts when nil), or with h.partial combines the partial
// aggregate rows of parts into q's answer. Groups are emitted in first-seen
// row order, then sorted by ORDER BY and cut by LIMIT: an answer's rows are
// built once, from the groups that survive.
func aggregate(q *Query, meta *resultset.Metadata, parts []*resultset.ResultSet, sel []resultset.Ref, h how) (*resultset.ResultSet, error) {
	build := buildAggPlan
	if h.partial {
		build = buildPartialPlan
	}
	plan, err := build(q, meta)
	if err != nil {
		return nil, err
	}
	order := plan.groupRows(parts, sel)
	if q.OrderBy != "" {
		j := plan.meta.ColumnIndex(q.OrderBy)
		if j < 0 {
			return nil, fmt.Errorf("%w: %q", resultset.ErrNoColumn, q.OrderBy)
		}
		slices.SortStableFunc(order, func(a, b *aggGroup) int {
			if q.Desc {
				a, b = b, a
			}
			return resultset.CompareCells(plan.value(parts, a, j), plan.value(parts, b, j))
		})
	}
	if q.Limit >= 0 {
		order = order[:min(q.Limit, len(order))]
	}
	b := resultset.NewBuilder(plan.meta).Grow(len(order), len(plan.out))
	for _, g := range order {
		for j := range plan.out {
			b.Put(0, j, plan.value(parts, g, j))
		}
		b.Rows(1)
	}
	return b.Build()
}

// FinalizeParts combines partial aggregate rows — the per-site answers to
// q.PartialQuery(), parts of shape meta, read as one table of their rows in
// order — into q's final answer, ORDER BY and LIMIT included: counts and sums
// add up, min-of-mins, max-of-maxes, and avg is finalized as sum/count. It is
// the evaluator of ApplyToParts reading partials, and it copies no part.
func FinalizeParts(q *Query, meta *resultset.Metadata, parts []*resultset.ResultSet) (*resultset.ResultSet, error) {
	return evaluate(q, meta, parts, how{partial: true})
}

// FinalizeAggregate combines partial aggregate rows — the concatenated
// per-site results of q.PartialQuery() — into q's final answer: FinalizeParts
// over the one part partial, whose Source and Fetched the answer keeps. ORDER
// BY and LIMIT are left to the caller. The shape of partial must match
// q.PartialQuery()'s select list (one column per partial item, canonical
// names).
func FinalizeAggregate(q *Query, partial *resultset.ResultSet) (*resultset.ResultSet, error) {
	unordered := *q
	unordered.OrderBy, unordered.Desc, unordered.Limit = "", false, -1
	return evaluate(&unordered, partial.Metadata(), []*resultset.ResultSet{partial}, how{partial: true, from: partial})
}
