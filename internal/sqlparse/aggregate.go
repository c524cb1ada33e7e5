package sqlparse

import (
	"fmt"
	"strings"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// This file implements the aggregation evaluator behind ApplyToResultSet
// and the partial-aggregate merge used by federated (all-sites) queries.
// Aggregates follow SQL NULL semantics: NULL inputs are skipped, count(*)
// counts every row, count(col) counts non-NULL values, and sum/min/max/avg
// of zero non-NULL inputs yield NULL. A global aggregate (no GROUP BY)
// over zero rows still produces one row (count = 0, the rest NULL).

// aggItemPlan binds one select-list item to the input result set.
type aggItemPlan struct {
	item SelectItem
	in   int       // input column index; -1 for count(*)
	kind glue.Kind // input column kind; glue.Int for count(*)
}

// aggPlan is a compiled aggregate select list over a concrete input shape.
type aggPlan struct {
	items    []aggItemPlan
	groupIdx []int // input column indexes of the GROUP BY columns
	meta     *resultset.Metadata
}

func numericKind(k glue.Kind) bool { return k == glue.Int || k == glue.Float }

// buildAggPlan resolves q's items against the input metadata and derives
// the output metadata.
func buildAggPlan(q *Query, in *resultset.Metadata) (*aggPlan, error) {
	plan := &aggPlan{}
	for _, g := range q.GroupBy {
		i := in.ColumnIndex(g)
		if i < 0 {
			return nil, fmt.Errorf("sqlparse: unknown column %q in table %s", g, q.Table)
		}
		plan.groupIdx = append(plan.groupIdx, i)
	}
	cols := make([]resultset.Column, 0, len(q.Items))
	for _, it := range q.Items {
		ip := aggItemPlan{item: it, in: -1, kind: glue.Int}
		var inCol resultset.Column
		if !it.Star {
			i := in.ColumnIndex(it.Column)
			if i < 0 {
				return nil, fmt.Errorf("sqlparse: unknown column %q in table %s", it.Column, q.Table)
			}
			ip.in = i
			inCol = in.Column(i)
			ip.kind = inCol.Kind
		}
		var out resultset.Column
		switch it.Agg {
		case AggNone:
			out = inCol
		case AggCount:
			out = resultset.Column{Name: it.Name(), Kind: glue.Int, Group: inCol.Group}
		case AggSum:
			if !numericKind(ip.kind) {
				return nil, fmt.Errorf("sqlparse: sum(%s) requires a numeric column, %s is %s",
					it.Column, it.Column, ip.kind)
			}
			out = resultset.Column{Name: it.Name(), Kind: ip.kind, Unit: inCol.Unit, Group: inCol.Group}
		case AggAvg:
			if !numericKind(ip.kind) {
				return nil, fmt.Errorf("sqlparse: avg(%s) requires a numeric column, %s is %s",
					it.Column, it.Column, ip.kind)
			}
			out = resultset.Column{Name: it.Name(), Kind: glue.Float, Unit: inCol.Unit, Group: inCol.Group}
		case AggMin, AggMax:
			out = resultset.Column{Name: it.Name(), Kind: ip.kind, Unit: inCol.Unit, Group: inCol.Group}
		}
		cols = append(cols, out)
		plan.items = append(plan.items, ip)
	}
	meta, err := resultset.NewMetadata(cols)
	if err != nil {
		return nil, err
	}
	plan.meta = meta
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
// serves both evaluations: a row's cell, and (FinalizeAggregate) a site's
// partial, where a partial count is added up like a sum.
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

// normName canonicalizes an output column label for case-insensitive
// lookup, matching resultset's case-insensitive column index.
func normName(name string) string { return strings.ToLower(name) }

// aggGroup is the accumulator row for one grouping key.
type aggGroup struct {
	rep    int // first row seen — source of the group-by column values
	states []aggState
}

// groupRows walks rs's rows, handing each to observe with the accumulator of
// the group its cells at groupIdx select; groups come back in first-seen row
// order. A global aggregate (no GROUP BY) over zero rows still has one group.
func groupRows(rs *resultset.ResultSet, groupIdx []int, states int, observe func(g *aggGroup, r int)) []*aggGroup {
	groups := make(map[string]*aggGroup)
	var order []*aggGroup
	var key []byte // reused: a key string is made once per group, not per row
	for r := 0; r < rs.Len(); r++ {
		key = key[:0]
		for _, c := range groupIdx {
			key = resultset.AppendCellKey(key, rs.Cell(r, c))
		}
		g := groups[string(key)]
		if g == nil {
			g = &aggGroup{rep: r, states: make([]aggState, states)}
			groups[string(key)] = g
			order = append(order, g)
		}
		observe(g, r)
	}
	if len(groupIdx) == 0 && len(order) == 0 {
		order = append(order, &aggGroup{states: make([]aggState, states)})
	}
	return order
}

// aggregateResultSet evaluates q's aggregate select list over the (already
// WHERE-filtered) rows of rs, grouping by q.GroupBy. Groups are emitted in
// first-seen row order.
func aggregateResultSet(q *Query, rs *resultset.ResultSet) (*resultset.ResultSet, error) {
	plan, err := buildAggPlan(q, rs.Metadata())
	if err != nil {
		return nil, err
	}
	order := groupRows(rs, plan.groupIdx, len(plan.items), func(g *aggGroup, r int) {
		for j, ip := range plan.items {
			switch {
			case ip.item.Star:
				g.states[j].n++
			case ip.item.Agg != AggNone:
				g.states[j].observe(ip.item.Agg, ip.kind, rs.Cell(r, ip.in))
			}
		}
	})
	b := resultset.NewBuilder(plan.meta).Grow(len(order), len(plan.items))
	for _, g := range order {
		for j, ip := range plan.items {
			if ip.item.Agg == AggNone {
				b.Put(0, j, rs.Cell(g.rep, ip.in))
			} else {
				b.Put(0, j, g.states[j].value(ip.item.Agg, ip.kind))
			}
		}
		b.Rows(1)
	}
	out, err := b.Build()
	if err != nil {
		return nil, err
	}
	out.Source = rs.Source
	out.Fetched = rs.Fetched
	return out, nil
}

// FinalizeAggregate combines partial aggregate rows — the concatenated
// per-site results of q.PartialQuery() — into q's final answer: counts and
// sums add up, min-of-mins, max-of-maxes, and avg is finalized as
// sum/count. ORDER BY and LIMIT are left to the caller. The shape of
// partial must match q.PartialQuery()'s select list (one column per
// partial item, canonical names).
func FinalizeAggregate(q *Query, partial *resultset.ResultSet) (*resultset.ResultSet, error) {
	if !q.Aggregate() {
		return nil, fmt.Errorf("sqlparse: FinalizeAggregate on non-aggregate query")
	}
	pq := q.PartialQuery()
	pmeta := partial.Metadata()
	// Resolve every partial item and GROUP BY column in the partial shape.
	pIdx := make([]int, len(pq.Items))
	for i, it := range pq.Items {
		j := pmeta.ColumnIndex(it.Name())
		if j < 0 {
			return nil, fmt.Errorf("sqlparse: partial result missing column %q", it.Name())
		}
		pIdx[i] = j
	}
	var groupIdx []int
	for _, g := range q.GroupBy {
		j := pmeta.ColumnIndex(g)
		if j < 0 {
			return nil, fmt.Errorf("sqlparse: partial result missing group column %q", g)
		}
		groupIdx = append(groupIdx, j)
	}

	// Merge partial rows group by group. The merge semantics per partial
	// aggregate: count → sum of counts, sum → sum of sums, min → min of
	// mins, max → max of maxes; NULL partials (a site with no matching
	// non-NULL values) are skipped.
	order := groupRows(partial, groupIdx, len(pq.Items), func(g *aggGroup, r int) {
		for j, it := range pq.Items {
			switch v := partial.Cell(r, pIdx[j]); {
			case it.Agg == AggCount && !v.Null:
				g.states[j].n += v.Int
			case it.Agg != AggCount && it.Agg != AggNone:
				g.states[j].observe(it.Agg, pmeta.Column(pIdx[j]).Kind, v)
			}
		}
	})

	// Partial item lookup by canonical name, for finalizing avg and for
	// mapping q.Items back onto merged states.
	stateOf := make(map[string]int, len(pq.Items))
	for i, it := range pq.Items {
		stateOf[normName(it.Name())] = i
	}

	// Final output metadata mirrors the single-site aggregate shape.
	cols := make([]resultset.Column, 0, len(q.Items))
	for _, it := range q.Items {
		switch it.Agg {
		case AggAvg:
			sumCol := pmeta.Column(pIdx[stateOf[normName(SelectItem{Column: it.Column, Agg: AggSum}.Name())]])
			cols = append(cols, resultset.Column{Name: it.Name(), Kind: glue.Float, Unit: sumCol.Unit, Group: sumCol.Group})
		default:
			src := pmeta.Column(pIdx[stateOf[normName(it.Name())]])
			cols = append(cols, resultset.Column{Name: it.Name(), Kind: src.Kind, Unit: src.Unit, Group: src.Group})
		}
	}
	meta, err := resultset.NewMetadata(cols)
	if err != nil {
		return nil, err
	}
	b := resultset.NewBuilder(meta).Grow(len(order), len(q.Items))
	for _, g := range order {
		for i, it := range q.Items {
			switch si := stateOf[normName(it.Name())]; it.Agg {
			case AggNone:
				b.Put(0, i, partial.Cell(g.rep, pIdx[si]))
			case AggAvg:
				// The sum partial's state, finalized over the count partial's.
				si = stateOf[normName(SelectItem{Column: it.Column, Agg: AggSum}.Name())]
				sum := g.states[si]
				sum.n = g.states[stateOf[normName(SelectItem{Column: it.Column, Agg: AggCount}.Name())]].n
				if pmeta.Column(pIdx[si]).Kind == glue.Int {
					sum.sumF = float64(sum.sumI)
				}
				b.Put(0, i, sum.value(AggAvg, glue.Float))
			default:
				b.Put(0, i, g.states[si].value(it.Agg, pmeta.Column(pIdx[si]).Kind))
			}
		}
		b.Rows(1)
	}
	out, err := b.Build()
	if err != nil {
		return nil, err
	}
	out.Source = partial.Source
	out.Fetched = partial.Fetched
	return out, nil
}
