package sqlparse

import (
	"fmt"
	"slices"
	"strings"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// RowResolver maps a column name to the value it holds in the current row.
// The boolean result reports whether the column exists at all.
type RowResolver func(column string) (any, bool)

// Eval evaluates a WHERE expression against one boxed row — an event, which
// has no column to read cells from. A nil expression is true. Comparisons
// involving NULL are false (use IS NULL to test for NULL), matching common
// SQL behaviour. Referencing a column the row does not have is an error.
func Eval(e Expr, resolve RowResolver) (bool, error) {
	return eval(e, func(column string) (resultset.Cell, bool) {
		v, ok := resolve(column)
		return resultset.CellOf(v), ok
	})
}

// eval is Eval over cells, which is how a ResultSet's rows are read.
func eval(e Expr, resolve func(column string) (resultset.Cell, bool)) (bool, error) {
	if e == nil {
		return true, nil
	}
	switch x := e.(type) {
	case *NullCheck:
		v, ok := resolve(x.Column)
		if !ok {
			return false, fmt.Errorf("sqlparse: unknown column %q", x.Column)
		}
		return v.Null != x.Negate, nil
	case *Comparison:
		v, ok := resolve(x.Column)
		if !ok {
			return false, fmt.Errorf("sqlparse: unknown column %q", x.Column)
		}
		if v.Null || x.Value == nil {
			return false, nil
		}
		if x.Op == OpLike {
			s := v.Str
			if v.Kind != glue.String {
				s = fmt.Sprint(v.Value())
			}
			pat, ok := x.Value.(string)
			if !ok {
				return false, fmt.Errorf("sqlparse: LIKE pattern must be a string")
			}
			return MatchLike(pat, s), nil
		}
		cmp := resultset.CompareCells(v, resultset.CellOf(x.Value))
		switch x.Op {
		case OpEq:
			return cmp == 0, nil
		case OpNe:
			return cmp != 0, nil
		case OpLt:
			return cmp < 0, nil
		case OpLe:
			return cmp <= 0, nil
		case OpGt:
			return cmp > 0, nil
		case OpGe:
			return cmp >= 0, nil
		}
		return false, fmt.Errorf("sqlparse: unknown operator %v", x.Op)
	case *Logical:
		left, err := eval(x.Left, resolve)
		if err != nil {
			return false, err
		}
		switch x.Op {
		case OpNot:
			return !left, nil
		case OpAnd:
			if !left {
				return false, nil
			}
			return eval(x.Right, resolve)
		case OpOr:
			if left {
				return true, nil
			}
			return eval(x.Right, resolve)
		}
	}
	return false, fmt.Errorf("sqlparse: unknown expression %T", e)
}

// MatchLike implements SQL LIKE matching: '%' matches any run (including
// empty), '_' matches exactly one character. Matching is case-insensitive,
// which suits GridRM's case-insensitive schema names.
func MatchLike(pattern, s string) bool {
	return likeMatch(strings.ToLower(pattern), strings.ToLower(s))
}

func likeMatch(p, s string) bool {
	// Iterative two-pointer match with backtracking on the last '%'.
	pi, si := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			pi++
			si++
		case pi < len(p) && p[pi] == '%':
			star = pi
			mark = si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// ApplyToParts evaluates q over parts, sets of shape meta read as one table
// of their rows in order, and returns the answer. WHERE selects (part, row)
// pairs; aggregates read the selected cells where they are; ORDER BY sorts
// the selection and LIMIT cuts it; the projection picks columns, and one
// resultset.Gather builds the answer. No part is written, so a part may be a
// set other readers share (a cached harvest, a republisher's snapshot).
//
// An answer that is one whole part, in order, shares that part's arrays; one
// of several whole parts holds them (resultset.Gather); any other copies the
// cells it keeps once. It carries no Source or Fetched, as a set merged from
// several has.
func ApplyToParts(q *Query, meta *resultset.Metadata, parts []*resultset.ResultSet) (*resultset.ResultSet, error) {
	return evaluate(q, meta, parts, how{})
}

// ApplyToResultSet applies the query's WHERE, GROUP BY/aggregates, ORDER
// BY, LIMIT and column projection to a full-table ResultSet (one whose
// columns cover everything the query references). Drivers that fetch
// coarse-grained native snapshots use this to finish query processing; it
// is part of the driver development API the paper describes in §3.2.1.
//
// It is ApplyToParts over the one part rs, whose Source and Fetched the
// answer keeps; a query with no WHERE, ORDER BY, LIMIT or projection answers
// rs itself. The input rs is never mutated, so drivers and caches may keep
// serving rs to concurrent queries.
func ApplyToResultSet(q *Query, rs *resultset.ResultSet) (*resultset.ResultSet, error) {
	return evaluate(q, rs.Metadata(), []*resultset.ResultSet{rs}, how{from: rs})
}

// how says what evaluate's parts hold and what it answers.
type how struct {
	partial bool                 // the parts are q.PartialQuery()'s rows: finalize them
	from    *resultset.ResultSet // the one part whose Source and Fetched the answer keeps
}

// evaluate is the one evaluator behind ApplyToParts, ApplyToResultSet,
// FinalizeParts and FinalizeAggregate.
func evaluate(q *Query, meta *resultset.Metadata, parts []*resultset.ResultSet, h how) (*resultset.ResultSet, error) {
	// A part that is itself a concatenation (a site's answer among the legs
	// of an all-sites one) is read as the parts it holds, so that passing it
	// on or selecting from it copies nothing twice.
	parts = resultset.Expand(parts)
	for _, p := range parts {
		if err := meta.Conforms(p.Metadata()); err != nil {
			return nil, err
		}
	}
	if h.partial && !q.Aggregate() {
		return nil, fmt.Errorf("sqlparse: FinalizeAggregate on non-aggregate query")
	}
	var sel []resultset.Ref
	if !h.partial {
		// Validate referenced columns up front for a clear error.
		for _, c := range q.ColumnsReferenced() {
			if meta.ColumnIndex(c) < 0 {
				return nil, fmt.Errorf("sqlparse: unknown column %q in table %s", c, q.Table)
			}
		}
		var err error
		if sel, err = where(q.Where, meta, parts); err != nil {
			return nil, err
		}
	}
	if q.Aggregate() {
		out, err := aggregate(q, meta, parts, sel, h)
		if err == nil && h.from != nil {
			out.Source, out.Fetched = h.from.Source, h.from.Fetched
		}
		return out, err
	}
	if q.OrderBy != "" {
		sel = sortRows(sel, parts, meta.ColumnIndex(q.OrderBy), q.Desc)
	}
	if q.Limit >= 0 {
		sel = firstRows(sel, parts, q.Limit)
	}
	if sel != nil && inOrder(sel, parts) {
		sel = nil
	}
	outMeta, cols := meta, []int(nil)
	if !q.Star() {
		var err error
		if outMeta, cols, err = meta.Project(q.Columns); err != nil {
			return nil, err
		}
	}
	if h.from != nil && sel == nil && cols == nil && q.Where == nil && q.OrderBy == "" && q.Limit < 0 {
		return h.from, nil
	}
	out := resultset.Gather(outMeta, parts, sel, cols)
	if h.from != nil {
		out.Source, out.Fetched = h.from.Source, h.from.Fetched
	}
	return out, nil
}

// rows returns the number of rows in parts.
func rows(parts []*resultset.ResultSet) int {
	n := 0
	for _, p := range parts {
		n += p.Len()
	}
	return n
}

// appendRows appends to sel the first n rows of parts, in order.
func appendRows(sel []resultset.Ref, parts []*resultset.ResultSet, n int) []resultset.Ref {
	for p := 0; p < len(parts) && n > 0; p++ {
		for r := 0; r < parts[p].Len() && n > 0; r, n = r+1, n-1 {
			sel = append(sel, resultset.Ref{Part: int32(p), Row: int32(r)})
		}
	}
	return sel
}

// each calls visit with every row sel names, or every row of parts in order
// when sel is nil.
func each(parts []*resultset.ResultSet, sel []resultset.Ref, visit func(resultset.Ref)) {
	if sel != nil {
		for _, ref := range sel {
			visit(ref)
		}
		return
	}
	for p, part := range parts {
		for r := 0; r < part.Len(); r++ {
			visit(resultset.Ref{Part: int32(p), Row: int32(r)})
		}
	}
}

// where returns the rows of parts e accepts, in order, or nil when it accepts
// every row: a filter that drops nothing allocates nothing.
func where(e Expr, meta *resultset.Metadata, parts []*resultset.ResultSet) ([]resultset.Ref, error) {
	if e == nil {
		return nil, nil
	}
	var at resultset.Ref // one resolver for every row, not a closure a row
	resolve := func(col string) (resultset.Cell, bool) {
		i := meta.ColumnIndex(col)
		if i < 0 {
			return resultset.Cell{}, false
		}
		return parts[at.Part].Cell(int(at.Row), i), true
	}
	var sel []resultset.Ref
	kept := 0 // rows accepted before the first one dropped
	for p, part := range parts {
		for r := 0; r < part.Len(); r++ {
			at = resultset.Ref{Part: int32(p), Row: int32(r)}
			ok, err := eval(e, resolve)
			switch {
			case err != nil:
				return nil, err
			case sel != nil && ok:
				sel = append(sel, at)
			case ok:
				kept++
			case sel == nil: // the first row dropped
				sel = appendRows(make([]resultset.Ref, 0, rows(parts)-1), parts, kept)
			}
		}
	}
	return sel, nil
}

// sortRows sorts the rows sel names (every row of parts when nil) stably by
// column c; desc reverses the order. NULLs sort first ascending, last
// descending.
func sortRows(sel []resultset.Ref, parts []*resultset.ResultSet, c int, desc bool) []resultset.Ref {
	if sel == nil {
		sel = appendRows(make([]resultset.Ref, 0, rows(parts)), parts, rows(parts))
	}
	var buf [8]*resultset.Vector
	vecs := buf[:0]
	for _, p := range parts {
		vecs = append(vecs, p.Column(c))
	}
	cell := func(ref resultset.Ref) resultset.Cell {
		if v := vecs[ref.Part]; v != nil {
			return v.Cell(int(ref.Row))
		}
		return resultset.Cell{Null: true}
	}
	slices.SortStableFunc(sel, func(a, b resultset.Ref) int {
		if desc {
			a, b = b, a
		}
		return resultset.CompareCells(cell(a), cell(b))
	})
	return sel
}

// firstRows cuts the rows sel names (every row of parts when nil) to at most n.
func firstRows(sel []resultset.Ref, parts []*resultset.ResultSet, n int) []resultset.Ref {
	switch {
	case sel != nil:
		return sel[:min(n, len(sel))]
	case n < rows(parts):
		return appendRows(make([]resultset.Ref, 0, n), parts, n)
	}
	return nil
}

// inOrder reports whether sel names every row of parts, in order.
func inOrder(sel []resultset.Ref, parts []*resultset.ResultSet) bool {
	k := 0
	for p, part := range parts {
		for r := 0; r < part.Len(); r, k = r+1, k+1 {
			if k >= len(sel) || sel[k] != (resultset.Ref{Part: int32(p), Row: int32(r)}) {
				return false
			}
		}
	}
	return k == len(sel)
}
