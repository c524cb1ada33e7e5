package sqlparse

import (
	"fmt"
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

// ApplyToResultSet applies the query's WHERE, GROUP BY/aggregates, ORDER
// BY, LIMIT and column projection to a full-table ResultSet (one whose
// columns cover everything the query references). Drivers that fetch
// coarse-grained native snapshots use this to finish query processing; it
// is part of the driver development API the paper describes in §3.2.1.
//
// The input rs is never mutated: stages that reorder rows build new
// columns, so drivers and caches may keep serving rs to concurrent queries.
func ApplyToResultSet(q *Query, rs *resultset.ResultSet) (*resultset.ResultSet, error) {
	meta := rs.Metadata()
	// Validate referenced columns up front for a clear error.
	for _, c := range q.ColumnsReferenced() {
		if meta.ColumnIndex(c) < 0 {
			return nil, fmt.Errorf("sqlparse: unknown column %q in table %s", c, q.Table)
		}
	}
	out := rs
	if q.Where != nil {
		var evalErr error
		row := 0 // one resolver for every row, not a closure a row
		resolve := func(col string) (resultset.Cell, bool) {
			i := meta.ColumnIndex(col)
			if i < 0 {
				return resultset.Cell{}, false
			}
			return rs.Cell(row, i), true
		}
		out = out.Where(func(r int) bool {
			row = r
			ok, err := eval(q.Where, resolve)
			if err != nil && evalErr == nil {
				evalErr = err
			}
			return ok
		})
		if evalErr != nil {
			return nil, evalErr
		}
	}
	if q.Aggregate() {
		agg, err := aggregateResultSet(q, out)
		if err != nil {
			return nil, err
		}
		out = agg
	}
	if q.OrderBy != "" {
		sorted, err := out.SortedBy(q.OrderBy, q.Desc)
		if err != nil {
			return nil, err
		}
		out = sorted
	}
	if q.Limit >= 0 {
		out = out.Limit(q.Limit)
	}
	if !q.Star() && !q.Aggregate() {
		projected, err := out.Project(q.Columns)
		if err != nil {
			return nil, err
		}
		out = projected
	}
	return out, nil
}
