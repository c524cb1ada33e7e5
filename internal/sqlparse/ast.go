package sqlparse

import (
	"strconv"
	"strings"
)

// AggFunc enumerates the aggregate functions the grammar supports.
type AggFunc int

// Aggregate functions. AggNone marks a bare (grouping) column in an
// aggregate select list.
const (
	AggNone AggFunc = iota
	AggCount
	AggMin
	AggMax
	AggAvg
	AggSum
)

// String returns the SQL spelling of the function.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	case AggSum:
		return "sum"
	}
	return ""
}

// SelectItem is one entry of an aggregate select list: either a bare
// grouping column (Agg == AggNone) or an aggregate over a column. Star is
// set only for count(*).
type SelectItem struct {
	// Column is the input column name; empty for count(*).
	Column string
	// Agg is the aggregate applied, or AggNone for a grouping column.
	Agg AggFunc
	// Star marks count(*).
	Star bool
}

// Name returns the canonical output column label for the item, e.g.
// "HostName", "avg(LoadLast1Min)" or "count(*)".
func (it SelectItem) Name() string {
	if it.Agg == AggNone {
		return it.Column
	}
	if it.Star {
		return it.Agg.String() + "(*)"
	}
	return it.Agg.String() + "(" + it.Column + ")"
}

// Query is the parsed form of a GridRM SELECT statement.
type Query struct {
	// Columns lists the selected column names; empty means SELECT *.
	// Unused (nil) when the query aggregates — see Items.
	Columns []string
	// Items is the select list of an aggregate query (any aggregate
	// function or GROUP BY present); empty for plain queries.
	Items []SelectItem
	// GroupBy lists the grouping columns; empty for a global aggregate
	// or a plain query.
	GroupBy []string
	// Table is the FROM target — a GLUE group name.
	Table string
	// Where is the optional predicate; nil when absent.
	Where Expr
	// OrderBy is the optional ordering column; empty when absent. In an
	// aggregate query it names an output column, e.g. "avg(Load)".
	OrderBy string
	// Desc reverses the ordering when OrderBy is set.
	Desc bool
	// Limit caps the row count; -1 means no limit.
	Limit int

	// aggs holds the aggregate plans this Query was evaluated with, when it
	// is a Plan's (see aggMemo); a copy shares it but does not use it.
	aggs *aggMemo
}

// Star reports whether the query selects all columns.
func (q *Query) Star() bool { return len(q.Columns) == 0 && len(q.Items) == 0 }

// Aggregate reports whether the query computes aggregates (has aggregate
// functions and/or GROUP BY).
func (q *Query) Aggregate() bool { return len(q.Items) > 0 }

// String renders the query back to SQL text (canonical form).
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	switch {
	case q.Aggregate():
		for i, it := range q.Items {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(it.Name())
		}
	case q.Star():
		sb.WriteByte('*')
	default:
		sb.WriteString(strings.Join(q.Columns, ", "))
	}
	sb.WriteString(" FROM ")
	sb.WriteString(q.Table)
	if q.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(q.Where.String())
	}
	if len(q.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(q.GroupBy, ", "))
	}
	if q.OrderBy != "" {
		sb.WriteString(" ORDER BY ")
		sb.WriteString(q.OrderBy)
		if q.Desc {
			sb.WriteString(" DESC")
		}
	}
	if q.Limit >= 0 {
		sb.WriteString(" LIMIT ")
		sb.WriteString(strconv.Itoa(q.Limit))
	}
	return sb.String()
}

// ColumnsReferenced returns every input column name the query needs
// (select list, aggregate arguments, WHERE, GROUP BY, ORDER BY),
// deduplicated, preserving first-seen order. Drivers use this to fetch
// only the native values a query needs. For aggregate queries ORDER BY is
// excluded: there it names an output column such as "avg(Load)", not an
// input.
func (q *Query) ColumnsReferenced() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(name string) {
		key := strings.ToLower(name)
		if !seen[key] {
			seen[key] = true
			out = append(out, name)
		}
	}
	for _, c := range q.Columns {
		add(c)
	}
	for _, it := range q.Items {
		if it.Column != "" {
			add(it.Column)
		}
	}
	if q.Where != nil {
		walkColumns(q.Where, add)
	}
	for _, c := range q.GroupBy {
		add(c)
	}
	if q.OrderBy != "" && !q.Aggregate() {
		add(q.OrderBy)
	}
	return out
}

// PartialQuery rewrites an aggregate query into the per-site sub-query of
// a federated execution: grouping columns plus the partial aggregates
// needed to reconstruct the final answer (avg becomes sum + count; count,
// sum, min and max are already mergeable). ORDER BY and LIMIT are dropped
// — they only make sense over the combined result. The rewrite is plain
// SQL in the same grammar, so any driver or remote gateway that can answer
// an aggregate query can answer the partial form. Panics if q is not an
// aggregate query.
func (q *Query) PartialQuery() *Query {
	if !q.Aggregate() {
		panic("sqlparse: PartialQuery on non-aggregate query")
	}
	pq := &Query{
		Table:   q.Table,
		Where:   q.Where,
		GroupBy: append([]string(nil), q.GroupBy...),
		Limit:   -1,
	}
	seen := make(map[string]bool)
	addItem := func(it SelectItem) {
		key := strings.ToLower(it.Name())
		if !seen[key] {
			seen[key] = true
			pq.Items = append(pq.Items, it)
		}
	}
	for _, g := range q.GroupBy {
		addItem(SelectItem{Column: g})
	}
	for _, it := range q.Items {
		switch it.Agg {
		case AggNone:
			addItem(it)
		case AggAvg:
			addItem(SelectItem{Column: it.Column, Agg: AggSum})
			addItem(SelectItem{Column: it.Column, Agg: AggCount})
		default:
			addItem(it)
		}
	}
	return pq
}

func walkColumns(e Expr, add func(string)) {
	switch x := e.(type) {
	case *Comparison:
		add(x.Column)
	case *NullCheck:
		add(x.Column)
	case *Logical:
		walkColumns(x.Left, add)
		if x.Right != nil {
			walkColumns(x.Right, add)
		}
	}
}

// Expr is a WHERE-clause expression node.
type Expr interface {
	// String renders the expression as SQL text.
	String() string
}

// CompareOp enumerates comparison operators.
type CompareOp int

// Comparison operators.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpLike
)

// String returns the SQL spelling of the operator.
func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpLike:
		return "LIKE"
	}
	return "?"
}

// Comparison is `Column op Literal`.
type Comparison struct {
	Column string
	Op     CompareOp
	// Value is the literal operand: string, int64, float64 or bool.
	Value any
}

// String implements Expr.
func (c *Comparison) String() string {
	return c.Column + " " + c.Op.String() + " " + formatLiteral(c.Value)
}

// NullCheck is `Column IS [NOT] NULL`.
type NullCheck struct {
	Column string
	Negate bool
}

// String implements Expr.
func (n *NullCheck) String() string {
	if n.Negate {
		return n.Column + " IS NOT NULL"
	}
	return n.Column + " IS NULL"
}

// LogicalOp enumerates boolean connectives.
type LogicalOp int

// Boolean connectives.
const (
	OpAnd LogicalOp = iota
	OpOr
	OpNot
)

// Logical combines sub-expressions with AND/OR/NOT. For OpNot, only Left is
// set.
type Logical struct {
	Op    LogicalOp
	Left  Expr
	Right Expr
}

// String implements Expr.
func (l *Logical) String() string {
	switch l.Op {
	case OpNot:
		return "NOT (" + l.Left.String() + ")"
	case OpAnd:
		return "(" + l.Left.String() + " AND " + l.Right.String() + ")"
	default:
		return "(" + l.Left.String() + " OR " + l.Right.String() + ")"
	}
}

func formatLiteral(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case string:
		return "'" + strings.ReplaceAll(x, "'", "''") + "'"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		if x {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}
