// Package resultset provides the tabular result model GridRM drivers
// populate and clients consume — the Go analogue of javax.sql.ResultSet and
// ResultSetMetaData in the paper's JDBC-based design ("String queries in,
// ResultSets out", §3).
//
// A ResultSet carries typed column metadata and a row cursor. Typed getters
// coerce between compatible kinds the way JDBC getters do and record
// whether the last value read was NULL (WasNull). ResultSets are built with
// a Builder, which validates each appended row against the column metadata.
package resultset

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"gridrm/internal/glue"
)

// ErrNoRow is returned by getters when the cursor is not positioned on a row.
var ErrNoRow = errors.New("resultset: cursor not on a row")

// ErrNoColumn is returned when a requested column does not exist.
var ErrNoColumn = errors.New("resultset: no such column")

// Column describes one result column.
type Column struct {
	// Name is the column label.
	Name string
	// Kind is the column's value type.
	Kind glue.Kind
	// Unit is the unit of measure, if any.
	Unit string
	// Group is the GLUE group the column originated from, if any.
	Group string
}

// Metadata describes the shape of a ResultSet, in the spirit of JDBC's
// ResultSetMetaData.
type Metadata struct {
	cols  []Column
	index map[string]int
}

// NewMetadata builds Metadata from a column list. Column names must be
// non-empty and unique (case-insensitively). The index is keyed by the
// names as given, so building it folds nothing; the uniqueness check
// compares each name with the ones before it, which is quadratic in the
// column count — callers that take columns from outside the program bound
// that count first.
func NewMetadata(cols []Column) (*Metadata, error) {
	m := &Metadata{cols: append([]Column(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range m.cols {
		if c.Name == "" {
			return nil, fmt.Errorf("resultset: column %d has empty name", i)
		}
		if _, dup := m.index[c.Name]; dup || foldIndex(m.cols[:i], c.Name) >= 0 {
			return nil, fmt.Errorf("resultset: duplicate column %q", c.Name)
		}
		m.index[c.Name] = i
	}
	return m, nil
}

// foldIndex returns the first column whose name equals name under case
// folding, or -1.
func foldIndex(cols []Column, name string) int {
	for i := range cols {
		if strings.EqualFold(cols[i].Name, name) {
			return i
		}
	}
	return -1
}

// groupMetadata holds the all-fields Metadata of every schema group, built
// once: Metadata is immutable, and every harvest, consolidation and history
// read asks for one of these.
var groupMetadata = func() map[*glue.Group]*Metadata {
	table := make(map[*glue.Group]*Metadata)
	for _, g := range glue.Groups() {
		if m, err := metadataForFields(g, g.FieldNames()); err == nil {
			table[g] = m
		}
	}
	return table
}()

// MetadataForGroup derives Metadata covering the named fields of a GLUE
// group; fields is nil or empty for all fields in canonical order.
func MetadataForGroup(g *glue.Group, fields []string) (*Metadata, error) {
	if len(fields) == 0 {
		if m, ok := groupMetadata[g]; ok {
			return m, nil
		}
		fields = g.FieldNames()
	}
	return metadataForFields(g, fields)
}

// MetadataForColumns is NewMetadata for columns that arrive from outside the
// program: a list that is exactly a GLUE group's all-fields columns gets that
// group's shared Metadata, the one MetadataForGroup(g, nil) returns, and
// nothing is built.
func MetadataForColumns(cols []Column) (*Metadata, error) {
	if len(cols) > 0 {
		if g, ok := glue.Lookup(cols[0].Group); ok {
			if m := groupMetadata[g]; m != nil && slices.Equal(m.cols, cols) {
				return m, nil
			}
		}
	}
	return NewMetadata(cols)
}

func metadataForFields(g *glue.Group, fields []string) (*Metadata, error) {
	cols := make([]Column, 0, len(fields))
	for _, name := range fields {
		f, ok := g.Field(name)
		if !ok {
			return nil, fmt.Errorf("resultset: group %s has no field %q", g.Name, name)
		}
		cols = append(cols, Column{Name: f.Name, Kind: f.Kind, Unit: f.Unit, Group: g.Name})
	}
	return NewMetadata(cols)
}

// ColumnCount returns the number of columns.
func (m *Metadata) ColumnCount() int { return len(m.cols) }

// Column returns the i-th (0-based) column description.
func (m *Metadata) Column(i int) Column { return m.cols[i] }

// Columns returns a copy of all column descriptions.
func (m *Metadata) Columns() []Column { return append([]Column(nil), m.cols...) }

// ColumnIndex returns the 0-based index of the named column
// (case-insensitive), or -1 if absent. A name spelled as the column was
// declared is one map read; only another spelling is compared under folding.
func (m *Metadata) ColumnIndex(name string) int {
	if i, ok := m.index[name]; ok {
		return i
	}
	return foldIndex(m.cols, name)
}

// ColumnNames returns the column labels in order.
func (m *Metadata) ColumnNames() []string {
	names := make([]string, len(m.cols))
	for i, c := range m.cols {
		names[i] = c.Name
	}
	return names
}

// ResultSet is an in-memory table with a cursor, mirroring the subset of the
// JDBC ResultSet contract GridRM drivers implement.
type ResultSet struct {
	meta    *Metadata
	rows    [][]any
	cursor  int
	wasNull bool
	// Source optionally records the data-source URL the rows came from.
	Source string
	// Fetched optionally records when the rows were harvested.
	Fetched time.Time
}

// New creates an empty ResultSet with the given metadata.
func New(meta *Metadata) *ResultSet {
	return &ResultSet{meta: meta, cursor: -1}
}

// Metadata returns the result's column metadata.
func (rs *ResultSet) Metadata() *Metadata { return rs.meta }

// Len returns the number of rows.
func (rs *ResultSet) Len() int { return len(rs.rows) }

// Grow reserves room for n more rows, so a caller that knows how many it is
// about to Merge or append pays for one row-slice allocation.
func (rs *ResultSet) Grow(n int) {
	if n > cap(rs.rows)-len(rs.rows) {
		rs.rows = append(make([][]any, 0, len(rs.rows)+n), rs.rows...)
	}
}

// Next advances the cursor to the next row, returning false past the end.
func (rs *ResultSet) Next() bool {
	if rs.cursor+1 >= len(rs.rows) {
		rs.cursor = len(rs.rows)
		return false
	}
	rs.cursor++
	return true
}

// Reset rewinds the cursor to before the first row.
func (rs *ResultSet) Reset() { rs.cursor = -1; rs.wasNull = false }

// WasNull reports whether the last getter call read a NULL value.
func (rs *ResultSet) WasNull() bool { return rs.wasNull }

// Row returns the current row's raw values (shared, do not mutate).
func (rs *ResultSet) Row() ([]any, error) {
	if rs.cursor < 0 || rs.cursor >= len(rs.rows) {
		return nil, ErrNoRow
	}
	return rs.rows[rs.cursor], nil
}

// RowAt returns the i-th row's raw values without moving the cursor.
func (rs *ResultSet) RowAt(i int) []any { return rs.rows[i] }

func (rs *ResultSet) value(col string) (any, error) {
	row, err := rs.Row()
	if err != nil {
		return nil, err
	}
	i := rs.meta.ColumnIndex(col)
	if i < 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoColumn, col)
	}
	v := row[i]
	rs.wasNull = v == nil
	return v, nil
}

// GetString returns the named column of the current row as a string.
// Non-string values are formatted; NULL yields "".
func (rs *ResultSet) GetString(col string) (string, error) {
	v, err := rs.value(col)
	if err != nil {
		return "", err
	}
	switch x := v.(type) {
	case nil:
		return "", nil
	case string:
		return x, nil
	case int64:
		return strconv.FormatInt(x, 10), nil
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64), nil
	case bool:
		return strconv.FormatBool(x), nil
	case time.Time:
		return x.Format(time.RFC3339), nil
	}
	return fmt.Sprint(v), nil
}

// GetInt returns the named column of the current row as an int64.
// Floats are truncated; numeric strings are parsed; NULL yields 0.
func (rs *ResultSet) GetInt(col string) (int64, error) {
	v, err := rs.value(col)
	if err != nil {
		return 0, err
	}
	switch x := v.(type) {
	case nil:
		return 0, nil
	case int64:
		return x, nil
	case float64:
		return int64(x), nil
	case bool:
		if x {
			return 1, nil
		}
		return 0, nil
	case string:
		n, err := strconv.ParseInt(strings.TrimSpace(x), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("resultset: column %q: %w", col, err)
		}
		return n, nil
	}
	return 0, fmt.Errorf("resultset: column %q: cannot convert %T to int", col, v)
}

// GetFloat returns the named column of the current row as a float64.
// Ints widen; numeric strings are parsed; NULL yields 0.
func (rs *ResultSet) GetFloat(col string) (float64, error) {
	v, err := rs.value(col)
	if err != nil {
		return 0, err
	}
	switch x := v.(type) {
	case nil:
		return 0, nil
	case float64:
		return x, nil
	case int64:
		return float64(x), nil
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		if err != nil {
			return 0, fmt.Errorf("resultset: column %q: %w", col, err)
		}
		return f, nil
	}
	return 0, fmt.Errorf("resultset: column %q: cannot convert %T to float", col, v)
}

// GetBool returns the named column of the current row as a bool.
// Nonzero numbers are true; strings are parsed; NULL yields false.
func (rs *ResultSet) GetBool(col string) (bool, error) {
	v, err := rs.value(col)
	if err != nil {
		return false, err
	}
	switch x := v.(type) {
	case nil:
		return false, nil
	case bool:
		return x, nil
	case int64:
		return x != 0, nil
	case float64:
		return x != 0, nil
	case string:
		b, err := strconv.ParseBool(strings.TrimSpace(x))
		if err != nil {
			return false, fmt.Errorf("resultset: column %q: %w", col, err)
		}
		return b, nil
	}
	return false, fmt.Errorf("resultset: column %q: cannot convert %T to bool", col, v)
}

// GetTime returns the named column of the current row as a time.Time.
// RFC 3339 strings are parsed; NULL yields the zero time.
func (rs *ResultSet) GetTime(col string) (time.Time, error) {
	v, err := rs.value(col)
	if err != nil {
		return time.Time{}, err
	}
	switch x := v.(type) {
	case nil:
		return time.Time{}, nil
	case time.Time:
		return x, nil
	case string:
		t, err := time.Parse(time.RFC3339, x)
		if err != nil {
			return time.Time{}, fmt.Errorf("resultset: column %q: %w", col, err)
		}
		return t, nil
	}
	return time.Time{}, fmt.Errorf("resultset: column %q: cannot convert %T to time", col, v)
}

// Builder accumulates validated rows for a ResultSet.
type Builder struct {
	rs  *ResultSet
	err error
}

// NewBuilder creates a Builder producing a ResultSet with the given metadata.
func NewBuilder(meta *Metadata) *Builder {
	return &Builder{rs: New(meta)}
}

// Grow reserves room for n more rows (see ResultSet.Grow).
func (b *Builder) Grow(n int) *Builder {
	b.rs.Grow(n)
	return b
}

// Append adds a copy of row; the value count must match the column count and
// each value's dynamic type must match its column kind (nil is NULL). The
// first error sticks and is reported by Build.
func (b *Builder) Append(row ...any) *Builder {
	if b.check(row) {
		b.rs.rows = append(b.rs.rows, append([]any(nil), row...))
	}
	return b
}

// AppendOwned is Append without the copy: the ResultSet keeps row itself, so
// the caller must not write to it afterwards. It is for rows that are already
// immutable (a store's retained rows) or were made for this ResultSet (a
// decoder's), where the copy would be the only reason each row is allocated
// twice.
func (b *Builder) AppendOwned(row []any) *Builder {
	if b.check(row) {
		b.rs.rows = append(b.rs.rows, row)
	}
	return b
}

// check validates row against the metadata, recording the first failure.
func (b *Builder) check(row []any) bool {
	if b.err != nil {
		return false
	}
	m := b.rs.meta
	if len(row) != len(m.cols) {
		b.err = fmt.Errorf("resultset: row has %d values, want %d", len(row), len(m.cols))
		return false
	}
	for i, v := range row {
		c := &m.cols[i]
		if err := glue.CheckValue(glue.Field{Name: c.Name, Kind: c.Kind}, v); err != nil {
			b.err = err
			return false
		}
	}
	return true
}

// Build returns the accumulated ResultSet or the first append error.
func (b *Builder) Build() (*ResultSet, error) {
	if b.err != nil {
		return nil, b.err
	}
	return b.rs, nil
}

// Clone returns a ResultSet sharing this one's (immutable) rows with an
// independent, reset cursor. The query cache keeps a clone of what it is
// given and then hands that one stored ResultSet to every reader, as a
// coalesced harvest hands its rows to every follower: a ResultSet that came
// from either is shared. Read it (Len, RowAt, Metadata) and Merge it into a
// set of your own; never move its cursor, sort it, or write its rows — Clone
// it first if you need a cursor.
func (rs *ResultSet) Clone() *ResultSet {
	clone := *rs
	clone.cursor = -1
	clone.wasNull = false
	return &clone
}

// Project returns a new ResultSet containing only the named columns, in the
// given order. The cursor of the result is reset.
func (rs *ResultSet) Project(cols []string) (*ResultSet, error) {
	idx := make([]int, len(cols))
	newCols := make([]Column, len(cols))
	for i, name := range cols {
		j := rs.meta.ColumnIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("%w: %q", ErrNoColumn, name)
		}
		idx[i] = j
		newCols[i] = rs.meta.Column(j)
	}
	meta, err := NewMetadata(newCols)
	if err != nil {
		return nil, err
	}
	out := New(meta)
	out.Source = rs.Source
	out.Fetched = rs.Fetched
	for _, row := range rs.rows {
		nr := make([]any, len(idx))
		for i, j := range idx {
			nr[i] = row[j]
		}
		out.rows = append(out.rows, nr)
	}
	return out, nil
}

// Filter returns a new ResultSet containing the rows for which keep returns
// true. The predicate receives raw row values in column order.
func (rs *ResultSet) Filter(keep func(row []any) bool) *ResultSet {
	out := New(rs.meta)
	out.Source = rs.Source
	out.Fetched = rs.Fetched
	for _, row := range rs.rows {
		if keep(row) {
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// Limit returns a new ResultSet with at most n rows (n < 0 means no limit).
func (rs *ResultSet) Limit(n int) *ResultSet {
	if n < 0 || n >= len(rs.rows) {
		clone := *rs
		clone.cursor = -1
		return &clone
	}
	out := New(rs.meta)
	out.Source = rs.Source
	out.Fetched = rs.Fetched
	// Full slice expression: the limited set must not share spare capacity
	// with the parent, or a later Merge into it would clobber parent rows.
	out.rows = rs.rows[:n:n]
	return out
}

// SortBy sorts rows (stably) by the named column; desc reverses the order.
// NULLs sort first ascending, last descending.
func (rs *ResultSet) SortBy(col string, desc bool) error {
	i := rs.meta.ColumnIndex(col)
	if i < 0 {
		return fmt.Errorf("%w: %q", ErrNoColumn, col)
	}
	sort.SliceStable(rs.rows, func(a, b int) bool {
		less := CompareValues(rs.rows[a][i], rs.rows[b][i]) < 0
		if desc {
			return CompareValues(rs.rows[b][i], rs.rows[a][i]) < 0
		}
		return less
	})
	rs.Reset()
	return nil
}

// SortedBy returns a new ResultSet with the rows sorted by the named
// column, leaving rs untouched. Only the outer row slice is copied; the
// rows themselves are shared, so this is the copy-on-write companion to
// SortBy for result sets whose rows other readers may still hold.
func (rs *ResultSet) SortedBy(col string, desc bool) (*ResultSet, error) {
	out := New(rs.meta)
	out.Source = rs.Source
	out.Fetched = rs.Fetched
	out.rows = append(make([][]any, 0, len(rs.rows)), rs.rows...)
	if err := out.SortBy(col, desc); err != nil {
		return nil, err
	}
	return out, nil
}

// Merge appends the rows of other, which must have the same column names
// and kinds in the same order, into rs.
func (rs *ResultSet) Merge(other *ResultSet) error {
	if other.meta.ColumnCount() != rs.meta.ColumnCount() {
		return fmt.Errorf("resultset: merge column count mismatch: %d vs %d",
			other.meta.ColumnCount(), rs.meta.ColumnCount())
	}
	for i := 0; i < rs.meta.ColumnCount(); i++ {
		if !strings.EqualFold(rs.meta.Column(i).Name, other.meta.Column(i).Name) {
			return fmt.Errorf("resultset: merge column %d mismatch: %q vs %q",
				i, rs.meta.Column(i).Name, other.meta.Column(i).Name)
		}
		if rs.meta.Column(i).Kind != other.meta.Column(i).Kind {
			return fmt.Errorf("resultset: merge column %q kind mismatch: %s vs %s",
				rs.meta.Column(i).Name, rs.meta.Column(i).Kind, other.meta.Column(i).Kind)
		}
	}
	rs.rows = append(rs.rows, other.rows...)
	return nil
}

// AppendGroupKey appends to dst an encoding of row's values at the given
// column indexes, usable as a grouping map key. Values are tagged by type so
// that, say, int64(1) and "1" produce distinct keys, and joined with a
// separator that cannot occur inside the encoded forms. A caller that
// reuses dst and looks groups up with m[string(dst)] allocates a key only
// when it stores a new group, not for every row.
func AppendGroupKey(dst []byte, row []any, cols []int) []byte {
	for _, i := range cols {
		switch v := row[i].(type) {
		case nil:
			dst = append(dst, 'n')
		case string:
			dst = append(strconv.AppendInt(append(dst, 's'), int64(len(v)), 10), ':')
			dst = append(dst, v...)
		case int64:
			dst = strconv.AppendInt(append(dst, 'i'), v, 10)
		case float64:
			dst = strconv.AppendFloat(append(dst, 'f'), v, 'g', -1, 64)
		case bool:
			dst = strconv.AppendBool(append(dst, 'b'), v)
		case time.Time:
			dst = strconv.AppendInt(append(dst, 't'), v.UnixNano(), 10)
		default:
			dst = fmt.Appendf(append(dst, '?'), "%v", v)
		}
		dst = append(dst, 0)
	}
	return dst
}

// CompareValues orders two raw values. NULL (nil) sorts before everything;
// numbers compare numerically across int64/float64; strings, bools and
// times compare naturally; mismatched kinds fall back to formatted strings.
func CompareValues(a, b any) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	}
	if fa, ok := toFloat(a); ok {
		if fb, ok := toFloat(b); ok {
			switch {
			case fa < fb:
				return -1
			case fa > fb:
				return 1
			}
			return 0
		}
	}
	switch x := a.(type) {
	case string:
		if y, ok := b.(string); ok {
			return strings.Compare(x, y)
		}
	case bool:
		if y, ok := b.(bool); ok {
			switch {
			case !x && y:
				return -1
			case x && !y:
				return 1
			}
			return 0
		}
	case time.Time:
		if y, ok := b.(time.Time); ok {
			switch {
			case x.Before(y):
				return -1
			case x.After(y):
				return 1
			}
			return 0
		}
	}
	return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// String renders the ResultSet as a compact aligned table, for logs and CLI
// output. The cursor is not moved.
func (rs *ResultSet) String() string {
	names := rs.meta.ColumnNames()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(rs.rows))
	for r, row := range rs.rows {
		cells[r] = make([]string, len(row))
		for c, v := range row {
			s := "NULL"
			if v != nil {
				switch x := v.(type) {
				case float64:
					s = strconv.FormatFloat(x, 'f', 2, 64)
				case time.Time:
					s = x.Format(time.RFC3339)
				default:
					s = fmt.Sprint(v)
				}
			}
			cells[r][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[i], n)
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], s)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
