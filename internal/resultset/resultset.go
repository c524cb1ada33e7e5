// Package resultset provides the tabular result model GridRM drivers
// populate and clients consume — the Go analogue of javax.sql.ResultSet and
// ResultSetMetaData in the paper's JDBC-based design ("String queries in,
// ResultSets out", §3).
//
// A ResultSet carries typed column metadata, its cells column by column (see
// column.go) and a row cursor. Typed getters coerce between compatible kinds
// the way JDBC getters do and record whether the last value read was NULL
// (WasNull). ResultSets are built with a Builder, which validates each
// appended row or cell against the column metadata.
package resultset

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
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
	names atomic.Pointer[[]string] // ColumnNames, made on first use
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

// Conforms reports, as an error naming the first difference, whether sets of
// shape other can stand for sets of shape m: the same column count, names
// (case-insensitively) and kinds in the same order.
func (m *Metadata) Conforms(other *Metadata) error {
	if other.ColumnCount() != m.ColumnCount() {
		return fmt.Errorf("resultset: merge column count mismatch: %d vs %d",
			other.ColumnCount(), m.ColumnCount())
	}
	for i := 0; other != m && i < m.ColumnCount(); i++ {
		if !strings.EqualFold(m.cols[i].Name, other.cols[i].Name) {
			return fmt.Errorf("resultset: merge column %d mismatch: %q vs %q",
				i, m.cols[i].Name, other.cols[i].Name)
		}
		if m.cols[i].Kind != other.cols[i].Kind {
			return fmt.Errorf("resultset: merge column %q kind mismatch: %s vs %s",
				m.cols[i].Name, m.cols[i].Kind, other.cols[i].Kind)
		}
	}
	return nil
}

// Project returns the Metadata of the named columns, in the given order,
// and the index in m of each.
func (m *Metadata) Project(names []string) (*Metadata, []int, error) {
	cols, idx := make([]Column, len(names)), make([]int, len(names))
	for i, name := range names {
		if idx[i] = m.ColumnIndex(name); idx[i] < 0 {
			return nil, nil, fmt.Errorf("%w: %q", ErrNoColumn, name)
		}
		cols[i] = m.cols[idx[i]]
	}
	meta, err := NewMetadata(cols)
	return meta, idx, err
}

// ColumnNames returns the column labels in order. The slice is made once per
// Metadata and shared by every caller: treat it as read-only.
func (m *Metadata) ColumnNames() []string {
	if names := m.names.Load(); names != nil {
		return *names
	}
	names := make([]string, len(m.cols))
	for i, c := range m.cols {
		names[i] = c.Name
	}
	m.names.Store(&names)
	return names
}

// ResultSet is an in-memory table with a cursor, mirroring the subset of the
// JDBC ResultSet contract GridRM drivers implement. Its cells are held by
// column, and only the columns that hold a value are held at all; or, for a
// concatenation of whole parts that Gather built, by those parts until a
// read of its cells copies them into columns of its own (see extra).
type ResultSet struct {
	meta *Metadata
	cols []Vector // the columns with a value in them, in column order
	n    int32    // rows
	room int32    // rows a Grow made room for
	// cursor and wasNull belong to this header alone; Clone resets them.
	cursor   int32
	wasNull  bool
	borrowed bool                  // cols is another set's array: copy before writing
	ext      atomic.Pointer[extra] // what few sets have; nil for most
	// Source optionally records the data-source URL the rows came from.
	Source string
	// Fetched optionally records when the rows were harvested.
	Fetched time.Time
}

// extra is what few sets have, kept out of the header that every set pays
// for: the parts of a concatenation, and RowAt's boxed rows.
//
// A concatenation holds its rows as the whole parts they are, in order: flat
// sets of its shape, none empty, which nobody writes. The wire writes them as
// they stand (Expand); the first read of the set's cells in the process
// copies them into the set's columns, once, which is the one copy a
// concatenation costs when anything here reads it.
type extra struct {
	parts []*ResultSet // a concatenation's, set when the extra is made
	mu    sync.Mutex   // held by the one flatten
	done  atomic.Bool  // the set's columns hold the parts' cells
	view  [][]any      // RowAt's boxed rows, built on first use under viewMu
}

// parts returns the parts rs concatenates, nil when it holds its own cells.
func (rs *ResultSet) parts() []*ResultSet {
	if e := rs.ext.Load(); e != nil {
		return e.parts
	}
	return nil
}

// flat makes sure a concatenation's cells are in its columns before they are
// read or written; a set that holds its own cells pays one load.
func (rs *ResultSet) flat() {
	if e := rs.ext.Load(); e != nil && e.parts != nil && !e.done.Load() {
		rs.flatten(e)
	}
}

// flatten copies the parts' cells into rs's columns, one array a column,
// exactly once however many readers race to it. Len never changes.
func (rs *ResultSet) flatten(e *extra) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done.Load() {
		return
	}
	out := ResultSet{meta: rs.meta}
	out.Grow(int(rs.n))
	out.hold(width(e.parts))
	for _, part := range e.parts {
		out.appendPart(part, nil)
	}
	rs.cols, rs.room = out.cols, out.room
	e.done.Store(true)
}

// width is the most columns any of parts holds values in.
func width(parts []*ResultSet) int {
	live := 0
	for _, p := range parts {
		if held := p.parts(); held != nil {
			live = max(live, width(held))
		} else {
			live = max(live, len(p.cols))
		}
	}
	return live
}

// Expand returns parts with each concatenation among them replaced by the
// whole parts it holds, so that a caller that reads parts' cells reads flat
// sets only and copies nothing it does not keep: parts itself when none is
// a concatenation. The sets it returns are shared: never write them.
func Expand(parts []*ResultSet) []*ResultSet {
	for i, p := range parts {
		held := p.parts()
		if held == nil {
			continue
		}
		out := append(make([]*ResultSet, 0, len(parts)+len(held)), parts[:i]...)
		for _, p := range parts[i:] {
			if held := p.parts(); held != nil {
				out = append(out, held...)
			} else {
				out = append(out, p)
			}
		}
		return out
	}
	return parts
}

// viewMu guards every ResultSet's view. It lives outside the struct so that
// a ResultSet header stays small; only the compatibility view takes it.
var viewMu sync.Mutex

// New creates an empty ResultSet with the given metadata.
func New(meta *Metadata) *ResultSet {
	return &ResultSet{meta: meta, cursor: -1}
}

// like returns an empty set of rs's shape and provenance.
func (rs *ResultSet) like() *ResultSet {
	return &ResultSet{meta: rs.meta, cursor: -1, Source: rs.Source, Fetched: rs.Fetched}
}

// Metadata returns the result's column metadata.
func (rs *ResultSet) Metadata() *Metadata { return rs.meta }

// Len returns the number of rows.
func (rs *ResultSet) Len() int { return int(rs.n) }

// Grow reserves room for n more rows, so a caller that knows how many it is
// about to Merge or append pays for one array per column that holds values.
func (rs *ResultSet) Grow(n int) {
	rs.own()
	rs.room = rs.n + int32(n)
	for i := range rs.cols {
		rs.cols[i].reserve(int(rs.room))
	}
}

// find returns where in cols column c's cells are, or would be.
func (rs *ResultSet) find(c int) (int, bool) {
	if len(rs.cols) == len(rs.meta.cols) {
		return c, true
	}
	i := 0
	for i < len(rs.cols) && int(rs.cols[i].idx) < c {
		i++
	}
	return i, i < len(rs.cols) && int(rs.cols[i].idx) == c
}

// Column returns column c's cells to read, nil when every row of it is NULL.
func (rs *ResultSet) Column(c int) *Vector {
	rs.flat()
	if i, ok := rs.find(c); ok {
		return &rs.cols[i]
	}
	return nil
}

// Cell returns the value at row r of column c.
func (rs *ResultSet) Cell(r, c int) Cell {
	if v := rs.Column(c); v != nil {
		return v.Cell(r)
	}
	return Cell{Null: true}
}

// Null reports whether the value at row r of column c is NULL, without
// making a Cell of it.
func (rs *ResultSet) Null(r, c int) bool {
	v := rs.Column(c)
	return v == nil || v.Null(r)
}

// own makes cols this set's to write: a clone's first write copies the
// column headers it borrowed, and a concatenation stops being one.
func (rs *ResultSet) own() {
	rs.flat()
	rs.ext.Store(nil)
	if rs.borrowed {
		cols := make([]Vector, len(rs.cols))
		for i := range cols {
			cols[i] = rs.cols[i].shared()
		}
		rs.cols, rs.borrowed = cols, false
	}
}

// hold makes room for k more columns to hold values, never for more than
// there are: a column header is the fixed cost of a small set.
func (rs *ResultSet) hold(k int) {
	if k = min(k, len(rs.meta.cols)-len(rs.cols)); k > cap(rs.cols)-len(rs.cols) {
		rs.cols = slices.Grow(rs.cols, k)
	}
}

// live returns column c's cells for writing, holding the column from now
// on. The caller has called own.
func (rs *ResultSet) live(c int) *Vector {
	i, ok := rs.find(c)
	if !ok {
		if len(rs.cols) == cap(rs.cols) {
			rs.hold(max(2, len(rs.cols))) // double
		}
		rs.cols = slices.Insert(rs.cols, i, Vector{idx: int16(c)})
	}
	return &rs.cols[i]
}

// Next advances the cursor to the next row, returning false past the end.
func (rs *ResultSet) Next() bool {
	if rs.cursor+1 >= rs.n {
		rs.cursor = rs.n
		return false
	}
	rs.cursor++
	return true
}

// Reset rewinds the cursor to before the first row.
func (rs *ResultSet) Reset() { rs.cursor = -1; rs.wasNull = false }

// WasNull reports whether the last getter call read a NULL value.
func (rs *ResultSet) WasNull() bool { return rs.wasNull }

// RowAt returns the i-th row's values boxed (shared, do not mutate) without
// moving the cursor. It reads the compatibility view: every row boxed as a
// []any, built once and kept, so a write through it is read back through it
// (it does not reach the columns). Product code reads cells; this is for
// tests and the benchmark's oracle.
func (rs *ResultSet) RowAt(i int) []any {
	rs.flat()
	viewMu.Lock()
	defer viewMu.Unlock()
	e := rs.ext.Load()
	if e == nil {
		e = new(extra)
		rs.ext.Store(e)
	}
	if e.view == nil {
		n, w := int(rs.n), len(rs.meta.cols)
		slab, rows := make([]any, n*w), make([][]any, n)
		for r := range rows {
			rows[r] = slab[r*w : (r+1)*w : (r+1)*w]
		}
		for i := range rs.cols {
			c := &rs.cols[i]
			for r := 0; r < min(n, int(c.Rows)); r++ {
				slab[r*w+int(c.idx)] = c.Cell(r).Value()
			}
		}
		e.view = rows
	}
	return e.view[i]
}

func (rs *ResultSet) value(col string) (Cell, error) {
	if rs.cursor < 0 || rs.cursor >= rs.n {
		return Cell{}, ErrNoRow
	}
	i := rs.meta.ColumnIndex(col)
	if i < 0 {
		return Cell{}, fmt.Errorf("%w: %q", ErrNoColumn, col)
	}
	v := rs.Cell(int(rs.cursor), i)
	rs.wasNull = v.Null
	return v, nil
}

// colErr names the column a conversion failed on.
func colErr(col string, err error) error {
	if err != nil {
		err = fmt.Errorf("resultset: column %q: %w", col, err)
	}
	return err
}

// GetString returns the named column of the current row as a string.
// Non-string values are formatted; NULL yields "".
func (rs *ResultSet) GetString(col string) (string, error) {
	v, err := rs.value(col)
	switch {
	case err != nil || v.Null || v.Kind == glue.String:
		return v.Str, err
	case v.Kind == glue.Float:
		return strconv.FormatFloat(v.Float, 'g', -1, 64), nil
	case v.Kind == glue.Time:
		return v.Time.Format(time.RFC3339), nil
	}
	return fmt.Sprint(v.Value()), nil
}

// GetInt returns the named column of the current row as an int64.
// Floats are truncated; numeric strings are parsed; NULL yields 0.
func (rs *ResultSet) GetInt(col string) (int64, error) {
	v, err := rs.value(col)
	switch {
	case err != nil || v.Null:
		return 0, err
	case v.Kind == glue.Float:
		v.Int = int64(v.Float)
	case v.Kind == glue.String:
		v.Int, err = strconv.ParseInt(strings.TrimSpace(v.Str), 10, 64)
	case v.Kind == glue.Time:
		err = errors.New("cannot convert time to int")
	}
	return v.Int, colErr(col, err)
}

// GetFloat returns the named column of the current row as a float64.
// Ints widen; numeric strings are parsed; NULL yields 0.
func (rs *ResultSet) GetFloat(col string) (float64, error) {
	v, err := rs.value(col)
	switch {
	case err != nil || v.Null:
		return 0, err
	case v.Kind == glue.Int:
		v.Float = float64(v.Int)
	case v.Kind == glue.String:
		v.Float, err = strconv.ParseFloat(strings.TrimSpace(v.Str), 64)
	case v.Kind != glue.Float:
		err = fmt.Errorf("cannot convert %s to float", v.Kind)
	}
	return v.Float, colErr(col, err)
}

// GetBool returns the named column of the current row as a bool.
// Nonzero numbers are true; strings are parsed; NULL yields false.
func (rs *ResultSet) GetBool(col string) (bool, error) {
	v, err := rs.value(col)
	b := v.Int != 0 || v.Float != 0
	switch {
	case err != nil || v.Null:
		return false, err
	case v.Kind == glue.String:
		b, err = strconv.ParseBool(strings.TrimSpace(v.Str))
	case v.Kind == glue.Time:
		err = errors.New("cannot convert time to bool")
	}
	return b, colErr(col, err)
}

// GetTime returns the named column of the current row as a time.Time.
// RFC 3339 strings are parsed; NULL yields the zero time.
func (rs *ResultSet) GetTime(col string) (time.Time, error) {
	v, err := rs.value(col)
	switch {
	case err != nil || v.Null:
		return time.Time{}, err
	case v.Kind == glue.String:
		v.Time, err = time.Parse(time.RFC3339, v.Str)
	case v.Kind != glue.Time:
		err = fmt.Errorf("cannot convert %s to time", v.Kind)
	}
	return v.Time, colErr(col, err)
}

// Builder accumulates validated rows for a ResultSet. It holds the set it
// builds, so the two cost one allocation.
type Builder struct {
	rs  ResultSet
	err error
}

// NewBuilder creates a Builder producing a ResultSet with the given metadata.
func NewBuilder(meta *Metadata) *Builder {
	return &Builder{rs: ResultSet{meta: meta, cursor: -1}}
}

// Grow reserves room for rows more rows (see ResultSet.Grow) in live columns
// that will hold values; a producer that cannot say how many passes 0.
func (b *Builder) Grow(rows, live int) *Builder {
	b.rs.Grow(rows)
	b.rs.hold(live)
	return b
}

// Append adds row's values as one row; the value count must match the column
// count and each value's dynamic type must match its column kind (nil is
// NULL, and so is a non-finite float). The first error sticks and is
// reported by Build.
func (b *Builder) Append(row ...any) *Builder {
	m := b.rs.meta
	if b.err == nil && len(row) != len(m.cols) {
		b.err = fmt.Errorf("resultset: row has %d values, want %d", len(row), len(m.cols))
	}
	live := 0
	for i := 0; i < len(row) && b.err == nil; i++ {
		b.err = glue.CheckValue(glue.Field{Name: m.cols[i].Name, Kind: m.cols[i].Kind}, row[i])
		live += btoi(row[i] != nil)
	}
	if b.err != nil {
		return b
	}
	if b.rs.cols == nil {
		b.rs.hold(live) // the first row says which columns a harvest fills
	}
	for i, v := range row {
		if v != nil {
			b.rs.live(i).Set(int(b.rs.n), CellOf(v), int(b.rs.room))
		}
	}
	b.rs.n++
	return b
}

// column returns column c for cells of kind k to be stored in, or nil with
// the first error recorded.
func (b *Builder) column(c int, k glue.Kind) *Vector {
	if col := b.rs.meta.cols[c]; b.err == nil && k != col.Kind {
		b.err = fmt.Errorf("resultset: column %s expects %s, got %s", col.Name, col.Kind, k)
	}
	if b.err != nil {
		return nil
	}
	return b.rs.live(c)
}

// Put stores v as column c of the i-th row not yet completed, which follows
// every row of that column put so far; Rows completes rows. A producer that
// has typed values writes them without boxing a row. A cell is NULL or of
// its column's kind.
func (b *Builder) Put(i, c int, v Cell) {
	if v.Null {
		return
	}
	if col := b.column(c, v.Kind); col != nil {
		col.Set(int(b.rs.n)+i, v, int(b.rs.room))
	}
}

// Range is Put for a run of rows a producer already holds as a column: src's
// rows [from, to) become column c of the rows not yet completed.
func (b *Builder) Range(c int, src *Vector, from, to int) {
	if col := b.column(c, glue.Kind(src.kind)); col != nil {
		col.AppendRange(int(b.rs.n), src, from, to, int(b.rs.room))
	}
}

// Rows completes k rows, whose cells Put and Range stored; a cell neither
// stored is NULL.
func (b *Builder) Rows(k int) { b.rs.n += int32(k) }

// Reset empties the set being built, which Build may have handed out, and
// keeps its arrays for the rows to come: for a producer of many short-lived
// sets whose consumer copies what it takes (a restore decoding a journal).
func (b *Builder) Reset() {
	for i := range b.rs.cols {
		c := &b.rs.cols[i]
		clear(c.Nums) // Padded counts on spare cells being zero
		clear(c.Strs)
		clear(c.Times)
		*c = Vector{idx: c.idx, Nums: c.Nums[:0], Strs: c.Strs[:0], Times: c.Times[:0]}
	}
	b.rs.n, b.err = 0, nil
	b.rs.ext.Store(nil)
}

// Build returns the accumulated ResultSet or the first append error.
func (b *Builder) Build() (*ResultSet, error) {
	if b.err != nil {
		return nil, b.err
	}
	return &b.rs, nil
}

// Clone returns a ResultSet sharing this one's (immutable) columns with an
// independent, reset cursor. The query cache keeps a clone of what it is
// given and then hands that one stored ResultSet to every reader, as a
// coalesced harvest hands its result to every follower: a ResultSet that
// came from either is shared. Read it (Len, Cell, RowAt, Metadata) and Merge
// it into a set of your own; never move its cursor or sort it — Clone it
// first if you need a cursor. Writing to a clone copies its column headers
// first, so the original never sees the write.
//
// A clone of a concatenation holds the same parts, and flattens on its own.
func (rs *ResultSet) Clone() *ResultSet {
	clone := rs.like()
	clone.n = rs.n
	if held := rs.parts(); held != nil {
		clone.ext.Store(&extra{parts: held})
	} else {
		clone.cols, clone.borrowed = rs.cols, true
	}
	return clone
}

// shareColumns returns rs's columns idx, column i of the answer being rs's
// column idx[i], sharing their arrays.
func (rs *ResultSet) shareColumns(idx []int) []Vector {
	cols := make([]Vector, 0, min(len(idx), len(rs.cols)))
	for i, j := range idx {
		if v := rs.Column(j); v != nil {
			cols = append(cols, v.shared())
			cols[len(cols)-1].idx = int16(i)
		}
	}
	return cols
}

// Ref names row Row of parts[Part], for a caller that reads several sets of
// one shape as one table of their rows in order.
type Ref struct{ Part, Row int32 }

// Gather returns a new set of shape meta holding the parts' rows sel names,
// in sel's order, or every row of every part in order when sel is nil. Its
// column i is the parts' column cols[i], or column i when cols is nil. The
// parts conform to one shape (Metadata.Conforms), and no part is written.
//
// An answer that is one whole part shares that part's arrays. An answer of
// several whole parts (sel nil) is their concatenation: it holds the parts,
// each projected onto the answer's columns, and copies nothing until a read
// of its cells (see extra). A selection copies the cells it keeps once, one
// array a column. Every answer carries no Source or Fetched, as a set merged
// from several has.
func Gather(meta *Metadata, parts []*ResultSet, sel []Ref, cols []int) *ResultSet {
	out := New(meta)
	if sel != nil {
		gatherRows(out, parts, sel, cols)
		return out
	}
	parts = Expand(parts)
	whole, filled, total := -1, 0, int32(0)
	for p, part := range parts {
		if part.n > 0 {
			whole, filled, total = p, filled+1, total+part.n
		}
	}
	switch {
	case total == 0:
	case filled == 1 && cols == nil:
		out.cols, out.n, out.borrowed = parts[whole].cols, total, true
	case filled == 1:
		out.cols, out.n = parts[whole].shareColumns(cols), total
	default:
		held := make([]*ResultSet, 0, filled)
		var views []ResultSet // the parts projected, one allocation for all
		if cols != nil {
			views = make([]ResultSet, 0, filled)
		}
		for _, part := range parts {
			switch {
			case part.n == 0:
				continue
			case cols != nil:
				views = append(views, ResultSet{meta: meta, cols: part.shareColumns(cols), n: part.n, cursor: -1})
				part = &views[len(views)-1]
			}
			held = append(held, part)
		}
		out.n = total
		out.ext.Store(&extra{parts: held})
	}
	return out
}

// appendPart appends part's rows to rs, part's column cols[i] becoming rs's
// column i (every column as it is when cols is nil). The caller has called
// own.
func (rs *ResultSet) appendPart(part *ResultSet, cols []int) {
	if held := part.parts(); held != nil {
		for _, p := range held {
			rs.appendPart(p, cols)
		}
		return
	}
	for k := 0; cols == nil && k < len(part.cols); k++ {
		src := &part.cols[k]
		rs.live(int(src.idx)).AppendRange(int(rs.n), src, 0, int(part.n), int(rs.room))
	}
	for i, c := range cols {
		if src := part.Column(c); src != nil {
			rs.live(i).AppendRange(int(rs.n), src, 0, int(part.n), int(rs.room))
		}
	}
	rs.n += part.n
}

// column is the input column of an answer's column i.
func column(cols []int, i int) int {
	if cols == nil {
		return i
	}
	return cols[i]
}

// gatherRows fills out, of shape out.meta, with the parts' rows sel, in
// sel's order: each column's cells copied into one array.
func gatherRows(out *ResultSet, parts []*ResultSet, sel []Ref, cols []int) {
	out.n = int32(len(sel))
	if len(sel) == 0 {
		return
	}
	out.cols = make([]Vector, 0, min(width(parts), len(out.meta.cols)))
	for i := range out.meta.cols {
		if !slices.ContainsFunc(parts, func(p *ResultSet) bool { return p.Column(column(cols, i)) != nil }) {
			continue // NULL in every part
		}
		dst, at, src := Vector{idx: int16(i)}, int32(-1), (*Vector)(nil)
		for k, ref := range sel {
			if ref.Part != at { // a part's rows tend to come together
				at, src = ref.Part, parts[ref.Part].Column(column(cols, i))
			}
			if src != nil {
				dst.Set(k, src.Cell(int(ref.Row)), len(sel))
			}
		}
		if dst.Nulls != AllNull {
			out.cols = append(out.cols, dst)
		}
	}
}

// gather returns a new ResultSet holding rs's rows sel, in sel's order.
func (rs *ResultSet) gather(sel []Ref) *ResultSet {
	out := Gather(rs.meta, []*ResultSet{rs}, sel, nil)
	out.Source, out.Fetched = rs.Source, rs.Fetched
	return out
}

// SortBy sorts rows (stably) by the named column; desc reverses the order.
// NULLs sort first ascending, last descending.
func (rs *ResultSet) SortBy(col string, desc bool) error {
	sorted, err := rs.SortedBy(col, desc)
	if err != nil {
		return err
	}
	rs.cols, rs.borrowed = sorted.cols, false
	rs.ext.Store(nil)
	rs.Reset()
	return nil
}

// SortedBy returns a new ResultSet with the rows sorted by the named
// column, leaving rs untouched: the copy-on-write companion to SortBy for
// result sets other readers may still hold.
func (rs *ResultSet) SortedBy(col string, desc bool) (*ResultSet, error) {
	i := rs.meta.ColumnIndex(col)
	if i < 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoColumn, col)
	}
	perm := make([]Ref, rs.n)
	for r := range perm {
		perm[r].Row = int32(r)
	}
	if v := rs.Column(i); v != nil {
		slices.SortStableFunc(perm, func(a, b Ref) int {
			if desc {
				a, b = b, a
			}
			return CompareCells(v.Cell(int(a.Row)), v.Cell(int(b.Row)))
		})
	}
	return rs.gather(perm), nil
}

// Merge appends the rows of other, which must have the same column names
// and kinds in the same order, into rs.
func (rs *ResultSet) Merge(other *ResultSet) error {
	if err := rs.meta.Conforms(other.meta); err != nil {
		return err
	}
	rs.own()
	if rs.cols == nil {
		rs.hold(width([]*ResultSet{other}))
	}
	rs.appendPart(other, nil)
	return nil
}

// String renders the ResultSet as a compact aligned table, for logs and CLI
// output. The cursor is not moved.
func (rs *ResultSet) String() string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(rs.meta.ColumnNames(), "\t"))
	for r := 0; r < int(rs.n); r++ {
		for c := range rs.meta.cols {
			s := "NULL"
			switch v := rs.Cell(r, c); {
			case v.Null:
			case v.Kind == glue.Float:
				s = strconv.FormatFloat(v.Float, 'f', 2, 64)
			case v.Kind == glue.Time:
				s = v.Time.Format(time.RFC3339)
			default:
				s = fmt.Sprint(v.Value())
			}
			fmt.Fprint(w, s, "\t")
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return sb.String()
}
