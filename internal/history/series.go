package history

import (
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// The store's arrays are append-only, as resultset.Vector's are: compaction
// and a late insert build fresh ones. A shallow copy of a series (frozen) is
// therefore a consistent point-in-time image that can be read with no lock
// while writers carry on.

// dictScan is the dictionary size up to which a linear scan finds a string;
// past it the column builds a map. Host names, models and vendors — one or
// two distinct values per series — never pay for the map.
const dictScan = 8

// column holds one GLUE field of a series on the ResultSet's own column
// layout. The Vector says which rows are NULL and holds the cells of every
// kind but two: a Time cell is kept as an Int of Unix nanoseconds, the
// journal's representation, and a String cell as a dictionary code.
type column struct {
	kind glue.Kind
	resultset.Vector

	codes []uint32 // String values, as indexes into dict
	// dict holds each distinct string once. index is written and read by the
	// writer only; a frozen copy never touches it.
	dict  []string
	index map[string]uint32
}

// set stores v, NULL or of the column's kind, as row n, which follows every
// row set so far. An array made here has room for room rows.
func (c *column) set(n int, v resultset.Cell, room int) {
	switch {
	case v.Null:
	case c.kind == glue.String:
		c.Mark(n, room)
		c.codes = append(resultset.Padded(c.codes, n, room), c.code(v.Str))
	case c.kind == glue.Time: // checked by the store to be in range
		c.Set(n, resultset.Cell{Kind: glue.Int, Int: v.Time.UnixNano()}, room)
	default:
		c.Set(n, v, room)
	}
}

// code returns v's dictionary code, adding v on first sight.
func (c *column) code(v string) uint32 {
	if c.index == nil {
		for i, d := range c.dict {
			if d == v {
				return uint32(i)
			}
		}
		if len(c.dict) < dictScan {
			c.dict = append(c.dict, v)
			return uint32(len(c.dict) - 1)
		}
		c.index = make(map[string]uint32, 2*len(c.dict))
		for i, d := range c.dict {
			c.index[d] = uint32(i)
		}
	}
	code, ok := c.index[v]
	if !ok {
		code = uint32(len(c.dict))
		c.dict = append(c.dict, v)
		c.index[v] = code
	}
	return code
}

// at returns row r as a cell of the column's kind.
func (c *column) at(r int) resultset.Cell {
	switch {
	case c.Null(r):
		return resultset.Cell{Null: true}
	case c.kind == glue.String:
		return resultset.Cell{Kind: glue.String, Str: c.dict[c.codes[r]]}
	case c.kind == glue.Time:
		return resultset.Cell{Kind: glue.Time, Time: time.Unix(0, c.Nums[r])}
	}
	return c.Cell(r)
}

// copyIn stores rows [from, to) of src, a ResultSet's column of this
// column's kind, as rows n onwards.
func (c *column) copyIn(n int, src *resultset.Vector, from, to, room int) {
	if c.kind != glue.String && c.kind != glue.Time {
		c.AppendRange(n, src, from, to, room)
		return
	}
	for r := from; r < min(to, int(src.Rows)); r++ {
		c.set(n+r-from, src.Cell(r), room)
	}
}

// appendFrom stores rows [from, to) of src, another series' column of this
// field, as rows n onwards. The dictionary gains only strings those rows use
// and the NULL state is re-derived, so a rebuilt column whose NULLs (or
// values) have all aged out stops paying for them.
func (c *column) appendFrom(n int, src *column, from, to, room int) {
	if c.kind != glue.String { // a Time stays the Int it is
		c.AppendRange(n, &src.Vector, from, to, room)
		return
	}
	for r := from; r < min(to, int(src.Rows)); r++ {
		c.set(n+r-from, src.at(r), room)
	}
}

// series is the history of one (group, source): samples in ascending time
// order, each a run of consecutive rows, the rows held column-major.
// Retention advances head; the arrays are rebuilt without the dead prefix
// once it is half of them, so dropping a sample is amortised O(1) and no
// write copies the series.
type series struct {
	source string

	head  int     // index of the oldest retained sample
	times []int64 // sample times, Unix nanoseconds, ascending
	ends  []int32 // ends[i] is the row index one past sample i's last row
	cols  []column
}

func newSeries(g *glue.Group, source string) *series {
	s := &series{source: source, cols: make([]column, len(g.Fields))}
	for i, f := range g.Fields {
		s.cols[i].kind = f.Kind
	}
	return s
}

func (s *series) live() int { return len(s.times) - s.head }

// rowStart returns the index of sample i's first row; i may be len(times).
func (s *series) rowStart(i int) int {
	if i == 0 {
		return 0
	}
	return int(s.ends[i-1])
}

// push appends a sample of n rows newer than (or as new as) every other;
// put stores the sample's cells of column c, the first of them as row r.
func (s *series) push(at int64, n int, put func(c int, col *column, r int)) {
	r := s.rowStart(len(s.times))
	for c := range s.cols {
		put(c, &s.cols[c], r)
	}
	s.times = append(s.times, at)
	s.ends = append(s.ends, int32(r+n))
}

// extend appends src's samples [from, to), which are newer than every other.
func (s *series) extend(src *series, from, to, room int) {
	r, r0, r1 := s.rowStart(len(s.times)), src.rowStart(from), src.rowStart(to)
	for c := range s.cols {
		s.cols[c].appendFrom(r, &src.cols[c], r0, r1, room)
	}
	s.times = append(s.times, src.times[from:to]...)
	for _, end := range src.ends[from:to] {
		s.ends = append(s.ends, end-int32(r0-r))
	}
}

// insert places a late sample before sample i. Shifting the arrays would
// write below published lengths, so the series is rebuilt around it:
// samples before i are copied out, the sample pushed, the rest re-appended.
func (s *series) insert(i int, at int64, n int, put func(c int, col *column, r int)) {
	old := *s
	*s = old.slice(old.head, i)
	s.push(at, n, put)
	s.extend(&old, i, len(old.times), 0)
}

// minCompact is the dead prefix below which a series is not rebuilt: a
// handful of dead samples cost less than the rebuild's allocations, which a
// series capped at a few samples would otherwise pay on every write.
const minCompact = 16

// drop retires the k oldest samples, rebuilding the arrays when at least
// half of them (and minCompact samples) are dead.
func (s *series) drop(k int) {
	s.head += k
	if s.head >= minCompact && 2*s.head >= len(s.times) {
		*s = s.slice(s.head, len(s.times))
	}
}

// slice returns samples [from, to) as a fresh series with room for as many
// again: what a series at its cap appends before the next rebuild.
func (s *series) slice(from, to int) series {
	n := to - from
	out := series{
		source: s.source,
		times:  make([]int64, 0, 2*n),
		ends:   make([]int32, 0, 2*n),
		cols:   make([]column, len(s.cols)),
	}
	for c := range out.cols {
		out.cols[c].kind = s.cols[c].kind
	}
	out.extend(s, from, to, 2*(s.rowStart(to)-s.rowStart(from)))
	return out
}

// frozen returns a point-in-time image of the series that stays valid, and
// race-free to read, after the store's lock is released.
func (s *series) frozen() series {
	f := *s
	f.cols = append([]column(nil), s.cols...)
	return f
}

// liveColumns counts the columns that hold a value.
func (s *series) liveColumns() (n int) {
	for c := range s.cols {
		if s.cols[c].Nulls != resultset.AllNull {
			n++
		}
	}
	return n
}

// copyOut adds samples [lo, hi) to b as rows, a column at a time: the cells
// the Vector holds as the result wants them go over as one range, a String or
// a Time cell by cell, and a column that holds only NULLs costs nothing.
// With provenance, each row also gets its SourceURL and SampledAt.
func (s *series) copyOut(b *resultset.Builder, lo, hi int, provenance bool) {
	from, to := s.rowStart(lo), s.rowStart(hi)
	for c := range s.cols {
		switch col := &s.cols[c]; {
		case col.Nulls == resultset.AllNull:
		case col.kind == glue.String || col.kind == glue.Time:
			for r := from; r < min(to, int(col.Rows)); r++ {
				b.Put(r-from, c, col.at(r))
			}
		default:
			b.Range(c, &col.Vector, from, to)
		}
	}
	for i := lo; provenance && i < hi; i++ {
		at := resultset.Cell{Kind: glue.Time, Time: time.Unix(0, s.times[i])}
		for r := s.rowStart(i); r < int(s.ends[i]); r++ {
			b.Put(r-from, len(s.cols), resultset.Cell{Kind: glue.String, Str: s.source})
			b.Put(r-from, len(s.cols)+1, at)
		}
	}
	b.Rows(to - from)
}
