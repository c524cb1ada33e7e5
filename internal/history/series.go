package history

import (
	"slices"
	"time"

	"gridrm/internal/glue"
)

// The store's arrays are append-only: a write either appends past every
// length handed out so far or builds fresh arrays (compaction, late insert).
// No element below a published length is ever written again, so a shallow
// copy of a series (frozen) is a consistent point-in-time image that can be
// read with no lock while writers carry on.

// bitmap is an append-only bit vector whose value is its own snapshot:
// completed 64-bit words live in words, the word still filling lives in tail
// by value. A bitmap that kept its last, partial word in the shared slice
// would be written by the next append while a frozen copy reads it.
// The length is the caller's: every bitmap here is as long as its column.
type bitmap struct {
	words []uint64
	tail  uint64
}

// newBitmap returns n bits, all set to bit, with room for spare more.
func newBitmap(n, spare int, bit bool) bitmap {
	b := bitmap{words: make([]uint64, n>>6, (n+spare)>>6+1)}
	if bit {
		for i := range b.words {
			b.words[i] = ^uint64(0)
		}
		b.tail = 1<<(n&63) - 1
	}
	return b
}

// push appends bit as bit number n.
func (b *bitmap) push(n int, bit bool) {
	if bit {
		b.tail |= 1 << (n & 63)
	}
	if n&63 == 63 {
		b.words = append(b.words, b.tail)
		b.tail = 0
	}
}

func (b *bitmap) get(i int) bool {
	w := b.tail
	if i>>6 < len(b.words) {
		w = b.words[i>>6]
	}
	return w>>(i&63)&1 != 0
}

// slice returns bits [from, to) as a fresh bitmap with room for as many
// again, and how many of them are set.
func (b *bitmap) slice(from, to int) (bitmap, int) {
	out := newBitmap(0, 2*(to-from), false)
	set := 0
	for i := from; i < to; i++ {
		bit := b.get(i)
		if bit {
			set++
		}
		out.push(i-from, bit)
	}
	return out, set
}

// Which rows of a column are NULL.
const (
	allNull  = iota // every row; the column holds no arrays at all
	noNull          // none; no validity bitmap
	someNull        // those whose valid bit is 0
)

// dictScan is the dictionary size up to which a linear scan finds a string;
// past it the column builds a map. Host names, models and vendors — one or
// two distinct values per series — never pay for the map.
const dictScan = 8

// column holds one GLUE field of a series, one element per row, in the array
// its kind selects. NULL rows hold a zero placeholder.
type column struct {
	kind  glue.Kind
	nulls int

	ints   []int64   // Int values; Time as Unix nanoseconds; Bool as 0 or 1
	floats []float64 // Float values
	codes  []uint32  // String values, as indexes into dict
	// dict holds each distinct string once, already boxed, so reading a
	// String cell allocates nothing. index is written and read by the
	// writer only; a frozen copy never touches it.
	dict  []any
	index map[string]uint32

	valid bitmap // used while nulls == someNull
}

// push appends v as row n. The caller has checked v against the kind.
func (c *column) push(n int, v any) {
	if v == nil {
		switch c.nulls {
		case allNull:
			return
		case noNull:
			c.valid, c.nulls = newBitmap(n, n, true), someNull
		}
		c.valid.push(n, false)
	} else {
		if c.nulls == allNull {
			// The first value after n NULL rows: materialise them.
			c.nulls = noNull
			if n > 0 {
				c.valid, c.nulls = newBitmap(n, n, false), someNull
				switch c.kind {
				case glue.String:
					c.codes = make([]uint32, n, 2*n)
				case glue.Float:
					c.floats = make([]float64, n, 2*n)
				default:
					c.ints = make([]int64, n, 2*n)
				}
			}
		}
		if c.nulls == someNull {
			c.valid.push(n, true)
		}
	}
	switch c.kind {
	case glue.String:
		var code uint32
		if v != nil {
			code = c.code(v.(string))
		}
		c.codes = append(c.codes, code)
	case glue.Float:
		f, _ := v.(float64)
		c.floats = append(c.floats, f)
	default:
		var i int64
		switch v := v.(type) {
		case int64:
			i = v
		case time.Time:
			i = v.UnixNano()
		case bool:
			if v {
				i = 1
			}
		}
		c.ints = append(c.ints, i)
	}
}

// code returns v's dictionary code, adding v on first sight.
func (c *column) code(v string) uint32 {
	if c.index == nil {
		for i, d := range c.dict {
			if d.(string) == v {
				return uint32(i)
			}
		}
		if len(c.dict) < dictScan {
			c.dict = append(c.dict, v)
			return uint32(len(c.dict) - 1)
		}
		c.index = make(map[string]uint32, 2*len(c.dict))
		for i, d := range c.dict {
			c.index[d.(string)] = uint32(i)
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

func (c *column) null(r int) bool {
	return c.nulls == allNull || c.nulls == someNull && !c.valid.get(r)
}

// cell returns row r as the value a ResultSet row holds.
func (c *column) cell(r int) any {
	if c.null(r) {
		return nil
	}
	switch c.kind {
	case glue.String:
		return c.dict[c.codes[r]]
	case glue.Float:
		return c.floats[r]
	case glue.Bool:
		return c.ints[r] != 0
	case glue.Time:
		return time.Unix(0, c.ints[r])
	default:
		return c.ints[r]
	}
}

// slice returns rows [from, to) in fresh arrays with room for as many again.
// The dictionary keeps only strings those rows use, and the NULL state is
// re-derived, so a column whose NULLs (or values) have all aged out stops
// paying for them.
func (c *column) slice(from, to int) column {
	out := column{kind: c.kind, nulls: c.nulls}
	n := to - from
	if c.nulls == someNull {
		var set int
		out.valid, set = c.valid.slice(from, to)
		switch set {
		case 0:
			out.nulls = allNull
		case n:
			out.valid, out.nulls = bitmap{}, noNull
		}
	}
	if out.nulls == allNull {
		return column{kind: c.kind}
	}
	switch c.kind {
	case glue.String:
		out.codes = make([]uint32, n, 2*n)
		remap := make([]uint32, len(c.dict)) // old code → new code + 1
		for i := range out.codes {
			if c.null(from + i) {
				continue
			}
			old := c.codes[from+i]
			if remap[old] == 0 {
				remap[old] = out.code(c.dict[old].(string)) + 1
			}
			out.codes[i] = remap[old] - 1
		}
	case glue.Float:
		out.floats = append(make([]float64, 0, 2*n), c.floats[from:to]...)
	default:
		out.ints = append(make([]int64, 0, 2*n), c.ints[from:to]...)
	}
	return out
}

// series is the history of one (group, source): samples in ascending time
// order, each a run of consecutive rows, the rows held column-major.
// Retention advances head; the arrays are rebuilt without the dead prefix
// once it is half of them, so dropping a sample is amortised O(1) and no
// write copies the series.
type series struct {
	source string
	boxed  any // source, boxed once for the SourceURL cell

	head  int     // index of the oldest retained sample
	times []int64 // sample times, Unix nanoseconds, ascending
	ends  []int32 // ends[i] is the row index one past sample i's last row
	cols  []column
}

func newSeries(g *glue.Group, source string) *series {
	s := &series{source: source, boxed: source, cols: make([]column, len(g.Fields))}
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

// push appends a sample of n rows newer than (or as new as) every other.
func (s *series) push(at int64, n int, rowAt func(int) []any) {
	r := s.rowStart(len(s.times))
	for i := 0; i < n; i++ {
		for c, v := range rowAt(i) {
			s.cols[c].push(r+i, v)
		}
	}
	s.times = append(s.times, at)
	s.ends = append(s.ends, int32(r+n))
}

// insert places a late sample before sample i. Shifting the arrays would
// write below published lengths, so the series is rebuilt around it:
// samples before i are copied in bulk, those from i on re-appended.
func (s *series) insert(i int, at int64, n int, rowAt func(int) []any) {
	old := *s
	*s = old.slice(old.head, i)
	s.push(at, n, rowAt)
	var cells []any
	var rows [][]any
	for j := i; j < len(old.times); j++ {
		rows = rows[:0]
		cells = old.sample(cells[:0], j, len(old.cols), func(row []any) { rows = append(rows, row) })
		s.push(old.times[j], len(rows), func(k int) []any { return rows[k] })
	}
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
	r0, r1 := s.rowStart(from), s.rowStart(to)
	n := to - from
	out := series{
		source: s.source, boxed: s.boxed,
		times: append(make([]int64, 0, 2*n), s.times[from:to]...),
		ends:  make([]int32, n, 2*n),
		cols:  make([]column, len(s.cols)),
	}
	for i := range out.ends {
		out.ends[i] = s.ends[from+i] - int32(r0)
	}
	for c := range s.cols {
		out.cols[c] = s.cols[c].slice(r0, r1)
	}
	return out
}

// frozen returns a point-in-time image of the series that stays valid, and
// race-free to read, after the store's lock is released.
func (s *series) frozen() series {
	f := *s
	f.cols = append([]column(nil), s.cols...)
	return f
}

// sample appends sample i's rows to cells, width cells each — the fields
// first, any beyond them nil for the caller — and hands emit every row as
// its own slice, capped so that appending to one cannot reach the next. The
// cells are filled a column at a time, and a column that holds only NULLs
// costs nothing. It returns the grown cells.
func (s *series) sample(cells []any, i, width int, emit func(row []any)) []any {
	from, to := s.rowStart(i), int(s.ends[i])
	start := len(cells)
	cells = slices.Grow(cells, (to-from)*width)[:start+(to-from)*width]
	clear(cells[start:])
	for c := range s.cols {
		if col := &s.cols[c]; col.nulls != allNull {
			for r, k := from, start+c; r < to; r, k = r+1, k+width {
				cells[k] = col.cell(r)
			}
		}
	}
	for k := start; k < len(cells); k += width {
		emit(cells[k : k+width : k+width])
	}
	return cells
}
