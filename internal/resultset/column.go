package resultset

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"gridrm/internal/glue"
)

// Cell is one value of a ResultSet by value: what a []any row held boxed.
// Kind says which field holds it (Bool is Int 0 or 1); the NULL cell is
// Cell{Null: true}.
type Cell struct {
	Kind  glue.Kind
	Null  bool
	Int   int64
	Float float64
	Str   string
	Time  time.Time
}

// nonFinite is the one NULL rule every route shares: JSON has no NaN or Inf,
// and a driver's 0/0 is an unknown value, which is what SQL NULL means. Set
// and CellOf apply it, so no column and no comparison ever sees one.
func nonFinite(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }

// CellOf unboxes a row value: nil and a non-finite float64 are NULL, and a
// value of no GLUE type is held as its formatted string.
func CellOf(v any) Cell {
	switch x := v.(type) {
	case nil:
		return Cell{Null: true}
	case string:
		return Cell{Kind: glue.String, Str: x}
	case int64:
		return Cell{Kind: glue.Int, Int: x}
	case float64:
		return Cell{Kind: glue.Float, Float: x, Null: nonFinite(x)}
	case bool:
		if x {
			return Cell{Kind: glue.Bool, Int: 1}
		}
		return Cell{Kind: glue.Bool}
	case time.Time:
		return Cell{Kind: glue.Time, Time: x}
	}
	return Cell{Kind: glue.String, Str: fmt.Sprint(v)}
}

// Value boxes the cell as the value a []any row holds (nil for NULL).
func (c Cell) Value() any {
	switch {
	case c.Null:
		return nil
	case c.Kind == glue.String:
		return c.Str
	case c.Kind == glue.Float:
		return c.Float
	case c.Kind == glue.Bool:
		return c.Int != 0
	case c.Kind == glue.Time:
		return c.Time
	}
	return c.Int
}

// Numeric reports whether the cell holds an Int or a Float.
func (c Cell) Numeric() bool { return c.Kind == glue.Int || c.Kind == glue.Float }

// AsFloat returns a Numeric cell's value, an Int widened.
func (c Cell) AsFloat() float64 {
	if c.Kind == glue.Float {
		return c.Float
	}
	return float64(c.Int)
}

// CompareCells orders two cells. NULL sorts before everything; numbers
// compare numerically across Int and Float; strings, bools and times compare
// naturally; mismatched kinds fall back to formatted strings.
func CompareCells(a, b Cell) int {
	switch {
	case a.Null || b.Null:
		return cmp.Compare(btoi(b.Null), btoi(a.Null))
	case a.Kind != b.Kind && !(a.Numeric() && b.Numeric()):
		return strings.Compare(fmt.Sprint(a.Value()), fmt.Sprint(b.Value()))
	case a.Kind == glue.String:
		return strings.Compare(a.Str, b.Str)
	case a.Kind == glue.Time:
		return a.Time.Compare(b.Time)
	case a.Kind == glue.Float || b.Kind == glue.Float:
		return cmp.Compare(a.AsFloat(), b.AsFloat())
	}
	return cmp.Compare(a.Int, b.Int)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// AppendCellKey appends to dst an encoding of c usable in a grouping map
// key. Values are tagged by kind so that, say, Int 1 and "1" produce
// distinct keys, and end in a separator that cannot occur inside the encoded
// forms. A caller that reuses dst and looks groups up with m[string(dst)]
// allocates a key only when it stores a new group, not for every row.
func AppendCellKey(dst []byte, c Cell) []byte {
	switch {
	case c.Null:
		dst = append(dst, 'n')
	case c.Kind == glue.String:
		dst = append(strconv.AppendInt(append(dst, 's'), int64(len(c.Str)), 10), ':')
		dst = append(dst, c.Str...)
	case c.Kind == glue.Float:
		dst = strconv.AppendFloat(append(dst, 'f'), c.Float, 'g', -1, 64)
	case c.Kind == glue.Bool:
		dst = strconv.AppendBool(append(dst, 'b'), c.Int != 0)
	case c.Kind == glue.Time:
		dst = strconv.AppendInt(append(dst, 't'), c.Time.UnixNano(), 10)
	default:
		dst = strconv.AppendInt(append(dst, 'i'), c.Int, 10)
	}
	return append(dst, 0)
}

// AppendGroupKey is AppendCellKey over a boxed row's values at the given
// column indexes.
func AppendGroupKey(dst []byte, row []any, cols []int) []byte {
	for _, i := range cols {
		dst = AppendCellKey(dst, CellOf(row[i]))
	}
	return dst
}

// The arrays below are append-only: a write either appends past every length
// handed out so far or builds fresh arrays. No element below a published
// length is ever written again, so a shallow copy of a Vector is a
// consistent point-in-time image that can be read while its original grows.

// bitmap is an append-only bit vector whose value is its own snapshot:
// completed 64-bit words live in words, the word still filling lives in tail
// by value. A bitmap that kept its last, partial word in the shared slice
// would be written by the next set while a copy reads it.
type bitmap struct {
	words []uint64
	tail  uint64
}

// ones returns n set bits with room for room bits before words is regrown.
func ones(n, room int) bitmap {
	b := bitmap{words: make([]uint64, n>>6, max(n, room)>>6), tail: 1<<(n&63) - 1}
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	return b
}

// set sets bit n, which no bit set so far follows; the bits skipped are 0.
func (b *bitmap) set(n int) {
	for len(b.words) < n>>6 {
		b.words = append(b.words, b.tail)
		b.tail = 0
	}
	b.tail |= 1 << (n & 63)
}

func (b *bitmap) get(i int) bool {
	w := b.tail
	if i>>6 < len(b.words) {
		w = b.words[i>>6]
	}
	return w>>(i&63)&1 != 0
}

// Which rows of a Vector are NULL.
const (
	AllNull  uint8 = iota // every row; the Vector holds no arrays at all
	NoNull                // none below Rows; no validity bitmap
	SomeNull              // below Rows, those whose valid bit is 0
)

// Vector holds one column's cells, one element per row, in the array their
// kind selects. It hears about values only: a row never Set is NULL, so a
// column that is entirely NULL holds nothing and trailing NULLs cost nothing;
// a NULL row between values holds a zero placeholder. The caller counts rows.
type Vector struct {
	kind  uint8 // glue.Kind of the cells held
	Nulls uint8
	idx   int16 // the ResultSet column this is; live columns only are held
	Rows  int32 // one past the last row that holds a value

	Nums  []int64 // Int values; Bool as 0 or 1; Float as its IEEE-754 bits
	Strs  []string
	Times []time.Time
	valid bitmap // used while Nulls == SomeNull
}

// Null reports whether row r is NULL.
func (c *Vector) Null(r int) bool {
	return r >= int(c.Rows) || c.Nulls == SomeNull && !c.valid.get(r)
}

// Cell returns row r.
func (c *Vector) Cell(r int) Cell {
	switch k := glue.Kind(c.kind); {
	case c.Null(r):
		return Cell{Null: true}
	case k == glue.String:
		return Cell{Kind: k, Str: c.Strs[r]}
	case k == glue.Time:
		return Cell{Kind: k, Time: c.Times[r]}
	case k == glue.Float:
		return Cell{Kind: k, Float: math.Float64frombits(uint64(c.Nums[r]))}
	default:
		return Cell{Kind: k, Int: c.Nums[r]}
	}
}

// Mark notes that row n, which follows every row marked so far, holds a
// value, for a caller that keeps the values itself.
func (c *Vector) Mark(n, room int) {
	if c.Nulls != SomeNull && n > int(c.Rows) {
		// Rows were skipped: from here on a bitmap says which hold values.
		c.valid, c.Nulls = ones(int(c.Rows), room), SomeNull
	}
	if c.Nulls == SomeNull {
		c.valid.set(n)
	} else {
		c.Nulls = NoNull
	}
	c.Rows = int32(n + 1)
}

// Set stores v as row n, which follows every row set so far; a NULL or
// non-finite v stores nothing. An array made here has room for room rows.
func (c *Vector) Set(n int, v Cell, room int) {
	if v.Null || v.Kind == glue.Float && nonFinite(v.Float) {
		return
	}
	c.Mark(n, room)
	c.kind = uint8(v.Kind)
	switch v.Kind {
	case glue.String:
		c.Strs = append(Padded(c.Strs, n, room), v.Str)
	case glue.Time:
		c.Times = append(Padded(c.Times, n, room), v.Time)
	case glue.Float:
		c.Nums = append(Padded(c.Nums, n, room), int64(math.Float64bits(v.Float)))
	default:
		c.Nums = append(Padded(c.Nums, n, room), v.Int)
	}
}

// Padded returns s as n cells, the ones it gains zero, ready for cell n to
// be appended: in place when s has the room (nothing writes past a length
// but append, so spare cells are still zero), in a fresh array of at least
// room cells otherwise.
func Padded[T any](s []T, n, room int) []T {
	if cap(s) > n {
		return s[:n]
	}
	if len(s) == n && room <= n {
		return s // full: append doubles it
	}
	return append(make([]T, 0, max(room, 2*n+1)), s...)[:n]
}

// AppendRange stores src's rows [from, to) as rows n onwards.
func (c *Vector) AppendRange(n int, src *Vector, from, to, room int) {
	if to = min(to, int(src.Rows)); from >= to {
		return
	}
	if src.Nulls != NoNull || c.Nulls == SomeNull || int(c.Rows) != n {
		for r := from; r < to; r++ {
			c.Set(n+r-from, src.Cell(r), room)
		}
		return
	}
	// Dense onto dense: whole arrays.
	c.kind, c.Nulls, c.Rows = src.kind, NoNull, int32(n+to-from)
	switch glue.Kind(src.kind) {
	case glue.String:
		c.Strs = append(Padded(c.Strs, n, room), src.Strs[from:to]...)
	case glue.Time:
		c.Times = append(Padded(c.Times, n, room), src.Times[from:to]...)
	default:
		c.Nums = append(Padded(c.Nums, n, room), src.Nums[from:to]...)
	}
}

// shared returns c for another set to hold: the same arrays, clipped so that
// a Set there cannot write into them.
func (c Vector) shared() Vector {
	c.Nums, c.Strs, c.Times = slices.Clip(c.Nums), slices.Clip(c.Strs), slices.Clip(c.Times)
	c.valid.words = slices.Clip(c.valid.words)
	return c
}

// reserve makes room for room rows in the arrays in use.
func (c *Vector) reserve(room int) {
	c.Nums, c.Strs, c.Times = grown(c.Nums, room), grown(c.Strs, room), grown(c.Times, room)
}

func grown[T any](s []T, room int) []T {
	if len(s) == 0 || cap(s) >= room {
		return s
	}
	return append(make([]T, 0, room), s...)
}
