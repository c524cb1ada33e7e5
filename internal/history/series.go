package history

import (
	"slices"
	"sort"
	"time"
	"unsafe"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// A series is the history of one (group, source): sealed chunks, oldest
// first, then the open chunk (chunk.go). No reader ever sees a byte being
// written. A sealed chunk is never changed, and the slice of them is
// rebuilt, not written, when it changes; the open chunk's arrays are
// append-only, as resultset.Vector's are, and a late sample rebuilds them.
// So a shallow copy of a series, with the open chunk's column headers
// copied (frozen), is a point-in-time image a reader can use with no lock
// while writers carry on.

// dictScan is the dictionary size up to which a linear scan finds a string;
// past it the column builds a map. Host names, models and vendors — one or
// two distinct values per series — never pay for the map.
const dictScan = 8

// column holds one GLUE field of the open chunk on the ResultSet's own
// column layout. The Vector says which rows are NULL and holds the cells of
// every kind but two: a Time cell is kept as an Int of Unix nanoseconds, the
// journal's representation, and a String cell as a dictionary code.
type column struct {
	idx  int // the group field
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

// appendFrom stores rows [from, to) of src, another open chunk's column of
// this field, as rows n onwards. The dictionary gains only strings those
// rows use.
func (c *column) appendFrom(n int, src *column, from, to, room int) {
	if c.kind != glue.String { // a Time stays the Int it is
		c.AppendRange(n, &src.Vector, from, to, room)
		return
	}
	for r := from; r < min(to, int(src.Rows)); r++ {
		c.set(n+r-from, src.at(r), room)
	}
}

// put adds rows [r0, r1) to b as its column c.idx of the rows not yet
// completed: as a range of the Vector, or decoded straight into b's column
// when every one of them holds a value, or else a cell at a time.
func (c *column) put(b *resultset.Builder, r0, r1 int) {
	if int(c.Rows) <= r0 {
		return // NULL throughout
	}
	if c.kind != glue.String && c.kind != glue.Time {
		b.Range(c.idx, &c.Vector, r0, r1)
		return
	}
	if c.Nulls == resultset.NoNull && int(c.Rows) >= r1 {
		if _, strs, times, ok := b.Dense(0, c.idx, c.kind, r1-r0); ok {
			if c.kind == glue.String {
				for r := r0; r < r1; r++ {
					strs[r-r0] = c.dict[c.codes[r]]
				}
			} else {
				for r := r0; r < r1; r++ {
					times[r-r0] = time.Unix(0, c.Nums[r])
				}
			}
			return
		}
	}
	for r := r0; r < min(r1, int(c.Rows)); r++ {
		if !c.Null(r) {
			b.Put(r-r0, c.idx, c.at(r))
		}
	}
}

// holds reports whether any of rows [from, to) holds a value.
func (c *column) holds(from, to int) bool {
	for r := from; r < min(to, int(c.Rows)); r++ {
		if !c.Null(r) {
			return true
		}
	}
	return false
}

// open is the chunk a series appends to: sample times in ascending order,
// each sample a run of consecutive rows, the rows held column-major in the
// fields that hold a value. It holds at most chunkSamples samples. A
// series' first open chunk grows its arrays by doubling, so a key that
// never fills a chunk holds what it uses; once a series has filled one,
// each open chunk makes its arrays for a whole chunk (whole), and Record
// allocates once a chunk.
type open struct {
	times []int64  // Unix nanoseconds
	ends  []int32  // ends[i] is one past sample i's last row; nil while every sample has per rows
	per   int32    // rows in each sample while ends is nil
	cols  []column // in field order
	whole bool
}

// room returns the room an array made now for a chunk that holds r rows
// should have, a sample of n rows about to be added.
func (o *open) room(r, n int) int {
	if !o.whole {
		return 0 // doubling
	}
	return r + (chunkSamples-len(o.times))*n // this sample's rows in each sample still to come
}

// rowStart returns the index of sample i's first row; i may be len(times).
func (o *open) rowStart(i int) int {
	if o.ends == nil {
		return i * int(o.per)
	}
	if i == 0 {
		return 0
	}
	return int(o.ends[i-1])
}

// column returns field idx's column, adding it (in field order) if the
// chunk holds none; room is the columns a chunk made here has room for.
func (o *open) column(g *glue.Group, idx, room int) *column {
	i := 0
	for i < len(o.cols) && o.cols[i].idx < idx {
		i++
	}
	if i == len(o.cols) || o.cols[i].idx != idx {
		if o.cols == nil {
			o.cols = make([]column, 0, room)
		}
		o.cols = slices.Insert(o.cols, i, column{idx: idx, kind: g.Fields[idx].Kind})
	}
	return &o.cols[i]
}

// note appends a sample of n rows at time at, whose cells the columns
// already hold after every other sample's.
func (o *open) note(at int64, n int) {
	if o.times == nil {
		o.per = int32(n)
		if o.whole {
			o.times = make([]int64, 0, chunkSamples)
		}
	}
	r := o.rowStart(len(o.times))
	if o.ends == nil && int32(n) != o.per {
		o.ends = make([]int32, len(o.times), max(len(o.times), chunkSamples))
		for i := range o.ends {
			o.ends[i] = int32(i+1) * o.per
		}
	}
	o.times = append(o.times, at)
	if o.ends != nil {
		o.ends = append(o.ends, int32(r+n))
	}
}

// push appends the n rows of rs, a result in g's canonical shape, as a
// sample at time at that is as new as any in the chunk.
func (o *open) push(g *glue.Group, at int64, rs *resultset.ResultSet, n int) {
	r := o.rowStart(len(o.times))
	room := o.room(r, n)
	live := 0 // the columns a chunk's first sample fills, to size the chunk's
	for c := 0; o.cols == nil && c < len(g.Fields); c++ {
		if src := rs.Column(c); src != nil && src.Nulls != resultset.AllNull {
			live++
		}
	}
	for c := range g.Fields {
		if src := rs.Column(c); src != nil && src.Nulls != resultset.AllNull {
			o.column(g, c, live).copyIn(r, src, 0, n, room)
		}
	}
	o.note(at, n)
}

// extend appends src's samples [from, to), which are as new as any in o.
func (o *open) extend(g *glue.Group, src *open, from, to int) {
	r, r0, r1 := o.rowStart(len(o.times)), src.rowStart(from), src.rowStart(to)
	for i := range src.cols {
		if col := &src.cols[i]; col.holds(r0, r1) {
			o.column(g, col.idx, len(src.cols)).appendFrom(r, col, r0, r1, o.room(r, r1-r0))
		}
	}
	for i := from; i < to; i++ {
		o.note(src.times[i], src.rowStart(i+1)-src.rowStart(i))
	}
}

// insert rebuilds o as its samples [from, i), a sample of rs's n rows at
// time at, then its samples from i on. Shifting the arrays would write below
// lengths a reader may hold, so every array is fresh.
func (o *open) insert(g *glue.Group, from, i int, at int64, rs *resultset.ResultSet, n int) {
	old := *o
	*o = open{whole: old.whole}
	o.extend(g, &old, from, i)
	o.push(g, at, rs, n)
	o.extend(g, &old, i, len(old.times))
}

// bytes is what o's arrays hold, their spare room included.
func (o *open) bytes() int64 {
	n := cap(o.times)*8 + cap(o.ends)*4 + cap(o.cols)*int(unsafe.Sizeof(column{}))
	for i := range o.cols {
		c := &o.cols[i]
		n += cap(c.Nums)*8 + cap(c.codes)*4 + cap(c.dict)*16 + len(c.index)*mapEntryBytes
		if c.Nulls == resultset.SomeNull {
			n += (int(c.Rows) + 63) / 64 * 8
		}
	}
	return int64(n)
}

// mapEntryBytes is what a map entry keyed by a string costs, in slots and
// spare room: an estimate, for the byte gauge.
const mapEntryBytes = 48

// size rounds a small object's size up to its allocation size class, as
// the runtime does for the sizes used here.
func size(n uintptr) int64 { return int64(n+15) &^ 15 }

func (c *chunk) bytes() int64 {
	return size(unsafe.Sizeof(*c)) + int64(cap(c.buf)) + int64(cap(c.cols))*int64(unsafe.Sizeof(block{})) +
		int64(cap(c.dict))*16
}

// series is one (group, source)'s samples in time order: the sealed
// chunks, then the open chunk; sample i counts from the oldest held.
type series struct {
	source string
	head   int      // dead samples at the front of the oldest chunk, sealed or open
	n      int      // samples held, the dead included
	sealed []*chunk // oldest first
	open   open
	// sealedBytes is what the sealed chunks hold; bytes what the series
	// holds in all, as last added to the store's total.
	sealedBytes, bytes int64
}

func (s *series) live() int { return s.n - s.head }

// size is what the series holds: itself, its place in the store's map, its
// chunks, and the open chunk's arrays.
func (s *series) size() int64 {
	return size(unsafe.Sizeof(*s)) + mapEntryBytes + int64(cap(s.sealed))*8 + s.sealedBytes + s.open.bytes()
}

// parts calls fn with each chunk that holds samples of [lo, hi), oldest
// first, and its share [a, b) of them in the chunk's own numbering; c is
// nil for the open chunk.
func (s *series) parts(lo, hi int, fn func(c *chunk, a, b int)) {
	base := 0
	for _, c := range s.sealed {
		if a, b := max(lo-base, 0), min(hi-base, int(c.n)); a < b {
			fn(c, a, b)
		}
		base += int(c.n)
	}
	if a, b := max(lo-base, 0), min(hi-base, len(s.open.times)); a < b {
		fn(nil, a, b)
	}
}

// lastTime returns the time of the newest sample; the series holds one.
func (s *series) lastTime() int64 {
	if n := len(s.open.times); n > 0 {
		return s.open.times[n-1]
	}
	return s.sealed[len(s.sealed)-1].last
}

// search returns the first live sample for which ok, a predicate false and
// then true along the series' times, holds, or n if none does.
func (s *series) search(ok func(at int64) bool) int {
	base := 0
	for k, c := range s.sealed {
		if ok(c.last) {
			var times [chunkSamples]int64
			c.decodeTimes(&times)
			skip := 0
			if k == 0 {
				skip = s.head
			}
			return base + skip + sort.Search(int(c.n)-skip, func(j int) bool { return ok(times[skip+j]) })
		}
		base += int(c.n)
	}
	skip := 0
	if len(s.sealed) == 0 {
		skip = s.head
	}
	times := s.open.times
	return base + skip + sort.Search(len(times)-skip, func(j int) bool { return ok(times[skip+j]) })
}

// chunkRows returns the rows of the chunk a sample placed as sample i
// joins.
func (s *series) chunkRows(i int) int {
	for _, c := range s.sealed {
		if i < int(c.n) {
			return int(c.rows)
		}
		i -= int(c.n)
	}
	return s.open.rowStart(len(s.open.times))
}

// timeAt returns sample i's time.
func (s *series) timeAt(i int) int64 {
	if i == s.n-1 {
		return s.lastTime()
	}
	var at int64
	s.parts(i, i+1, func(c *chunk, a, _ int) {
		if c == nil {
			at = s.open.times[a]
			return
		}
		var times [chunkSamples]int64
		c.decodeTimes(&times)
		at = times[a]
	})
	return at
}

// expired counts the live samples older than cutoff.
func (s *series) expired(cutoff time.Time) int {
	var first int64 // the oldest sample held, dead or live
	if len(s.sealed) > 0 {
		first = s.sealed[0].first
	} else {
		first = s.open.times[0]
	}
	if !time.Unix(0, first).Before(cutoff) { // and nothing after it is
		return 0
	}
	return s.search(func(at int64) bool { return !time.Unix(0, at).Before(cutoff) }) - s.head
}

// push appends a sample newer than (or as new as) every other.
func (s *series) push(g *glue.Group, at int64, rs *resultset.ResultSet, n int) {
	s.open.push(g, at, rs, n)
	s.n++
}

// insert places a late sample as sample i, before the newest. The chunk it
// lands in is rebuilt around it: the open chunk in fresh arrays, a sealed
// one decoded, given the sample and sealed again as one or two chunks. The
// dead samples of a rebuilt oldest chunk are left out.
func (s *series) insert(g *glue.Group, e *sealer, i int, at int64, rs *resultset.ResultSet, n int) {
	base := 0
	for k, c := range s.sealed {
		if i-base >= int(c.n) {
			base += int(c.n)
			continue
		}
		from := 0
		if k == 0 {
			from, s.head, s.n = s.head, 0, s.n-s.head
		}
		o := c.reopen(g, from)
		o.insert(g, 0, i-base-from, at, rs, n)
		chunks := make([]*chunk, 0, len(s.sealed)+1)
		chunks = append(chunks, s.sealed[:k]...)
		if half := len(o.times) / 2; len(o.times) > chunkSamples {
			chunks = append(chunks, e.seal(&o, 0, half), e.seal(&o, half, len(o.times)))
		} else {
			chunks = append(chunks, e.seal(&o, 0, len(o.times)))
		}
		s.sealed = append(chunks, s.sealed[k+1:]...)
		s.sealedBytes = 0
		for _, c := range s.sealed {
			s.sealedBytes += c.bytes()
		}
		s.n++
		return
	}
	from := 0
	if len(s.sealed) == 0 {
		from, s.head, s.n = s.head, 0, s.n-s.head
	}
	s.open.insert(g, from, i-base, at, rs, n)
	s.n++
}

// drop retires the k oldest live samples, and every chunk that holds no
// other.
func (s *series) drop(k int) {
	s.head += k
	d := 0
	for d < len(s.sealed) && s.head >= int(s.sealed[d].n) {
		s.head -= int(s.sealed[d].n)
		s.n -= int(s.sealed[d].n)
		s.sealedBytes -= s.sealed[d].bytes()
		d++
	}
	if d > 0 {
		s.sealed = append([]*chunk(nil), s.sealed[d:]...) // not a reslice: the dropped chunks go with the old array
	}
}

// seal encodes the open chunk's live samples as a sealed chunk and starts
// a new open chunk.
func (s *series) seal(e *sealer) {
	from := 0
	if len(s.sealed) == 0 {
		from, s.head, s.n = s.head, 0, s.n-s.head
	}
	sealed := make([]*chunk, len(s.sealed), len(s.sealed)+1)
	copy(sealed, s.sealed)
	if from < len(s.open.times) {
		c := e.seal(&s.open, from, len(s.open.times))
		sealed = append(sealed, c)
		s.sealedBytes += c.bytes()
	}
	s.sealed, s.open = sealed, open{whole: true}
}

// frozen returns a point-in-time image of the series that stays valid, and
// race-free to read, after the store's lock is released. The open chunk's
// column headers, which the writer changes in place, are copied to the end
// of cols, which is returned grown.
func (s *series) frozen(cols []column) (series, []column) {
	f := *s
	n := len(cols)
	cols = append(cols, s.open.cols...)
	f.open.cols = cols[n:len(cols):len(cols)]
	return f, cols
}

// image is frozen for a read that ends at until: a window that ends before
// the open chunk's first sample leaves the open chunk out, and so has no
// column headers to copy.
func (s *series) image(until time.Time, cols []column) (series, []column) {
	if len(s.sealed) > 0 && len(s.open.times) > 0 && !until.IsZero() && time.Unix(0, s.open.times[0]).After(until) {
		f := *s
		f.n, f.open = s.n-len(s.open.times), open{}
		return f, cols
	}
	return s.frozen(cols)
}

// shape returns the rows of samples [lo, hi) and the fields their chunks
// hold values in, as a bit per field.
func (s *series) shape(lo, hi int) (rows int, fields uint64) {
	var sp span
	s.parts(lo, hi, func(c *chunk, a, b int) {
		if c == nil {
			rows += s.open.rowStart(b) - s.open.rowStart(a)
			for i := range s.open.cols {
				if s.open.cols[i].Nulls != resultset.AllNull {
					fields |= 1 << s.open.cols[i].idx
				}
			}
			return
		}
		if c.per >= 0 {
			rows += (b - a) * int(c.per)
		} else {
			sp.of(c, nil)
			rows += int(sp.starts[b] - sp.starts[a])
		}
		for i := range c.cols {
			fields |= 1 << c.cols[i].idx
		}
	})
	return rows, fields
}

// put adds samples [lo, hi) to b as rows. The group has width fields; with
// provenance, each row also gets its SourceURL and SampledAt.
func (s *series) put(b *resultset.Builder, lo, hi, width int, provenance bool) {
	var sp span
	s.parts(lo, hi, func(c *chunk, a, z int) {
		sp.of(c, &s.open)
		s.putPart(b, c, &sp, a, z, width, provenance)
	})
}

// putPart adds samples [a, z) of chunk c (the open chunk when nil), decoded
// in sp, to b as rows: a column at a time, a column that holds only NULLs
// costing nothing.
func (s *series) putPart(b *resultset.Builder, c *chunk, sp *span, a, z, width int, provenance bool) {
	r0, r1 := int(sp.starts[a]), int(sp.starts[z])
	if c == nil {
		for i := range s.open.cols {
			s.open.cols[i].put(b, r0, r1)
		}
	} else {
		for i := range c.cols {
			c.put(b, &c.cols[i], r0, r1)
		}
	}
	for i := a; provenance && i < z; i++ {
		src := resultset.Cell{Kind: glue.String, Str: s.source}
		at := resultset.Cell{Kind: glue.Time, Time: time.Unix(0, sp.times[i])}
		for r := int(sp.starts[i]); r < int(sp.starts[i+1]); r++ {
			b.Put(r-r0, width, src)
			b.Put(r-r0, width+1, at)
		}
	}
	b.Rows(r1 - r0)
}
