package history

import (
	"encoding/binary"
	"math"
	"math/bits"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// chunkSamples is how many samples a chunk holds: the open chunk is sealed
// when it has this many, and no sealed chunk holds more.
const chunkSamples = 64

// A sealed chunk is immutable: sealing builds it whole from the open chunk,
// and a late sample that lands in it rebuilds it as one or two fresh
// chunks. Its samples are encoded a field at a time, each by its kind
// (Gorilla's, Pelkonen et al., VLDB 2015, for times and floats):
//
//   - sample times as delta-of-delta bits after the first, which the chunk
//     keeps whole;
//   - each sample's row count only when they differ (per < 0);
//   - Float cells as the XOR of each with the one before;
//   - Int, Bool and Time cells as zigzag varints of each one's difference
//     from the one before;
//   - String cells as bit-packed codes into the chunk's own dictionary;
//   - which rows are NULL as a bitmap, only in a column that mixes NULLs and
//     values; a column that holds no value has no block.
//
// Every region of buf has its trailing zero bytes cut, and a read past a
// region's end reads zeros: a zero delta, a repeated float, a repeated
// delta between times, a NULL row. So a column that holds one value in a
// chunk stores it once, and times a fixed step apart store the step.
type chunk struct {
	first, last int64 // the first and the last sample's time
	n, rows     int32 // samples, and their rows
	per         int32 // rows in every sample; -1 when they differ
	times, ends uint32
	buf         []byte // buf[:times] the times, buf[times:ends] the row counts, then the blocks
	cols        []block
	dict        []string // every String block's dictionary, back to back
}

// block is one field of a chunk: buf[off:mid] is its validity bitmap (bit r
// of byte r/8, least significant first), empty when no row is NULL, and
// buf[mid:end] its values.
type block struct {
	idx           uint16 // the group field
	kind          uint8
	width         uint8 // String: the bits a code takes
	off, mid, end uint32
	dict          uint32 // String: the first of its strings in the chunk's dict
}

// bitWriter appends bits, most significant first.
type bitWriter struct {
	buf  []byte
	free uint // bits of buf's last byte not yet written
}

// write appends the low n bits of v.
func (w *bitWriter) write(v uint64, n uint) {
	for n > 0 {
		if w.free == 0 {
			w.buf, w.free = append(w.buf, 0), 8
		}
		k := min(n, w.free)
		n, w.free = n-k, w.free-k
		w.buf[len(w.buf)-1] |= byte(v>>n&(1<<k-1)) << w.free
	}
}

// bitReader reads what a bitWriter wrote, and zeros past its end.
type bitReader struct {
	data []byte
	pos  uint
}

// read returns the next n bits, n at most 64. It loads the eight bytes
// they start in as one word, so a read of up to 57 bits is one shift.
func (r *bitReader) read(n uint) uint64 {
	if n == 0 {
		return 0
	}
	if used := r.pos & 7; n > 64-used {
		hi := r.read(n - 32)
		return hi<<32 | r.read(32)
	}
	var w uint64
	if i := r.pos >> 3; i+8 <= uint(len(r.data)) {
		w = binary.BigEndian.Uint64(r.data[i:])
	} else {
		for j := uint(0); j < 8 && i+j < uint(len(r.data)); j++ {
			w |= uint64(r.data[i+j]) << (56 - 8*j)
		}
	}
	v := w << (r.pos & 7) >> (64 - n)
	r.pos += n
	return v
}

// trimmed cuts buf's trailing zero bytes from offset off on.
func trimmed(buf []byte, off int) []byte {
	for len(buf) > off && buf[len(buf)-1] == 0 {
		buf = buf[:len(buf)-1]
	}
	return buf
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

// A time's delta-of-delta is 0 as one 0 bit; otherwise a 1 bit, six bits
// holding the length l of its zigzag form, and that form's low l-1 bits
// (its top bit is 1).
func writeDoD(w *bitWriter, dod int64) {
	if dod == 0 {
		w.write(0, 1)
		return
	}
	z := zigzag(dod)
	l := uint(bits.Len64(z))
	w.write(1, 1)
	w.write(uint64(l-1), 6)
	w.write(z, l-1)
}

func readDoD(r *bitReader) int64 {
	if r.read(1) == 0 {
		return 0
	}
	l := uint(r.read(6)) + 1
	return unzigzag(1<<(l-1) | r.read(l-1))
}

// xorWriter encodes floats as Gorilla does: a value equal to the one before
// is a 0 bit; otherwise their XOR's meaningful bits follow 10 when they fit
// the previous window of leading and trailing zeros, or 11, five bits of
// leading zeros and six of length when they do not. The first value is
// XORed with 0.
type xorWriter struct {
	bitWriter
	prev      uint64
	lead, sig uint
}

func (x *xorWriter) put(v uint64) {
	d := v ^ x.prev
	x.prev = v
	if d == 0 {
		x.write(0, 1)
		return
	}
	lead, trail := min(uint(bits.LeadingZeros64(d)), 31), uint(bits.TrailingZeros64(d))
	if x.sig > 0 && lead >= x.lead && trail >= 64-x.lead-x.sig {
		x.write(0b10, 2)
	} else {
		x.lead, x.sig = lead, 64-lead-trail
		x.write(0b11, 2)
		x.write(uint64(x.lead), 5)
		x.write(uint64(x.sig-1), 6)
	}
	x.write(d>>(64-x.lead-x.sig), x.sig)
}

type xorReader struct {
	bitReader
	prev      uint64
	lead, sig uint
}

func (x *xorReader) next() uint64 {
	if x.read(1) == 0 {
		return x.prev
	}
	if x.read(1) == 1 {
		x.lead, x.sig = uint(x.read(5)), uint(x.read(6))+1
	}
	x.prev ^= x.read(x.sig) << (64 - x.lead - x.sig)
	return x.prev
}

// sealer is the scratch a chunk is encoded in before it takes right-sized
// copies. The store keeps one and uses it under its lock, so a seal
// allocates the chunk and nothing it throws away.
type sealer struct {
	buf    []byte
	blocks []block
	dict   []string
	remap  []int32 // open-chunk string code → chunk code, -1 while unseen
}

// seal encodes samples [from, to) of o, at least one, as a chunk.
func (e *sealer) seal(o *open, from, to int) *chunk {
	r0, r1 := o.rowStart(from), o.rowStart(to)
	c := &chunk{first: o.times[from], last: o.times[to-1], n: int32(to - from), rows: int32(r1 - r0)}
	e.buf, e.blocks, e.dict = e.buf[:0], e.blocks[:0], e.dict[:0]

	w := bitWriter{buf: e.buf}
	var delta uint64
	for i := from + 1; i < to; i++ {
		d := uint64(o.times[i]) - uint64(o.times[i-1])
		writeDoD(&w, int64(d-delta))
		delta = d
	}
	e.buf = trimmed(w.buf, 0)
	c.times = uint32(len(e.buf))

	c.per = int32(o.rowStart(from+1) - r0)
	for i := from + 1; i < to && c.per >= 0; i++ {
		if o.rowStart(i+1)-o.rowStart(i) != int(c.per) {
			c.per = -1
		}
	}
	for i := from; i < to && c.per < 0; i++ {
		e.buf = binary.AppendUvarint(e.buf, uint64(o.rowStart(i+1)-o.rowStart(i)))
	}
	e.buf = trimmed(e.buf, int(c.times))
	c.ends = uint32(len(e.buf))

	for i := range o.cols {
		e.block(&o.cols[i], r0, r1)
	}
	c.buf = append([]byte(nil), e.buf...)
	c.cols = append([]block(nil), e.blocks...)
	if len(e.dict) > 0 {
		c.dict = append([]string(nil), e.dict...)
	}
	return c
}

// block encodes rows [r0, r1) of col, if any of them holds a value.
func (e *sealer) block(col *column, r0, r1 int) {
	hi := min(r1, int(col.Rows)) // the rows past it are NULL
	values := 0
	for r := r0; r < hi; r++ {
		if !col.Null(r) {
			values++
		}
	}
	if values == 0 {
		return
	}
	b := block{idx: uint16(col.idx), kind: uint8(col.kind), off: uint32(len(e.buf))}
	if values < r1-r0 { // mixed: a bitmap says which rows hold the values
		for r := r0; r < hi; r += 8 {
			var bits byte
			for k := 0; k < 8 && r+k < hi; k++ {
				if !col.Null(r + k) {
					bits |= 1 << k
				}
			}
			e.buf = append(e.buf, bits)
		}
		e.buf = trimmed(e.buf, int(b.off))
	}
	b.mid = uint32(len(e.buf))
	switch col.kind {
	case glue.String:
		b.dict = uint32(len(e.dict))
		if cap(e.remap) < len(col.dict) {
			e.remap = make([]int32, len(col.dict))
		}
		e.remap = e.remap[:len(col.dict)]
		for i := range e.remap {
			e.remap[i] = -1
		}
		for r := r0; r < hi; r++ {
			if code := col.codes[r]; !col.Null(r) && e.remap[code] < 0 {
				e.remap[code] = int32(len(e.dict)) - int32(b.dict)
				e.dict = append(e.dict, col.dict[code])
			}
		}
		b.width = uint8(bits.Len(uint(len(e.dict)) - uint(b.dict) - 1))
		w := bitWriter{buf: e.buf}
		for r := r0; r < hi; r++ {
			if !col.Null(r) {
				w.write(uint64(e.remap[col.codes[r]]), uint(b.width))
			}
		}
		e.buf = w.buf
	case glue.Float:
		x := xorWriter{bitWriter: bitWriter{buf: e.buf}}
		for r := r0; r < hi; r++ {
			if !col.Null(r) {
				x.put(uint64(col.Nums[r]))
			}
		}
		e.buf = x.buf
	default: // Int, Bool, and Time as Unix nanoseconds
		var prev int64
		for r := r0; r < hi; r++ {
			if !col.Null(r) {
				e.buf = binary.AppendVarint(e.buf, int64(uint64(col.Nums[r])-uint64(prev)))
				prev = col.Nums[r]
			}
		}
	}
	e.buf = trimmed(e.buf, int(b.mid))
	b.end = uint32(len(e.buf))
	e.blocks = append(e.blocks, b)
}

// span is a chunk's samples as a reader needs them: each one's time, and
// where each one's rows start (starts[n] is the chunk's row count). It holds
// its arrays by value, so a reader keeps it on its stack.
type span struct {
	times  [chunkSamples]int64
	starts [chunkSamples + 1]int32
}

// of decodes c's samples, or copies o's when c is nil.
func (sp *span) of(c *chunk, o *open) {
	if c == nil {
		copy(sp.times[:], o.times)
		for i := 0; i <= len(o.times); i++ {
			sp.starts[i] = int32(o.rowStart(i))
		}
		return
	}
	c.decodeTimes(&sp.times)
	if c.per >= 0 {
		for i := int32(0); i <= c.n; i++ {
			sp.starts[i] = i * c.per
		}
		return
	}
	data, pos := c.buf[c.times:c.ends], 0
	for i := 1; i <= int(c.n); i++ {
		rows, k := binary.Uvarint(data[pos:]) // past the end: a zero-row sample
		pos += k
		sp.starts[i] = sp.starts[i-1] + int32(rows)
	}
}

// decodeTimes writes c's sample times to times.
func (c *chunk) decodeTimes(times *[chunkSamples]int64) {
	r := bitReader{data: c.buf[:c.times]}
	t, delta := c.first, uint64(0)
	times[0] = t
	for i := 1; i < int(c.n); i++ {
		delta += uint64(readDoD(&r))
		t = int64(uint64(t) + delta)
		times[i] = t
	}
}

// each calls fn with every row below hi of b that holds a value, in row
// order, and the value.
func (c *chunk) each(b *block, hi int, fn func(r int, v resultset.Cell)) {
	valid, data := c.buf[b.off:b.mid], c.buf[b.mid:b.end]
	holds := func(r int) bool {
		return len(valid) == 0 || r>>3 < len(valid) && valid[r>>3]>>(r&7)&1 != 0
	}
	switch kind := glue.Kind(b.kind); kind {
	case glue.String:
		rd := bitReader{data: data}
		for r := 0; r < hi; r++ {
			if holds(r) {
				fn(r, resultset.Cell{Kind: kind, Str: c.dict[int(b.dict)+int(rd.read(uint(b.width)))]})
			}
		}
	case glue.Float:
		x := xorReader{bitReader: bitReader{data: data}}
		for r := 0; r < hi; r++ {
			if holds(r) {
				fn(r, resultset.Cell{Kind: kind, Float: math.Float64frombits(x.next())})
			}
		}
	default:
		var v int64
		for r, pos := 0, 0; r < hi; r++ {
			if holds(r) {
				d, k := binary.Varint(data[pos:]) // past the end: a zero delta
				pos += k
				v = int64(uint64(v) + uint64(d))
				if kind == glue.Time {
					fn(r, resultset.Cell{Kind: kind, Time: time.Unix(0, v)})
				} else {
					fn(r, resultset.Cell{Kind: kind, Int: v})
				}
			}
		}
	}
}

// put adds rows [r0, r1) of block blk to b as its column blk.idx of the rows
// not yet completed, decoded straight into b's column when every row holds a
// value and the column can take them as a run, a cell at a time otherwise.
func (c *chunk) put(b *resultset.Builder, blk *block, r0, r1 int) {
	kind := glue.Kind(blk.kind)
	if blk.off == blk.mid { // no row is NULL
		if nums, strs, times, ok := b.Dense(0, int(blk.idx), kind, r1-r0); ok {
			c.decode(blk, r0, r1, nums, strs, times)
			return
		}
	}
	c.each(blk, r1, func(r int, v resultset.Cell) {
		if r >= r0 {
			b.Put(r-r0, int(blk.idx), v)
		}
	})
}

// decode writes rows [r0, r1) of block blk, whose every row holds a value,
// to the cells of its kind: strs, times, or nums (Int and Bool values,
// Float bits).
func (c *chunk) decode(blk *block, r0, r1 int, nums []int64, strs []string, times []time.Time) {
	data := c.buf[blk.mid:blk.end]
	switch kind := glue.Kind(blk.kind); kind {
	case glue.String:
		rd := bitReader{data: data, pos: uint(r0) * uint(blk.width)}
		dict := c.dict[blk.dict:]
		for i := range strs {
			strs[i] = dict[rd.read(uint(blk.width))]
		}
	case glue.Float:
		x := xorReader{bitReader: bitReader{data: data}}
		for r := 0; r < r0; r++ {
			x.next()
		}
		for i := range nums {
			nums[i] = int64(x.next())
		}
	default:
		var v int64
		pos := 0
		for r := 0; r < r1; r++ {
			d, k := binary.Varint(data[pos:]) // past the end: a zero delta
			pos += k
			v = int64(uint64(v) + uint64(d))
			switch {
			case r < r0:
			case kind == glue.Time:
				times[r-r0] = time.Unix(0, v)
			default:
				nums[r-r0] = v
			}
		}
	}
}

// reopen decodes samples [from, n) of c into a fresh open chunk, to take a
// late sample before it is sealed again.
func (c *chunk) reopen(g *glue.Group, from int) open {
	var sp span
	sp.of(c, nil)
	r0 := int(sp.starts[from])
	var o open
	for i := range c.cols {
		b := &c.cols[i]
		col := o.column(g, int(b.idx), len(c.cols))
		c.each(b, int(c.rows), func(r int, v resultset.Cell) {
			if r >= r0 {
				col.set(r-r0, v, int(c.rows)-r0+1)
			}
		})
	}
	for i := from; i < int(c.n); i++ {
		o.note(sp.times[i], int(sp.starts[i+1]-sp.starts[i]))
	}
	return o
}
