// Package tsdb is the gateway's crash-safe history persistence layer: a
// segmented, CRC-framed write-ahead log plus periodic checkpoints of the
// retained in-memory state (modelled on cc-metric-store's split of a hot
// in-memory tier backed by checkpoint files). It sits behind the existing
// history.Store API — Record is journaled before it is acknowledged, and a
// restart restores the newest valid checkpoint then replays the WAL tail.
//
// The robustness contract: no crash, torn write, corrupt record or disk
// fault is ever fatal. Corruption is truncated back to the last valid
// record and alerted; a disk fault degrades the store to memory-only mode
// and a background loop re-attaches with jittered backoff.
package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// recordVersion is the first byte of every encoded sample payload.
const recordVersion = 1

// Per-value type tags: NULL and one for each GLUE kind.
const (
	tagNil    = 0
	tagString = 1
	tagInt    = 2
	tagFloat  = 3
	tagBool   = 4
	tagTime   = 5
)

// cells is a sample's rows as the encoder reads them: a harvest's ResultSet
// on the way to the journal, a retained history.Sample on the way to a
// checkpoint.
type cells interface {
	Len() int
	Null(r, c int) bool
	Cell(r, c int) resultset.Cell
}

// encodeResult appends the binary encoding of one sample, rows of cols cells,
// to buf. The cells are read where they are held; nothing is boxed.
//
// Payload layout (varints are encoding/binary (u)varints, fixed ints are
// little-endian):
//
//	u8     version (1)
//	uvarint len + bytes   source URL
//	uvarint len + bytes   group name
//	varint                sample time, Unix nanoseconds
//	uvarint               row count
//	per row:  uvarint column count, then per value: u8 tag + payload
//	  tagNil: nothing          tagString: uvarint len + bytes
//	  tagInt: varint           tagFloat:  8-byte IEEE-754 bits
//	  tagBool: u8 0/1          tagTime:   varint Unix nanoseconds
func encodeResult(buf []byte, source, group string, at time.Time, cols int, rows cells) []byte {
	buf = append(buf, recordVersion)
	buf = appendBytes(buf, source)
	buf = appendBytes(buf, group)
	buf = binary.AppendVarint(buf, at.UnixNano())
	n := rows.Len()
	buf = binary.AppendUvarint(buf, uint64(n))
	for r := 0; r < n; r++ {
		buf = binary.AppendUvarint(buf, uint64(cols))
		for c := 0; c < cols; c++ {
			if rows.Null(r, c) { // most cells of a sparse harvest: no Cell made
				buf = append(buf, tagNil)
			} else {
				buf = appendCell(buf, rows.Cell(r, c))
			}
		}
	}
	return buf
}

func appendBytes(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendCell(buf []byte, v resultset.Cell) []byte {
	switch {
	case v.Null:
		return append(buf, tagNil)
	case v.Kind == glue.String:
		return appendBytes(append(buf, tagString), v.Str)
	case v.Kind == glue.Float:
		return binary.LittleEndian.AppendUint64(append(buf, tagFloat), math.Float64bits(v.Float))
	case v.Kind == glue.Bool:
		return append(buf, tagBool, byte(v.Int))
	case v.Kind == glue.Time:
		return binary.AppendVarint(append(buf, tagTime), v.Time.UnixNano())
	}
	return binary.AppendVarint(append(buf, tagInt), v.Int)
}

// decoder is a bounds-checked cursor over one encoded payload after another.
// Every read fails softly: sample never panics, whatever the input. A restore
// decodes every retained sample only for history to copy it, so the decoder
// keeps the set it built for a group and builds the group's next sample in it.
type decoder struct {
	data []byte
	off  int
	err  error
	sets map[*glue.Group]*resultset.Builder
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("tsdb: decode: "+format, args...)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.data) {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) bytes() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.data)-d.off) {
		d.fail("string length %d exceeds remaining %d bytes", n, len(d.data)-d.off)
		return ""
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// tagKinds maps a value tag to the kind of cell it holds.
var tagKinds = [...]glue.Kind{tagString: glue.String, tagInt: glue.Int, tagFloat: glue.Float, tagBool: glue.Bool, tagTime: glue.Time}

// cell reads the payload of a value whose tag said kind k.
func (d *decoder) cell(k glue.Kind) resultset.Cell {
	v := resultset.Cell{Kind: k}
	switch k {
	case glue.String:
		v.Str = d.bytes()
	case glue.Int:
		v.Int = d.varint()
	case glue.Float:
		if d.err == nil && len(d.data)-d.off < 8 {
			d.fail("truncated float at byte %d", d.off)
		}
		if d.err == nil {
			v.Float = math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
			d.off += 8
		}
	case glue.Bool:
		if d.byte() != 0 {
			v.Int = 1
		}
	case glue.Time:
		v.Time = time.Unix(0, d.varint())
	}
	return v
}

// sample is one decoded record; rs is its rows until the decoder's next
// sample of the group. A CRC-valid record the schema has no place for — a
// group it does not know, rows of another width, a value of another kind —
// comes back with refused set and no rows: it is skipped and counted, where
// a malformed one is corruption.
type sample struct {
	source, group string
	at            time.Time
	rs            *resultset.ResultSet
	refused       error
}

// sample parses one encoded sample payload into a set of the group's own
// shape, checking each row's width and each value's tag against the group
// before reading (or allocating) anything for it. It returns an error (never
// panics) on any malformed input — truncation, bad tags, absurd counts.
func (d *decoder) sample(data []byte) (sample, error) {
	d.data, d.off, d.err = data, 0, nil
	if v := d.byte(); d.err == nil && v != recordVersion {
		return sample{}, fmt.Errorf("tsdb: decode: unknown record version %d", v)
	}
	rec := sample{source: d.bytes(), group: d.bytes(), at: time.Unix(0, d.varint())}
	rowCount := d.uvarint()
	if d.err != nil {
		return sample{}, d.err
	}
	g, ok := glue.Lookup(rec.group)
	if !ok {
		rec.refused = fmt.Errorf("tsdb: unknown group %q", rec.group)
		return rec, nil
	}
	b := d.sets[g]
	if b == nil {
		if d.sets == nil {
			d.sets = make(map[*glue.Group]*resultset.Builder)
		}
		meta, _ := resultset.MetadataForGroup(g, nil) // a group's own is always there
		b = resultset.NewBuilder(meta)
		d.sets[g] = b
	}
	b.Reset()
	// A row count the payload has not the bytes for ends at the truncation.
	for i := uint64(0); i < rowCount && d.err == nil; i++ {
		if cols := d.uvarint(); d.err == nil && cols != uint64(len(g.Fields)) {
			rec.refused = fmt.Errorf("tsdb: row has %d values, group %s has %d", cols, g.Name, len(g.Fields))
			return rec, nil
		}
		for c, f := range g.Fields {
			tag := d.byte()
			switch {
			case d.err != nil || tag == tagNil:
			case int(tag) >= len(tagKinds):
				d.fail("unknown value tag %d at byte %d", tag, d.off-1)
			case tagKinds[tag] != f.Kind:
				rec.refused = fmt.Errorf("tsdb: group %s field %s expects %s, got %s", g.Name, f.Name, f.Kind, tagKinds[tag])
				return rec, nil
			default:
				b.Put(0, c, d.cell(f.Kind))
			}
		}
		b.Rows(1)
	}
	if d.err != nil {
		return sample{}, d.err
	}
	if d.off != len(data) {
		return sample{}, fmt.Errorf("tsdb: decode: %d trailing bytes", len(data)-d.off)
	}
	var err error
	rec.rs, err = b.Build()
	return rec, err
}
