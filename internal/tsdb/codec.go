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
	"gridrm/internal/history"
	"gridrm/internal/resultset"
)

// recordVersion is the first byte of every encoded sample payload.
const recordVersion = 1

// Per-value type tags. The set mirrors the runtime types resultset rows
// hold for the GLUE kinds (string, int64, float64, bool, time.Time, nil).
const (
	tagNil    = 0
	tagString = 1
	tagInt    = 2
	tagFloat  = 3
	tagBool   = 4
	tagTime   = 5
)

// encodeSample appends the binary encoding of one sample to buf.
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
func encodeSample(buf []byte, rec history.SampleRecord) []byte {
	buf = encodeHeader(buf, rec.Source, rec.Group, rec.At, len(rec.Rows))
	for _, row := range rec.Rows {
		buf = binary.AppendUvarint(buf, uint64(len(row)))
		for _, v := range row {
			if v == nil { // most cells of a sparse harvest
				buf = append(buf, tagNil)
				continue
			}
			// A value outside the GLUE runtime types should not reach the
			// store; CellOf keeps the record decodable by storing its string
			// form rather than failing the append.
			buf = appendCell(buf, resultset.CellOf(v))
		}
	}
	return buf
}

// encodeResult is encodeSample for a harvest's own ResultSet: the cells are
// read from its columns, and nothing is boxed on the way to the journal.
func encodeResult(buf []byte, source, group string, at time.Time, rs *resultset.ResultSet) []byte {
	buf = encodeHeader(buf, source, group, at, rs.Len())
	for r, cols := 0, rs.Metadata().ColumnCount(); r < rs.Len(); r++ {
		buf = binary.AppendUvarint(buf, uint64(cols))
		for c := 0; c < cols; c++ {
			buf = appendCell(buf, rs.Cell(r, c))
		}
	}
	return buf
}

// encodeHeader appends everything of a sample's encoding before its rows.
func encodeHeader(buf []byte, source, group string, at time.Time, rows int) []byte {
	buf = append(buf, recordVersion)
	buf = appendBytes(buf, source)
	buf = appendBytes(buf, group)
	buf = binary.AppendVarint(buf, at.UnixNano())
	return binary.AppendUvarint(buf, uint64(rows))
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

// decoder is a bounds-checked cursor over an encoded payload. Every read
// fails softly: decodeSample never panics, whatever the input.
type decoder struct {
	data []byte
	off  int
	err  error
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

func (d *decoder) value() any {
	switch tag := d.byte(); tag {
	case tagNil:
		return nil
	case tagString:
		return d.bytes()
	case tagInt:
		return d.varint()
	case tagFloat:
		if d.err == nil && len(d.data)-d.off < 8 {
			d.fail("truncated float at byte %d", d.off)
		}
		if d.err != nil {
			return nil
		}
		bits := binary.LittleEndian.Uint64(d.data[d.off:])
		d.off += 8
		return math.Float64frombits(bits)
	case tagBool:
		return d.byte() != 0
	case tagTime:
		return time.Unix(0, d.varint())
	default:
		d.fail("unknown value tag %d at byte %d", tag, d.off-1)
		return nil
	}
}

// decodeSample parses one encoded sample payload. It returns an error (never
// panics) on any malformed input — truncation, bad tags, absurd counts.
func decodeSample(data []byte) (history.SampleRecord, error) {
	d := &decoder{data: data}
	if v := d.byte(); d.err == nil && v != recordVersion {
		return history.SampleRecord{}, fmt.Errorf("tsdb: decode: unknown record version %d", v)
	}
	rec := history.SampleRecord{
		Source: d.bytes(),
		Group:  d.bytes(),
		At:     time.Unix(0, d.varint()),
	}
	rowCount := d.uvarint()
	// Each row costs at least one byte (its column count), so a count
	// beyond the remaining payload is corruption, not a big record.
	if d.err == nil && rowCount > uint64(len(data)-d.off) {
		d.fail("row count %d exceeds remaining %d bytes", rowCount, len(data)-d.off)
	}
	if d.err != nil {
		return history.SampleRecord{}, d.err
	}
	rec.Rows = make([][]any, 0, rowCount)
	for i := uint64(0); i < rowCount; i++ {
		colCount := d.uvarint()
		if d.err == nil && colCount > uint64(len(data)-d.off) {
			d.fail("column count %d exceeds remaining %d bytes", colCount, len(data)-d.off)
		}
		if d.err != nil {
			return history.SampleRecord{}, d.err
		}
		row := make([]any, 0, colCount)
		for j := uint64(0); j < colCount; j++ {
			row = append(row, d.value())
		}
		rec.Rows = append(rec.Rows, row)
	}
	if d.err != nil {
		return history.SampleRecord{}, d.err
	}
	if d.off != len(data) {
		return history.SampleRecord{}, fmt.Errorf("tsdb: decode: %d trailing bytes", len(data)-d.off)
	}
	return rec, nil
}
