package web

import (
	"bytes"
	"encoding/json"
	"strconv"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/httpjson"
	"gridrm/internal/router"
)

// The client half of the push wire. A stream is read a line at a time into
// one data buffer (frameReader), and a metric frame's data — the JSON
// router.Metric.AppendJSON writes — is decoded by metricDecoder with the wire
// codec's cursor, httpjson.Cursor. Cells come back kind-exact: a column that
// is a field of the frame's GLUE group types its cells by the field's kind,
// so an Int cell is an int64 and a Time cell a time.Time, as an in-process
// subscriber sees them.
// Any other cell keeps encoding/json's reading (a number is a float64).

// frameReader assembles a stream's SSE frames line by line.
type frameReader struct {
	event   string
	data    []byte // the frame being read; the next frame reuses it
	metrics metricDecoder
}

// line takes one line of the stream, without its end of line. The blank line
// that ends a frame with data returns the frame's event and data, which hold
// until the next call; an id: line returns the sequence number it carries,
// or 0.
func (fr *frameReader) line(line []byte) (event string, data []byte, seq uint64) {
	switch {
	case len(line) == 0:
		event, data = fr.event, fr.data
		fr.event, fr.data = "", fr.data[:0]
		if len(data) == 0 {
			return "", nil, 0
		}
		return event, data, 0
	case line[0] == ':':
		// Heartbeat comment: liveness only.
	case bytes.HasPrefix(line, []byte("id:")):
		// An id that is not a sequence number, one past uint64 included, is
		// 0: ParseUint's result on a range error is the maximum, not 0.
		if v, err := strconv.ParseUint(string(bytes.TrimSpace(line[3:])), 10, 64); err == nil {
			seq = v
		}
	case bytes.HasPrefix(line, []byte("event:")):
		fr.event = eventName(bytes.TrimSpace(line[6:]))
	case bytes.HasPrefix(line, []byte("data:")):
		fr.data = append(fr.data, bytes.TrimSpace(line[5:])...)
	}
	return "", nil, seq
}

// eventName returns an event field's value as one of the names dispatch
// tells apart, without making a string of it; any other name is "other".
func eventName(b []byte) string {
	switch string(b) {
	case "":
		return ""
	case "metric":
		return "metric"
	case "gap":
		return "gap"
	case "evicted":
		return "evicted"
	}
	return "other"
}

var metricKeys = [...]string{"seq", "source", "group", "time", "columns", "row"}

// metricDecoder reads metric frames. It accepts a subset of what
// json.Unmarshal into a router.Metric accepts — keys spelled exactly, no
// duplicates — and agrees with it but for the cells the kind rule types.
// What consecutive frames repeat (every row of one harvest shares its
// source, group, time and columns) it reads once: the last frame's strings,
// time and Columns slice are handed on while the text repeats.
type metricDecoder struct {
	source, group string
	timeText      []byte
	at            time.Time
	colsText      []byte
	colsGroup     string
	cols          []string
	fields        []*glue.Field // cols[i]'s field in colsGroup, nil if none
}

// decode reads one frame's data, which must be the whole of data.
func (md *metricDecoder) decode(data []byte) (m router.Metric, err error) {
	d := &wireDecoder{httpjson.NewCursor(data)}
	var at [len(metricKeys)]span
	if err := d.Members(metricKeys[:], at[:]); err != nil {
		return m, err
	}
	if !d.Null(at[0]) {
		if m.Seq, err = d.at(at[0]).seq(); err != nil {
			return m, err
		}
	}
	if m.Source, err = d.repeated(at[1], &md.source); err != nil {
		return m, err
	}
	if m.Group, err = d.repeated(at[2], &md.group); err != nil {
		return m, err
	}
	if !d.Null(at[3]) {
		text := data[at[3].Start:at[3].End]
		if !bytes.Equal(text, md.timeText) {
			var t time.Time
			if err := t.UnmarshalJSON(text); err != nil {
				return m, d.Errorf("%v", err)
			}
			md.at, md.timeText = t, append(md.timeText[:0], text...)
		}
		m.Time = md.at
	}
	var fields []*glue.Field
	if !d.Null(at[4]) {
		text := data[at[4].Start:at[4].End]
		if !bytes.Equal(text, md.colsText) || m.Group != md.colsGroup {
			cols, fields, err := d.at(at[4]).columnNames(m.Group)
			if err != nil {
				return m, err
			}
			md.cols, md.fields, md.colsGroup = cols, fields, m.Group
			md.colsText = append(md.colsText[:0], text...)
		}
		m.Columns, fields = md.cols, md.fields
	}
	if !d.Null(at[5]) {
		m.Row, err = d.at(at[5]).row(fields)
	}
	return m, err
}

// seq reads an unsigned integer literal, the whole of d's input.
func (d *wireDecoder) seq() (uint64, error) {
	lit, integer, err := d.Number()
	if err != nil {
		return 0, err
	}
	v, perr := strconv.ParseUint(string(lit), 10, 64)
	if !integer || perr != nil {
		return 0, d.Errorf("%s is not a sequence number", lit)
	}
	return v, d.End()
}

// repeated reads the string or null at s, handing back *last when it
// repeats and making it the new *last when it does not.
func (d *wireDecoder) repeated(s span, last *string) (string, error) {
	if d.Null(s) {
		return "", nil
	}
	c := d.at(s)
	b, err := c.StringValue()
	if err == nil {
		err = c.End()
	}
	if err != nil {
		return "", err
	}
	if string(b) != *last {
		*last = string(b)
	}
	return *last, nil
}

// columnNames reads the columns array, the whole of d's input, and finds
// each name's field in the named GLUE group. A null name is "", as
// json.Unmarshal leaves it.
func (d *wireDecoder) columnNames(group string) (cols []string, fields []*glue.Field, err error) {
	g, _ := glue.Lookup(group)
	cols = []string{}
	more, err := d.Open('[', ']')
	for more && err == nil {
		var name []byte
		if !(d.Peek() == 'n' && d.Literal("null")) {
			if name, err = d.StringValue(); err != nil {
				return nil, nil, err
			}
		}
		cols = append(cols, string(name))
		var f *glue.Field
		if g != nil {
			if i := g.FieldIndex(cols[len(cols)-1]); i >= 0 {
				f = &g.Fields[i]
			}
		}
		fields = append(fields, f)
		more, err = d.More(']')
	}
	if err != nil {
		return nil, nil, err
	}
	return cols, fields, d.End()
}

// row reads the row array, the whole of d's input. Cell i is typed by
// fields[i] when there is one; String cells come from the intern table, or
// share one run of bytes.
func (d *wireDecoder) row(fields []*glue.Field) ([]any, error) {
	t := texts{size: len(d.Rest())}
	defer t.table.Done()
	row := make([]any, 0, len(fields))
	more, err := d.Open('[', ']')
	for i := 0; more && err == nil; i++ {
		var f *glue.Field
		if i < len(fields) {
			f = fields[i]
		}
		var v any
		if v, err = d.value(f, &t); err != nil {
			return nil, err
		}
		row = append(row, v)
		more, err = d.More(']')
	}
	if err != nil {
		return nil, err
	}
	return row, d.End()
}

// value reads one cell as json.Unmarshal reads a JSON value into an any,
// except that an integer literal in an Int field is an int64 and a string
// in a Time field that is a JSON time is a time.Time.
func (d *wireDecoder) value(f *glue.Field, t *texts) (any, error) {
	switch c := d.Peek(); {
	case c == 'n' && d.Literal("null"):
		return nil, nil
	case c == 't' || c == 'f':
		return d.Boolean()
	case c == '"':
		start := d.Offset()
		s, err := d.StringValue()
		if err != nil {
			return nil, err
		}
		if f != nil && f.Kind == glue.Time {
			var at time.Time
			if at.UnmarshalJSON(d.Since(start)) == nil {
				return at, nil
			}
		}
		return t.name(s), nil
	case c == '-' || '0' <= c && c <= '9':
		lit, integer, err := d.Number()
		if err != nil {
			return nil, err
		}
		if integer && f != nil && f.Kind == glue.Int {
			if v, err := strconv.ParseInt(string(lit), 10, 64); err == nil {
				return v, nil
			}
		}
		v, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return nil, d.Errorf("%v", err)
		}
		return v, nil
	case c == '[' || c == '{':
		start := d.Offset()
		if err := d.Skip(); err != nil {
			return nil, err
		}
		var v any
		if err := json.Unmarshal(d.Since(start), &v); err != nil {
			return nil, d.Errorf("%v", err)
		}
		return v, nil
	}
	return nil, d.Errorf("expected a value")
}
