package router

import (
	"encoding/json"
	"strconv"
	"time"

	"gridrm/internal/httpjson"
)

// AppendJSON implements httpjson.Appender: it appends the text json.Marshal
// writes for m, byte for byte, without reflection. It is the one encoding of
// a metric on the push wire — the SSE servlet's frames, FileSink's lines and
// HTTPSink's batches. The one departure is a non-finite float cell, which is
// written as null (as WireResult writes it) where json.Marshal would fail.
func (m Metric) AppendJSON(buf []byte) ([]byte, error) {
	buf = strconv.AppendUint(append(buf, `{"seq":`...), m.Seq, 10)
	buf = httpjson.AppendString(append(buf, `,"source":`...), m.Source)
	buf = httpjson.AppendString(append(buf, `,"group":`...), m.Group)
	buf, err := appendTime(append(buf, `,"time":`...), m.Time)
	if err != nil {
		return buf, err
	}
	buf = append(buf, `,"columns":`...)
	if m.Columns == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, c := range m.Columns {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = httpjson.AppendString(buf, c)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"row":`...)
	if m.Row == nil {
		return append(buf, "null}"...), nil
	}
	buf = append(buf, '[')
	for i, v := range m.Row {
		if i > 0 {
			buf = append(buf, ',')
		}
		if buf, err = appendValue(buf, v); err != nil {
			return buf, err
		}
	}
	return append(buf, "]}"...), nil
}

// appendValue writes one row cell. The kinds a cell holds (resultset.Cell's
// Value) are written here; anything else a caller publishes goes through
// encoding/json.
func appendValue(buf []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(buf, "null"...), nil
	case string:
		return httpjson.AppendString(buf, v), nil
	case int64:
		return strconv.AppendInt(buf, v, 10), nil
	case float64:
		return httpjson.AppendFloat(buf, v), nil
	case bool:
		return strconv.AppendBool(buf, v), nil
	case time.Time:
		return appendTime(buf, v)
	}
	text, err := json.Marshal(v)
	return append(buf, text...), err
}

// appendTime writes t as time.Time's MarshalJSON does. A time RFC 3339
// cannot express — a year outside 0–9999, an offset of a day or more — is
// left to MarshalJSON, for its error.
func appendTime(buf []byte, t time.Time) ([]byte, error) {
	const day = 24 * 60 * 60
	_, off := t.Zone()
	if y := t.Year(); y < 0 || y > 9999 || off <= -day || off >= day {
		text, err := t.MarshalJSON()
		return append(buf, text...), err
	}
	return append(t.AppendFormat(append(buf, '"'), time.RFC3339Nano), '"'), nil
}
