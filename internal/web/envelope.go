package web

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strconv"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/httpjson"
	"gridrm/internal/trace"
)

// The envelope codec: WireRequest and WireResponse written and read with
// httpjson.Cursor and codec.go's readers, byte for byte what encoding/json
// makes of the two structs' tags (DESIGN.md, "Wire codec"). Like the result
// codec it accepts a subset of what the reflective decode accepts: a known
// key is spelled exactly and appears once, an integer is an integer
// literal; a key it does not know is checked and skipped, and null leaves a
// field zero. The one member left to encoding/json is "trace", the spans of
// a propagated remote leg, which only a traced query carries.

var (
	requestKeys  = [...]string{"sql", "site", "sources", "region", "mode", "since", "until", "timeoutNs", "trace"}
	responseKeys = [...]string{"site", "sql", "mode", "elapsedNs", "sources", "result", "traceId", "trace"}
	// core.SourceStatus has no tags, so its keys are its field names.
	statusKeys = [...]string{"Source", "Driver", "Cached", "HarvestedAt", "Rows", "Err", "Degraded", "Age"}
)

// MarshalJSON implements json.Marshaler.
func (wr WireRequest) MarshalJSON() ([]byte, error) { return wr.AppendJSON(nil) }

// AppendJSON implements httpjson.Appender.
func (wr WireRequest) AppendJSON(buf []byte) ([]byte, error) {
	size := len(`{"sql":"","site":"","mode":"","since":"","until":"","timeoutNs":,"trace":""}`) + 20 +
		len(wr.SQL) + len(wr.Site) + len(wr.Mode) + len(wr.Since) + len(wr.Until) + len(wr.Trace)
	for _, list := range [][]string{wr.Sources, wr.Region} {
		size += len(`,"sources":[]`)
		for _, s := range list {
			size += len(s) + len(`"",`)
		}
	}
	buf = slices.Grow(buf, size)
	buf = httpjson.AppendString(append(buf, `{"sql":`...), wr.SQL)
	if wr.Site != "" {
		buf = httpjson.AppendString(append(buf, `,"site":`...), wr.Site)
	}
	if len(wr.Sources) > 0 {
		buf = appendStrings(append(buf, `,"sources":`...), wr.Sources)
	}
	if len(wr.Region) > 0 {
		buf = appendStrings(append(buf, `,"region":`...), wr.Region)
	}
	if wr.Mode != "" {
		buf = httpjson.AppendString(append(buf, `,"mode":`...), wr.Mode)
	}
	if wr.Since != "" {
		buf = httpjson.AppendString(append(buf, `,"since":`...), wr.Since)
	}
	if wr.Until != "" {
		buf = httpjson.AppendString(append(buf, `,"until":`...), wr.Until)
	}
	if wr.TimeoutNs != 0 {
		buf = strconv.AppendInt(append(buf, `,"timeoutNs":`...), wr.TimeoutNs, 10)
	}
	if wr.Trace != "" {
		buf = httpjson.AppendString(append(buf, `,"trace":`...), wr.Trace)
	}
	return append(buf, '}'), nil
}

func appendStrings(buf []byte, list []string) []byte {
	buf = append(buf, '[')
	for i, s := range list {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = httpjson.AppendString(buf, s)
	}
	return append(buf, ']')
}

// UnmarshalJSON implements json.Unmarshaler.
func (wr *WireRequest) UnmarshalJSON(data []byte) error { return wr.DecodeJSON(data) }

// DecodeJSON implements httpjson.Decoder.
func (wr *WireRequest) DecodeJSON(data []byte) error {
	d := &wireDecoder{httpjson.NewCursor(data)}
	var at [len(requestKeys)]span
	if err := d.Members(requestKeys[:], at[:]); err != nil {
		return err
	}
	var t texts
	defer t.table.Done()
	for _, s := range at {
		t.size += s.End - s.Start
	}
	var out WireRequest
	var err error
	// The names a request carries come from the intern table; its SQL,
	// times and trace context are its own, kept after the names so that
	// the run of bytes is sized for them alone.
	for i, dst := range [...]*string{1: &out.Site, 4: &out.Mode} {
		if dst == nil {
			continue
		}
		if *dst, err = d.stringAt(at[i], t.name); err != nil {
			return err
		}
	}
	if out.Sources, err = d.stringsAt(at[2], &t); err != nil {
		return err
	}
	if out.Region, err = d.stringsAt(at[3], &t); err != nil {
		return err
	}
	for i, dst := range [...]*string{0: &out.SQL, 5: &out.Since, 6: &out.Until, 8: &out.Trace} {
		if dst == nil {
			continue
		}
		if *dst, err = d.stringAt(at[i], t.keep); err != nil {
			return err
		}
	}
	if out.TimeoutNs, err = d.integerAt(at[7]); err != nil {
		return err
	}
	*wr = out
	return nil
}

// stringAt decodes the string at s, copied by as.
func (d *wireDecoder) stringAt(s span, as func([]byte) string) (string, error) {
	if d.Null(s) {
		return "", nil
	}
	v := d.at(s)
	b, err := v.StringValue()
	if err == nil {
		err = v.End()
	}
	if err != nil {
		return "", err
	}
	return as(b), nil
}

// stringsAt decodes the array of names at s.
func (d *wireDecoder) stringsAt(s span, t *texts) ([]string, error) {
	if d.Null(s) {
		return nil, nil
	}
	v := d.at(s)
	more, err := v.Open('[', ']')
	// One more than the commas is the element count, or above it when a
	// string holds one; an element and its separator take three bytes.
	rest := v.Rest()
	list := make([]string, 0, min(bytes.Count(rest, []byte{','})+1, len(rest)/3))
	for more && err == nil {
		if v.Peek() == 'n' && v.Literal("null") {
			list = append(list, "")
		} else {
			var b []byte
			if b, err = v.StringValue(); err != nil {
				return nil, err
			}
			list = append(list, t.name(b))
		}
		more, err = v.More(']')
	}
	if err == nil {
		err = v.End()
	}
	if err != nil {
		return nil, err
	}
	return list, nil
}

// integerAt decodes the int64 at s.
func (d *wireDecoder) integerAt(s span) (int64, error) {
	if d.Null(s) {
		return 0, nil
	}
	v := d.at(s)
	n, err := v.Integer(64)
	if err == nil {
		err = v.End()
	}
	return n, err
}

// MarshalJSON implements json.Marshaler.
func (wr WireResponse) MarshalJSON() ([]byte, error) { return wr.AppendJSON(nil) }

// AppendJSON implements httpjson.Appender.
func (wr WireResponse) AppendJSON(buf []byte) ([]byte, error) {
	// Room for everything but the rows, which the result sizes from its
	// first: a buffer that starts empty grows twice, a pooled one not at all.
	size := len(`{"site":"","sql":"","mode":"","elapsedNs":,"result":,"traceId":""}`) + 20 +
		len(wr.Site) + len(wr.SQL) + len(wr.Mode) + len(wr.TraceID) + wr.Result.headSize()
	for i := range wr.Sources {
		st := &wr.Sources[i]
		size += len(`{"Source":"","Driver":"","Cached":false,"HarvestedAt":"2006-01-02T15:04:05.999999999+07:00","Rows":,"Err":"","Degraded":"","Age":},`) +
			2*20 + len(st.Source) + len(st.Driver) + len(st.Err) + len(st.Degraded)
	}
	buf = slices.Grow(buf, size)
	buf = httpjson.AppendString(append(buf, `{"site":`...), wr.Site)
	buf = httpjson.AppendString(append(buf, `,"sql":`...), wr.SQL)
	buf = httpjson.AppendString(append(buf, `,"mode":`...), wr.Mode)
	buf = strconv.AppendInt(append(buf, `,"elapsedNs":`...), wr.ElapsedNs, 10)
	var err error
	if len(wr.Sources) > 0 {
		buf = append(buf, `,"sources":[`...)
		for i := range wr.Sources {
			if i > 0 {
				buf = append(buf, ',')
			}
			if buf, err = appendStatus(buf, &wr.Sources[i]); err != nil {
				return nil, err
			}
		}
		buf = append(buf, ']')
	}
	if buf, err = wr.Result.appendJSON(append(buf, `,"result":`...)); err != nil {
		return nil, err
	}
	if wr.TraceID != "" {
		buf = httpjson.AppendString(append(buf, `,"traceId":`...), wr.TraceID)
	}
	if len(wr.Trace) > 0 {
		spans, err := json.Marshal(wr.Trace)
		if err != nil {
			return nil, err
		}
		buf = append(append(buf, `,"trace":`...), spans...)
	}
	return append(buf, '}'), nil
}

func appendStatus(buf []byte, st *core.SourceStatus) ([]byte, error) {
	buf = httpjson.AppendString(append(buf, `{"Source":`...), st.Source)
	buf = httpjson.AppendString(append(buf, `,"Driver":`...), st.Driver)
	buf = strconv.AppendBool(append(buf, `,"Cached":`...), st.Cached)
	buf = append(buf, `,"HarvestedAt":"`...)
	start := len(buf)
	buf = st.HarvestedAt.AppendFormat(buf, time.RFC3339Nano)
	// What time.Time.MarshalJSON refuses, because RFC 3339 cannot say it: a
	// year that is not four digits, a zone offset of a day or more.
	if buf[start+len("2006")] != '-' {
		return nil, errors.New("web: source status: Time.MarshalJSON: year outside of range [0,9999]")
	}
	if _, offset := st.HarvestedAt.Zone(); offset <= -24*3600 || offset >= 24*3600 {
		return nil, errors.New("web: source status: Time.MarshalJSON: timezone hour outside of range [0,23]")
	}
	buf = strconv.AppendInt(append(buf, `","Rows":`...), int64(st.Rows), 10)
	buf = httpjson.AppendString(append(buf, `,"Err":`...), st.Err)
	buf = httpjson.AppendString(append(buf, `,"Degraded":`...), st.Degraded)
	buf = strconv.AppendInt(append(buf, `,"Age":`...), int64(st.Age), 10)
	return append(buf, '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (wr *WireResponse) UnmarshalJSON(data []byte) error { return wr.DecodeJSON(data) }

// DecodeJSON implements httpjson.Decoder.
func (wr *WireResponse) DecodeJSON(data []byte) error {
	d := &wireDecoder{httpjson.NewCursor(data)}
	var at [len(responseKeys)]span
	if err := d.Members(responseKeys[:], at[:]); err != nil {
		return err
	}
	statuses, size := 0, 0
	if !d.Null(at[4]) {
		statuses, size = sizeSources(data[at[4].Start:at[4].End])
	}
	for _, i := range [...]int{0, 1, 2, 6} {
		size += at[i].End - at[i].Start
	}
	var t texts
	defer t.table.Done()
	t.size = size
	var out WireResponse
	var err error
	// The names first — the result's String cells, the statuses, the site
	// and mode — and the strings that are the answer's own after them, so
	// that the run of bytes is sized on its first use for what the intern
	// table did not take.
	if at[5] != (span{}) {
		if err := out.Result.decode(d.at(at[5]), &t); err != nil {
			return err
		}
	}
	if !d.Null(at[4]) {
		if out.Sources, err = d.at(at[4]).sources(statuses, &t); err != nil {
			return err
		}
	}
	for i, dst := range [...]*string{0: &out.Site, 2: &out.Mode} {
		if dst == nil {
			continue
		}
		if *dst, err = d.stringAt(at[i], t.name); err != nil {
			return err
		}
	}
	for i, dst := range [...]*string{1: &out.SQL, 6: &out.TraceID} {
		if dst == nil {
			continue
		}
		if *dst, err = d.stringAt(at[i], t.keep); err != nil {
			return err
		}
	}
	if out.ElapsedNs, err = d.integerAt(at[3]); err != nil {
		return err
	}
	if at[7] != (span{}) {
		var spans []trace.SpanData // here, so that only a traced answer pays for the pointer to it
		if err := json.Unmarshal(data[at[7].Start:at[7].End], &spans); err != nil {
			return d.at(at[7]).Errorf("trace: %v", err)
		}
		out.Trace = spans
	}
	*wr = out
	return nil
}

// sizeSources is the counting pre-pass over the "sources" text: how many
// statuses it holds and how many bytes of string they carry (a time is
// parsed, not kept). Both only size allocations, so it checks nothing;
// sources does that.
func sizeSources(text []byte) (statuses, stringBytes int) {
	var key []byte
	depth, value := 0, false // value: the last structural byte was ':'
	for i := 0; i < len(text); i++ {
		switch c := text[i]; c {
		case '{', '[':
			if depth++; depth == 2 {
				statuses++
			}
			value = false
		case '}', ']':
			depth--
		case ',':
			value = false
		case ':':
			value = true
		case '"':
			from := i + 1
			for i = from; i < len(text) && text[i] != '"'; i++ {
				if text[i] == '\\' {
					i++
				}
			}
			val := text[from:min(i, len(text))]
			switch {
			case !value:
				key = val
			case depth == 2 && string(key) != "HarvestedAt":
				stringBytes += len(val)
			}
		}
	}
	return statuses, stringBytes
}

// sources parses the "sources" array, which must be all of the input; n is
// how many statuses sizeSources counted. Its names come from the intern
// table; error text is the answer's own.
func (d *wireDecoder) sources(n int, t *texts) ([]core.SourceStatus, error) {
	// A status takes two bytes at least, which bounds what a miscount costs.
	list := make([]core.SourceStatus, 0, min(n, len(d.Rest())/2))
	more, err := d.Open('[', ']')
	for more && err == nil {
		var st core.SourceStatus
		for f := (httpjson.Fields{Known: statusKeys[:]}); ; {
			i, err := d.Next(&f)
			if err != nil {
				return nil, err
			}
			if i < 0 {
				break
			}
			if d.Peek() == 'n' && d.Literal("null") {
				continue
			}
			var b []byte
			var v int64
			switch i {
			case 0, 1, 5, 6:
				if b, err = d.StringValue(); err != nil {
					break
				}
				switch i {
				case 0:
					st.Source = t.name(b)
				case 1:
					st.Driver = t.name(b)
				case 5:
					st.Err = t.keep(b)
				case 6:
					st.Degraded = t.name(b)
				}
			case 2:
				st.Cached, err = d.Boolean()
			case 3:
				// time.Time's own reading of the literal, as encoding/json
				// would have it: strict RFC 3339, no escapes.
				if b, _, err = d.StringLit(); err == nil {
					if err = st.HarvestedAt.UnmarshalJSON(b); err != nil {
						err = d.Errorf("%v", err)
					}
				}
			case 4:
				v, err = d.Integer(strconv.IntSize)
				st.Rows = int(v)
			case 7:
				v, err = d.Integer(64)
				st.Age = time.Duration(v)
			}
			if err != nil {
				return nil, err
			}
		}
		list = append(list, st)
		more, err = d.More(']')
	}
	if err == nil {
		err = d.End()
	}
	if err != nil {
		return nil, err
	}
	return list, nil
}
