package web

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"gridrm/internal/glue"
	"gridrm/internal/httpjson"
	"gridrm/internal/resultset"
)

// The wire codec. A result is the JSON object
//
//	{"columns":[{"name":…,"kind":…,"unit":…,"group":…},…],"rows":[[cell,…],…]}
//
// and the column kind fixes each cell's JSON form (DESIGN.md, "Wire
// contract"). WireResult writes and reads that object itself, without
// reflection and without boxing a cell: rows are appended to one buffer
// straight from the ResultSet's columns and scanned back straight into
// them. The request and response envelopes around it (envelope.go) are
// written and read with the same primitives.

// maxWireColumns bounds the columns a decoded result may declare. GLUE
// groups have about ten; the bound keeps resultset.NewMetadata's pairwise
// name check cheap on a hostile body.
const maxWireColumns = 1024

// MarshalJSON implements json.Marshaler.
func (wr WireResult) MarshalJSON() ([]byte, error) { return wr.appendJSON(nil) }

// appendJSON appends the result object to buf. A non-finite Float cell is
// written as null: JSON has no NaN or Inf, and a driver's 0/0 is an unknown
// value, which is what SQL NULL means.
func (wr WireResult) appendJSON(buf []byte) ([]byte, error) {
	rs := wr.ResultSet
	if rs == nil {
		return nil, errors.New("web: no result set to encode")
	}
	meta := rs.Metadata()
	buf = slices.Grow(buf, wr.headSize())
	buf = append(buf, `{"columns":[`...)
	for i := 0; i < meta.ColumnCount(); i++ {
		c := meta.Column(i)
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = httpjson.AppendString(append(buf, `{"name":`...), c.Name)
		buf = httpjson.AppendString(append(buf, `,"kind":`...), c.Kind.String())
		if c.Unit != "" {
			buf = httpjson.AppendString(append(buf, `,"unit":`...), c.Unit)
		}
		if c.Group != "" {
			buf = httpjson.AppendString(append(buf, `,"group":`...), c.Group)
		}
		buf = append(buf, '}')
	}
	buf = append(buf, `],"rows":[`...)
	// A concatenation's rows are written from the parts they are, in place:
	// the answer a hop only passes on is never copied into a set of its own.
	one := [1]*resultset.ResultSet{rs}
	var few [16]*resultset.Vector
	k, n := 0, rs.Len()
	for _, part := range resultset.Expand(one[:]) {
		// Look each column up once a part, not once a cell; GLUE groups
		// have about ten.
		cols := few[:0]
		for i := 0; i < meta.ColumnCount(); i++ {
			cols = append(cols, part.Column(i))
		}
		for r := 0; r < part.Len(); r, k = r+1, k+1 {
			start := len(buf)
			if k > 0 {
				buf = append(buf, ',')
			}
			buf = appendRow(buf, cols, r)
			if k == 0 {
				// The first row sizes the rest: one growth, an eighth to spare.
				buf = slices.Grow(buf, (len(buf)-start+1)*(n-1)*9/8+len(`]}`))
			}
		}
	}
	return append(buf, `]}`...), nil
}

// headSize is room enough for everything in the result object but its rows.
func (wr WireResult) headSize() int {
	size := len(`{"columns":[],"rows":[]}`)
	if wr.ResultSet == nil {
		return size
	}
	meta := wr.ResultSet.Metadata()
	for i := 0; i < meta.ColumnCount(); i++ {
		c := meta.Column(i)
		size += len(`{"name":"","kind":"string","unit":"","group":""},`) + len(c.Name) + len(c.Unit) + len(c.Group)
	}
	return size
}

// appendRow appends row r of the columns; one that is nil is all NULL.
func appendRow(buf []byte, cols []*resultset.Vector, r int) []byte {
	buf = append(buf, '[')
	for i, col := range cols {
		if i > 0 {
			buf = append(buf, ',')
		}
		if col == nil {
			buf = append(buf, "null"...)
			continue
		}
		switch v := col.Cell(r); {
		case v.Null:
			buf = append(buf, "null"...)
		case v.Kind == glue.String:
			buf = httpjson.AppendString(buf, v.Str)
		case v.Kind == glue.Float:
			buf = httpjson.AppendFloat(buf, v.Float)
		case v.Kind == glue.Bool:
			buf = strconv.AppendBool(buf, v.Int != 0)
		case v.Kind == glue.Time:
			buf = append(v.Time.AppendFormat(append(buf, '"'), time.RFC3339Nano), '"')
		default:
			buf = strconv.AppendInt(buf, v.Int, 10)
		}
	}
	return append(buf, ']')
}

// UnmarshalJSON implements json.Unmarshaler.
func (wr *WireResult) UnmarshalJSON(data []byte) error {
	return wr.decode(&wireDecoder{data: data})
}

// decode reads the result object at d's cursor, which must be the rest of
// d's input: one pass locates "columns" and "rows" (in either order), the
// columns give the kinds, and the rows are scanned cell by cell into values
// of those kinds. It accepts a subset of what a reflective decode of the same
// object would — keys spelled exactly, no duplicates, Int cells as integer
// literals — and every ResultSet it returns is the one that decode would
// have built.
func (wr *WireResult) decode(d *wireDecoder) error {
	var at [len(resultKeys)]span
	if err := d.members(resultKeys[:], at[:]); err != nil {
		return err
	}
	// GLUE groups have about ten columns, so theirs never leave the stack.
	var few [16]resultset.Column
	cols := few[:0]
	if at[0] != (span{}) {
		var err error
		if cols, err = d.at(at[0]).columns(cols); err != nil {
			return err
		}
	}
	meta, err := resultset.MetadataForColumns(cols)
	if err != nil {
		return fmt.Errorf("web: %w", err)
	}
	b := resultset.NewBuilder(meta)
	if at[1] != (span{}) {
		if err := d.at(at[1]).rows(cols, b); err != nil {
			return err
		}
	}
	rs, err := b.Build()
	if err != nil {
		return fmt.Errorf("web: %w", err)
	}
	wr.ResultSet = rs
	return nil
}

var (
	resultKeys = [...]string{"columns", "rows"}
	columnKeys = [...]string{"name", "kind", "unit", "group"}
)

// wireDecoder is a cursor over JSON text. Its methods check everything they
// consume, so the decoders are safe on bytes json.Unmarshal has not vetted.
// What they hand back as []byte may be a slice of data; whatever a decoder
// keeps it copies (keep, string(b)), so nothing decoded aliases data.
type wireDecoder struct {
	data []byte
	pos  int
}

// span is the text of one value within a wireDecoder's data; the zero span
// is a value that was not there.
type span struct{ start, end int }

// at returns a cursor over the value at s alone, offsets unchanged.
func (d *wireDecoder) at(s span) *wireDecoder {
	return &wireDecoder{data: d.data[:s.end], pos: s.start}
}

// null reports whether the value at s is absent or the literal null, which
// leave a field at its zero value alike, as they do in encoding/json.
func (d *wireDecoder) null(s span) bool {
	return s == span{} || string(d.data[s.start:s.end]) == "null"
}

func (d *wireDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("web: wire offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// peek skips white space and returns the byte at the cursor, 0 at the end.
func (d *wireDecoder) peek() byte {
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

func (d *wireDecoder) expect(c byte) error {
	if d.peek() != c {
		return d.errorf("expected %q", c)
	}
	d.pos++
	return nil
}

// open consumes the opener of an array or object and reports whether an
// element follows; if the closer follows instead, it consumes that too.
func (d *wireDecoder) open(opener, closer byte) (bool, error) {
	if err := d.expect(opener); err != nil {
		return false, err
	}
	if d.peek() == closer {
		d.pos++
		return false, nil
	}
	return true, nil
}

// more is called after an element: it consumes a comma and reports true, or
// consumes the closer and reports false.
func (d *wireDecoder) more(closer byte) (bool, error) {
	switch d.peek() {
	case ',':
		d.pos++
		return true, nil
	case closer:
		d.pos++
		return false, nil
	}
	return false, d.errorf("expected ',' or %q", closer)
}

// end checks that only white space is left.
func (d *wireDecoder) end() error {
	if d.peek(); d.pos < len(d.data) {
		return d.errorf("unexpected data after the value")
	}
	return nil
}

// literal consumes word if it is next.
func (d *wireDecoder) literal(word string) bool {
	if len(d.data)-d.pos < len(word) || string(d.data[d.pos:d.pos+len(word)]) != word {
		return false
	}
	d.pos += len(word)
	return true
}

// stringLit consumes a JSON string and returns it, quotes included. plain
// reports that the bytes between the quotes are the string's value as they
// stand: no escapes, valid UTF-8.
func (d *wireDecoder) stringLit() (lit []byte, plain bool, err error) {
	if d.peek() != '"' {
		return nil, false, d.errorf("expected a string")
	}
	start := d.pos
	plain = true
	ascii := true
	for i := start + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			lit = d.data[start:d.pos]
			return lit, plain && (ascii || utf8.Valid(lit)), nil
		case c == '\\':
			plain = false
			i++
		case c < ' ':
			d.pos = i
			return nil, false, d.errorf("control character in string")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.pos = len(d.data)
	return nil, false, d.errorf("unterminated string")
}

// unquote returns the value of a string literal: the literal's own bytes
// when it is plain, otherwise what encoding/json makes of it — escapes
// resolved, a surrogate pair joined, a lone surrogate or a byte that is not
// UTF-8 replaced by U+FFFD.
func (d *wireDecoder) unquote(lit []byte, plain bool) ([]byte, error) {
	s := lit[1 : len(lit)-1]
	if plain {
		return s, nil
	}
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '\\' {
			if c < utf8.RuneSelf {
				out = append(out, c)
				i++
				continue
			}
			r, size := utf8.DecodeRune(s[i:])
			out = utf8.AppendRune(out, r)
			i += size
			continue
		}
		if i+1 == len(s) {
			return nil, d.errorf("unfinished escape in string")
		}
		i += 2
		switch c := s[i-1]; c {
		case '"', '\\', '/':
			out = append(out, c)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r := hex4(s[i:])
			if r < 0 {
				return nil, d.errorf("invalid \\u escape in string")
			}
			i += 4
			if utf16.IsSurrogate(r) {
				low := rune(-1)
				if i+2 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
					low = hex4(s[i+2:])
				}
				if r = utf16.DecodeRune(r, low); r != unicode.ReplacementChar {
					i += 6 // a valid pair; a lone half is U+FFFD and what follows is read on its own
				}
			}
			out = utf8.AppendRune(out, r)
		default:
			return nil, d.errorf("invalid escape \\%c in string", c)
		}
	}
	return out, nil
}

// hex4 reads four hex digits, -1 when s does not start with four.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number consumes a JSON number and reports whether it is an integer
// literal (no fraction, no exponent).
func (d *wireDecoder) number() (lit []byte, integer bool, err error) {
	data, i := d.data, d.pos
	digits := func() bool {
		from := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if !digits() {
		return nil, false, d.errorf("expected a number")
	}
	integer = true
	if i < len(data) && data[i] == '.' {
		i++
		integer = false
		if !digits() {
			return nil, false, d.errorf("malformed number")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		integer = false
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, d.errorf("malformed number")
		}
	}
	lit = data[d.pos:i]
	d.pos = i
	return lit, integer, nil
}

// skip consumes one value of any shape, finding its end by bracket depth
// alone; the caller validates or re-parses what was skipped.
func (d *wireDecoder) skip() error {
	switch d.peek() {
	case '"':
		_, _, err := d.stringLit()
		return err
	case '[', '{':
		for depth := 0; ; d.pos++ {
			if d.pos >= len(d.data) {
				return d.errorf("unterminated value")
			}
			switch d.data[d.pos] {
			case '"':
				if _, _, err := d.stringLit(); err != nil {
					return err
				}
				d.pos-- // stringLit stepped past the quote; the loop steps again
			case '[', '{':
				depth++
			case ']', '}':
				if depth--; depth == 0 {
					d.pos++
					return nil
				}
			}
		}
	}
	start := d.pos
	for d.pos < len(d.data) && !strings.ContainsRune(",]} \t\n\r", rune(d.data[d.pos])) {
		d.pos++
	}
	if d.pos == start {
		return d.errorf("expected a value")
	}
	return nil
}

// fields is the state of a walk over one JSON object's fields.
type fields struct {
	known  []string // the keys the walk stops at
	seen   int      // bit i: known[i] has appeared
	opened bool
}

// next advances to the object's next field whose key is in f.known and
// returns the key's index, with the cursor on the field's value, which the
// caller consumes; it returns -1 once the object is closed. Other fields
// are checked and passed over. A known key appearing twice is an error, and
// so is a key that equals a known one only under case folding:
// encoding/json would bind both, and which of two spellings wins is not a
// rule worth having.
func (d *wireDecoder) next(f *fields) (int, error) {
	for {
		var more bool
		var err error
		if f.opened {
			more, err = d.more('}')
		} else {
			more, err = d.open('{', '}')
			f.opened = true
		}
		if !more {
			return -1, err
		}
		lit, plain, err := d.stringLit()
		if err != nil {
			return 0, err
		}
		key, err := d.unquote(lit, plain)
		if err != nil {
			return 0, err
		}
		if err := d.expect(':'); err != nil {
			return 0, err
		}
		for i, name := range f.known {
			if string(key) == name {
				if f.seen&(1<<i) != 0 {
					return 0, d.errorf("duplicate key %q", name)
				}
				f.seen |= 1 << i
				return i, nil
			}
			if strings.EqualFold(string(key), name) {
				return 0, d.errorf("key %q is not spelled %q", key, name)
			}
		}
		start := d.pos
		if err := d.skip(); err != nil {
			return 0, err
		}
		if !json.Valid(d.data[start:d.pos]) {
			return 0, d.errorf("malformed value for key %q", key)
		}
	}
}

// members walks the object at the cursor, which must be the rest of the
// input, and leaves in at[i] where the value of known[i] is. The values are
// only delimited (skip); whoever decodes one checks it.
func (d *wireDecoder) members(known []string, at []span) error {
	for f := (fields{known: known}); ; {
		i, err := d.next(&f)
		if err != nil {
			return err
		}
		if i < 0 {
			return d.end()
		}
		d.peek()
		at[i].start = d.pos
		if err := d.skip(); err != nil {
			return err
		}
		at[i].end = d.pos
	}
}

// stringValue consumes a JSON string and returns its value, which is a slice
// of d.data unless the literal had escapes or bad UTF-8.
func (d *wireDecoder) stringValue() ([]byte, error) {
	lit, plain, err := d.stringLit()
	if err != nil {
		return nil, err
	}
	return d.unquote(lit, plain)
}

// keep returns a copy of b that lives at the end of text: the strings of one
// decode share one backing array, sized before the first is kept.
func keep(text *strings.Builder, b []byte) string {
	from := text.Len()
	text.Write(b)
	return text.String()[from:]
}

// integer consumes an integer literal that fits in bits bits. A fraction or
// an exponent is refused even when the value is whole, as encoding/json
// refuses them for an integer field.
func (d *wireDecoder) integer(bits int) (int64, error) {
	lit, integer, err := d.number()
	if err != nil {
		return 0, err
	}
	if !integer {
		return 0, d.errorf("%s is not an integer literal", lit)
	}
	v, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		return 0, d.errorf("%v", err)
	}
	return v, nil
}

func (d *wireDecoder) boolean() (bool, error) {
	switch c := d.peek(); {
	case c == 't' && d.literal("true"):
		return true, nil
	case c == 'f' && d.literal("false"):
		return false, nil
	}
	return false, d.errorf("expected true or false")
}

// columns parses the "columns" array, which must be all of the input, onto
// cols. A column that is a GLUE field as the schema spells it — group, name,
// kind and unit — takes the schema's strings; any other is kept as sent.
func (d *wireDecoder) columns(cols []resultset.Column) ([]resultset.Column, error) {
	more, err := d.open('[', ']')
	for more && err == nil {
		if len(cols) == maxWireColumns {
			return nil, d.errorf("more than %d columns", maxWireColumns)
		}
		var c resultset.Column
		var text [len(columnKeys)][]byte
		for f := (fields{known: columnKeys[:]}); ; {
			i, err := d.next(&f)
			if err != nil {
				return nil, err
			}
			if i < 0 {
				break
			}
			if text[i], err = d.stringValue(); err != nil {
				return nil, err
			}
		}
		if text[1] == nil {
			return nil, d.errorf("column %q has no kind", text[0])
		}
		var known bool
		if c.Kind, known = kindFromName(text[1]); !known {
			return nil, d.errorf("unknown kind %q", text[1])
		}
		if g, f := glue.FieldSpelled(text[3], text[0]); f != nil && f.Kind == c.Kind && f.Unit == string(text[2]) {
			c.Name, c.Unit, c.Group = f.Name, f.Unit, g.Name
		} else {
			c.Name, c.Unit, c.Group = string(text[0]), string(text[2]), string(text[3])
		}
		cols = append(cols, c)
		more, err = d.more(']')
	}
	if err != nil {
		return nil, err
	}
	return cols, d.end()
}

func kindFromName(name []byte) (glue.Kind, bool) {
	switch string(name) {
	case "string":
		return glue.String, true
	case "int":
		return glue.Int, true
	case "float":
		return glue.Float, true
	case "bool":
		return glue.Bool, true
	case "time":
		return glue.Time, true
	}
	return 0, false
}

// sizeRows is the counting pre-pass over the "rows" text: how many rows it
// holds, how many bytes its String cells take and how many cells of its first
// row are null. All three only size allocations, so it trusts nothing and
// checks nothing; rows does that.
func sizeRows(text []byte, cols []resultset.Column) (rows, stringBytes, nulls int) {
	depth, col := 0, 0
	for i := 0; i < len(text); i++ {
		switch c := text[i]; c {
		case '[', '{':
			if depth++; depth == 2 {
				rows++
				col = 0
			}
		case ']', '}':
			depth--
		case ',':
			if depth == 2 {
				col++
			}
		case 'n': // a string is skipped whole below, so this is a null
			if depth == 2 && rows == 1 {
				nulls++
			}
		case '"':
			from := i + 1
			for i = from; i < len(text) && text[i] != '"'; i++ {
				if text[i] == '\\' {
					i++
				}
			}
			if depth == 2 && col < len(cols) && cols[col].Kind == glue.String {
				stringBytes += min(i, len(text)) - from
			}
		}
	}
	return rows, stringBytes, nulls
}

// rows parses the "rows" array, which must be the rest of the input, into
// b: each cell goes straight into its column, the columns sized by sizeRows
// and all String cells kept in one run of bytes, so decoding costs an array
// per column that holds values, however many rows there are.
func (d *wireDecoder) rows(cols []resultset.Column, b *resultset.Builder) error {
	n, stringBytes, nulls := sizeRows(d.data[d.pos:], cols)
	var text strings.Builder
	text.Grow(stringBytes)
	// A cell and its separator take two bytes at least, which bounds what a
	// miscounted input can make the columns cost; the first row says which
	// of them will hold values.
	b.Grow(min(n, ((len(d.data)-d.pos)/2+1)/max(1, len(cols))), len(cols)-nulls)

	more, err := d.open('[', ']')
	for more && err == nil {
		if err := d.expect('['); err != nil {
			return err
		}
		for i := range cols {
			if i > 0 && d.expect(',') != nil {
				return d.errorf("row has fewer than %d cells", len(cols))
			}
			v, err := d.cell(cols[i].Kind, &text)
			if err != nil {
				return fmt.Errorf("%w (column %s)", err, cols[i].Name)
			}
			b.Put(0, i, v)
		}
		if d.expect(']') != nil {
			return d.errorf("row has more than %d cells, or a malformed one", len(cols))
		}
		b.Rows(1)
		more, err = d.more(']')
	}
	if err != nil {
		return err
	}
	return d.end()
}

// cell parses one cell of the given kind; null is NULL for every kind.
// String values are kept in text.
func (d *wireDecoder) cell(kind glue.Kind, text *strings.Builder) (v resultset.Cell, err error) {
	if d.peek() == 'n' && d.literal("null") {
		return resultset.Cell{Null: true}, nil
	}
	v.Kind = kind
	switch kind {
	case glue.String, glue.Time:
		var s []byte
		if s, err = d.stringValue(); err != nil {
			return v, err
		}
		if kind == glue.String {
			v.Str = keep(text, s)
		} else if v.Time, err = time.Parse(time.RFC3339Nano, string(s)); err != nil {
			err = d.errorf("%v", err)
		}
	case glue.Int:
		v.Int, err = d.integer(64)
	case glue.Float:
		var lit []byte
		if lit, _, err = d.number(); err != nil {
			return v, err
		}
		if v.Float, err = strconv.ParseFloat(string(lit), 64); err != nil {
			err = d.errorf("%v", err)
		}
	case glue.Bool:
		var t bool
		if t, err = d.boolean(); t {
			v.Int = 1
		}
	default:
		err = d.errorf("unknown kind %v", kind)
	}
	return v, err
}
