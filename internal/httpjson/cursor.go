package httpjson

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Cursor is a position in JSON text, the one reader beneath every
// self-decoding body (Decoder). Its methods check everything they consume,
// so the decoders built on it are safe on bytes json.Unmarshal has not
// vetted. What they hand back as []byte may be a slice of the text; whatever
// a decoder keeps it copies, so nothing decoded aliases the text.
type Cursor struct {
	data []byte
	pos  int
}

// NewCursor returns a cursor at the start of data.
func NewCursor(data []byte) Cursor { return Cursor{data: data} }

// Rest is the text not yet consumed.
func (d *Cursor) Rest() []byte { return d.data[d.pos:] }

// Offset is how much of the text has been consumed.
func (d *Cursor) Offset() int { return d.pos }

// Since is the text consumed from offset start on.
func (d *Cursor) Since(start int) []byte { return d.data[start:d.pos] }

// Span is the text of one value within a Cursor's text; the zero Span is a
// value that was not there.
type Span struct{ Start, End int }

// At returns a cursor over the value at s alone, offsets unchanged.
func (d *Cursor) At(s Span) Cursor { return Cursor{data: d.data[:s.End], pos: s.Start} }

// Null reports whether the value at s is absent or the literal null, which
// leave a field at its zero value alike, as they do in encoding/json.
func (d *Cursor) Null(s Span) bool {
	return s == Span{} || string(d.data[s.Start:s.End]) == "null"
}

// Errorf is an error at the cursor's offset.
func (d *Cursor) Errorf(format string, args ...any) error {
	return fmt.Errorf("json offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// Peek skips white space and returns the byte at the cursor, 0 at the end.
func (d *Cursor) Peek() byte {
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

// Expect consumes c, which must be next.
func (d *Cursor) Expect(c byte) error {
	if d.Peek() != c {
		return d.Errorf("expected %q", c)
	}
	d.pos++
	return nil
}

// Open consumes the opener of an array or object and reports whether an
// element follows; if the closer follows instead, it consumes that too.
func (d *Cursor) Open(opener, closer byte) (bool, error) {
	if err := d.Expect(opener); err != nil {
		return false, err
	}
	if d.Peek() == closer {
		d.pos++
		return false, nil
	}
	return true, nil
}

// More is called after an element: it consumes a comma and reports true, or
// consumes the closer and reports false.
func (d *Cursor) More(closer byte) (bool, error) {
	switch d.Peek() {
	case ',':
		d.pos++
		return true, nil
	case closer:
		d.pos++
		return false, nil
	}
	return false, d.Errorf("expected ',' or %q", closer)
}

// End checks that only white space is left.
func (d *Cursor) End() error {
	if d.Peek(); d.pos < len(d.data) {
		return d.Errorf("unexpected data after the value")
	}
	return nil
}

// Literal consumes word if it is next.
func (d *Cursor) Literal(word string) bool {
	if len(d.data)-d.pos < len(word) || string(d.data[d.pos:d.pos+len(word)]) != word {
		return false
	}
	d.pos += len(word)
	return true
}

// StringLit consumes a JSON string and returns it, quotes included. plain
// reports that the bytes between the quotes are the string's value as they
// stand: no escapes, valid UTF-8.
func (d *Cursor) StringLit() (lit []byte, plain bool, err error) {
	if d.Peek() != '"' {
		return nil, false, d.Errorf("expected a string")
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
			return nil, false, d.Errorf("control character in string")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.pos = len(d.data)
	return nil, false, d.Errorf("unterminated string")
}

// Unquote returns the value of a string literal: the literal's own bytes
// when it is plain, otherwise what encoding/json makes of it — escapes
// resolved, a surrogate pair joined, a lone surrogate or a byte that is not
// UTF-8 replaced by U+FFFD.
func (d *Cursor) Unquote(lit []byte, plain bool) ([]byte, error) {
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
			return nil, d.Errorf("unfinished escape in string")
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
				return nil, d.Errorf("invalid \\u escape in string")
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
			return nil, d.Errorf("invalid escape \\%c in string", c)
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

// Number consumes a JSON number and reports whether it is an integer
// literal (no fraction, no exponent).
func (d *Cursor) Number() (lit []byte, integer bool, err error) {
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
		return nil, false, d.Errorf("expected a number")
	}
	integer = true
	if i < len(data) && data[i] == '.' {
		i++
		integer = false
		if !digits() {
			return nil, false, d.Errorf("malformed number")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		integer = false
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, d.Errorf("malformed number")
		}
	}
	lit = data[d.pos:i]
	d.pos = i
	return lit, integer, nil
}

// Skip consumes one value of any shape, finding its end by bracket depth
// alone; the caller validates or re-parses what was skipped.
func (d *Cursor) Skip() error {
	switch d.Peek() {
	case '"':
		_, _, err := d.StringLit()
		return err
	case '[', '{':
		for depth := 0; ; d.pos++ {
			if d.pos >= len(d.data) {
				return d.Errorf("unterminated value")
			}
			switch d.data[d.pos] {
			case '"':
				if _, _, err := d.StringLit(); err != nil {
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
		return d.Errorf("expected a value")
	}
	return nil
}

// Fields is the state of a walk over one JSON object's fields.
type Fields struct {
	Known  []string // the keys the walk stops at
	seen   int      // bit i: known[i] has appeared
	opened bool
}

// Next advances to the object's next field whose key is in f.Known and
// returns the key's index, with the cursor on the field's value, which the
// caller consumes; it returns -1 once the object is closed. Other fields
// are checked and passed over. A known key appearing twice is an error, and
// so is a key that equals a known one only under case folding:
// encoding/json would bind both, and which of two spellings wins is not a
// rule worth having.
func (d *Cursor) Next(f *Fields) (int, error) {
	for {
		var more bool
		var err error
		if f.opened {
			more, err = d.More('}')
		} else {
			more, err = d.Open('{', '}')
			f.opened = true
		}
		if !more {
			return -1, err
		}
		lit, plain, err := d.StringLit()
		if err != nil {
			return 0, err
		}
		key, err := d.Unquote(lit, plain)
		if err != nil {
			return 0, err
		}
		if err := d.Expect(':'); err != nil {
			return 0, err
		}
		for i, name := range f.Known {
			if string(key) == name {
				if f.seen&(1<<i) != 0 {
					return 0, d.Errorf("duplicate key %q", name)
				}
				f.seen |= 1 << i
				return i, nil
			}
			if strings.EqualFold(string(key), name) {
				return 0, d.Errorf("key %q is not spelled %q", key, name)
			}
		}
		start := d.pos
		if err := d.Skip(); err != nil {
			return 0, err
		}
		if !json.Valid(d.data[start:d.pos]) {
			return 0, d.Errorf("malformed value for key %q", key)
		}
	}
}

// Members walks the object at the cursor, which must be the rest of the
// input, and leaves in at[i] where the value of known[i] is. The values are
// only delimited (Skip); whoever decodes one checks it.
func (d *Cursor) Members(known []string, at []Span) error {
	for f := (Fields{Known: known}); ; {
		i, err := d.Next(&f)
		if err != nil {
			return err
		}
		if i < 0 {
			return d.End()
		}
		d.Peek()
		at[i].Start = d.pos
		if err := d.Skip(); err != nil {
			return err
		}
		at[i].End = d.pos
	}
}

// StringValue consumes a JSON string and returns its value, which is a slice
// of the text unless the literal had escapes or bad UTF-8.
func (d *Cursor) StringValue() ([]byte, error) {
	lit, plain, err := d.StringLit()
	if err != nil {
		return nil, err
	}
	return d.Unquote(lit, plain)
}

// Integer consumes an integer literal that fits in bits bits. A fraction or
// an exponent is refused even when the value is whole, as encoding/json
// refuses them for an integer field.
func (d *Cursor) Integer(bits int) (int64, error) {
	lit, integer, err := d.Number()
	if err != nil {
		return 0, err
	}
	if !integer {
		return 0, d.Errorf("%s is not an integer literal", lit)
	}
	v, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		return 0, d.Errorf("%v", err)
	}
	return v, nil
}

// Boolean consumes true or false.
func (d *Cursor) Boolean() (bool, error) {
	switch c := d.Peek(); {
	case c == 't' && d.Literal("true"):
		return true, nil
	case c == 'f' && d.Literal("false"):
		return false, nil
	}
	return false, d.Errorf("expected true or false")
}
