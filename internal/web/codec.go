package web

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/httpjson"
	"gridrm/internal/intern"
	"gridrm/internal/resultset"
)

// The wire codec. A result is the JSON object
//
//	{"columns":[{"name":…,"kind":…,"unit":…,"group":…},…],"rows":[[cell,…],…]}
//
// and the column kind fixes each cell's JSON form (DESIGN.md, "Wire
// codec"). WireResult writes and reads that object itself, without
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
	var t texts
	defer t.table.Done()
	return wr.decode(&wireDecoder{httpjson.NewCursor(data)}, &t)
}

// decode reads the result object at d's cursor, which must be the rest of
// d's input: one pass locates "columns" and "rows" (in either order), the
// columns give the kinds, and the rows are scanned cell by cell into values
// of those kinds. It accepts a subset of what a reflective decode of the same
// object would — keys spelled exactly, no duplicates, Int cells as integer
// literals — and every ResultSet it returns is the one that decode would
// have built. Its strings come from t.
func (wr *WireResult) decode(d *wireDecoder, t *texts) error {
	var at [len(resultKeys)]span
	if err := d.Members(resultKeys[:], at[:]); err != nil {
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
		if err := d.at(at[1]).rows(cols, b, t); err != nil {
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

// wireDecoder is httpjson.Cursor with the wire codec's own readers.
type wireDecoder struct{ httpjson.Cursor }

// span is the text of one value within a wireDecoder's data.
type span = httpjson.Span

// at returns a cursor over the value at s alone, offsets unchanged.
func (d *wireDecoder) at(s span) *wireDecoder { return &wireDecoder{d.Cursor.At(s)} }

// texts is where one decode's strings come from. A name — a String cell, a
// source, a driver — is the intern table's when the table takes it; a longer
// string, or a new name past the batch's admission cap, is cut from one run
// of bytes. The run is sized on its first use from the counting pre-passes,
// less what the table took, so an answer whose names are all known allocates
// no run at all.
type texts struct {
	table intern.Batch
	run   strings.Builder
	size  int // bytes the run may still have to hold
}

// name returns the string b spells, from the table if it takes b.
func (t *texts) name(b []byte) string {
	if s, ok := t.table.Bytes(b); ok {
		t.size -= len(b)
		return s
	}
	return t.keep(b)
}

// keep returns a copy of b cut from the run.
func (t *texts) keep(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if t.run.Cap() == 0 {
		t.run.Grow(max(t.size, len(b)))
	}
	from := t.run.Len()
	t.run.Write(b)
	return t.run.String()[from:]
}

// columns parses the "columns" array, which must be all of the input, onto
// cols. A column that is a GLUE field as the schema spells it — group, name,
// kind and unit — takes the schema's strings; any other is kept as sent.
func (d *wireDecoder) columns(cols []resultset.Column) ([]resultset.Column, error) {
	more, err := d.Open('[', ']')
	for more && err == nil {
		if len(cols) == maxWireColumns {
			return nil, d.Errorf("more than %d columns", maxWireColumns)
		}
		var c resultset.Column
		var text [len(columnKeys)][]byte
		for f := (httpjson.Fields{Known: columnKeys[:]}); ; {
			i, err := d.Next(&f)
			if err != nil {
				return nil, err
			}
			if i < 0 {
				break
			}
			if text[i], err = d.StringValue(); err != nil {
				return nil, err
			}
		}
		if text[1] == nil {
			return nil, d.Errorf("column %q has no kind", text[0])
		}
		var known bool
		if c.Kind, known = kindFromName(text[1]); !known {
			return nil, d.Errorf("unknown kind %q", text[1])
		}
		if g, f := glue.FieldSpelled(text[3], text[0]); f != nil && f.Kind == c.Kind && f.Unit == string(text[2]) {
			c.Name, c.Unit, c.Group = f.Name, f.Unit, g.Name
		} else {
			c.Name, c.Unit, c.Group = string(text[0]), string(text[2]), string(text[3])
		}
		cols = append(cols, c)
		more, err = d.More(']')
	}
	if err != nil {
		return nil, err
	}
	return cols, d.End()
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
// and String cells taken from t, so decoding costs an array per column that
// holds values, however many rows there are.
func (d *wireDecoder) rows(cols []resultset.Column, b *resultset.Builder, t *texts) error {
	n, stringBytes, nulls := sizeRows(d.Rest(), cols)
	t.size += stringBytes
	// A cell and its separator take two bytes at least, which bounds what a
	// miscounted input can make the columns cost; the first row says which
	// of them will hold values.
	b.Grow(min(n, (len(d.Rest())/2+1)/max(1, len(cols))), len(cols)-nulls)

	more, err := d.Open('[', ']')
	for more && err == nil {
		if err := d.Expect('['); err != nil {
			return err
		}
		for i := range cols {
			if i > 0 && d.Expect(',') != nil {
				return d.Errorf("row has fewer than %d cells", len(cols))
			}
			v, err := d.cell(cols[i].Kind, t)
			if err != nil {
				return fmt.Errorf("%w (column %s)", err, cols[i].Name)
			}
			b.Put(0, i, v)
		}
		if d.Expect(']') != nil {
			return d.Errorf("row has more than %d cells, or a malformed one", len(cols))
		}
		b.Rows(1)
		more, err = d.More(']')
	}
	if err != nil {
		return err
	}
	return d.End()
}

// cell parses one cell of the given kind; null is NULL for every kind.
// String values come from t.
func (d *wireDecoder) cell(kind glue.Kind, t *texts) (v resultset.Cell, err error) {
	if d.Peek() == 'n' && d.Literal("null") {
		return resultset.Cell{Null: true}, nil
	}
	v.Kind = kind
	switch kind {
	case glue.String, glue.Time:
		var s []byte
		if s, err = d.StringValue(); err != nil {
			return v, err
		}
		if kind == glue.String {
			v.Str = t.name(s)
		} else if v.Time, err = time.Parse(time.RFC3339Nano, string(s)); err != nil {
			err = d.Errorf("%v", err)
		}
	case glue.Int:
		v.Int, err = d.Integer(64)
	case glue.Float:
		var lit []byte
		if lit, _, err = d.Number(); err != nil {
			return v, err
		}
		if v.Float, err = strconv.ParseFloat(string(lit), 64); err != nil {
			err = d.Errorf("%v", err)
		}
	case glue.Bool:
		var t bool
		if t, err = d.Boolean(); t {
			v.Int = 1
		}
	default:
		err = d.Errorf("unknown kind %v", kind)
	}
	return v, err
}
