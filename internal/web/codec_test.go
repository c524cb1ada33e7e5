package web

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/httpjson"
	"gridrm/internal/resultset"
)

// The reflective reference codec: the wire form as plain structs run
// through encoding/json, the way the servlet encoded and decoded results
// before WireResult did it by hand. It is the oracle the hand-written codec
// is tested against. Its one departure from that older code is UseNumber on
// decode, so an Int cell is parsed from its literal instead of passing
// through float64 (which rounds above 2^53 — the defect
// TestInt64ExactOnTheWire pins).

type refColumn struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Unit  string `json:"unit,omitempty"`
	Group string `json:"group,omitempty"`
}

type refResult struct {
	Columns []refColumn `json:"columns"`
	Rows    [][]any     `json:"rows"`
}

func refEncode(rs *resultset.ResultSet) ([]byte, error) {
	meta := rs.Metadata()
	out := refResult{Columns: make([]refColumn, meta.ColumnCount()), Rows: make([][]any, rs.Len())}
	for i := range out.Columns {
		c := meta.Column(i)
		out.Columns[i] = refColumn{Name: c.Name, Kind: c.Kind.String(), Unit: c.Unit, Group: c.Group}
	}
	for r := range out.Rows {
		row := make([]any, meta.ColumnCount()) // never nil: a row of no cells is [], not null
		for i, v := range rs.RowAt(r) {
			if t, ok := v.(time.Time); ok {
				v = t.Format(time.RFC3339Nano)
			}
			row[i] = v
		}
		out.Rows[r] = row
	}
	return json.Marshal(out)
}

func refDecode(data []byte) (*resultset.ResultSet, error) {
	var wr refResult
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&wr); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("data after the result")
	}
	cols := make([]resultset.Column, len(wr.Columns))
	for i, c := range wr.Columns {
		k, ok := kindFromName([]byte(c.Kind))
		if !ok {
			return nil, fmt.Errorf("unknown kind %q", c.Kind)
		}
		cols[i] = resultset.Column{Name: c.Name, Kind: k, Unit: c.Unit, Group: c.Group}
	}
	meta, err := resultset.NewMetadata(cols)
	if err != nil {
		return nil, err
	}
	b := resultset.NewBuilder(meta)
	for _, row := range wr.Rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("row has %d cells, want %d", len(row), len(cols))
		}
		decoded := make([]any, len(row))
		for i, v := range row {
			if decoded[i], err = decodeCell(v, cols[i].Kind); err != nil {
				return nil, fmt.Errorf("column %s: %w", cols[i].Name, err)
			}
		}
		b.Append(decoded...)
	}
	return b.Build()
}

func decodeCell(v any, kind glue.Kind) (any, error) {
	if v == nil {
		return nil, nil
	}
	switch kind {
	case glue.String:
		if s, ok := v.(string); ok {
			return s, nil
		}
	case glue.Int:
		switch x := v.(type) {
		case json.Number:
			return strconv.ParseInt(string(x), 10, 64)
		case string:
			return strconv.ParseInt(x, 10, 64)
		}
	case glue.Float:
		if n, ok := v.(json.Number); ok {
			return n.Float64()
		}
	case glue.Bool:
		if b, ok := v.(bool); ok {
			return b, nil
		}
	case glue.Time:
		if s, ok := v.(string); ok {
			return time.Parse(time.RFC3339Nano, s)
		}
	}
	return nil, fmt.Errorf("expected %s, got %T", kind, v)
}

// sameResult reports how two result sets differ, "" when they do not.
// Times compare with Equal plus zone offset; everything else with ==.
func sameResult(a, b *resultset.ResultSet) string {
	am, bm := a.Metadata(), b.Metadata()
	if am.ColumnCount() != bm.ColumnCount() {
		return fmt.Sprintf("%d columns vs %d", am.ColumnCount(), bm.ColumnCount())
	}
	for i := 0; i < am.ColumnCount(); i++ {
		if am.Column(i) != bm.Column(i) {
			return fmt.Sprintf("column %d: %+v vs %+v", i, am.Column(i), bm.Column(i))
		}
	}
	if a.Len() != b.Len() {
		return fmt.Sprintf("%d rows vs %d", a.Len(), b.Len())
	}
	for r := 0; r < a.Len(); r++ {
		ar, br := a.RowAt(r), b.RowAt(r)
		if len(ar) != len(br) {
			return fmt.Sprintf("row %d: %d cells vs %d", r, len(ar), len(br))
		}
		for c := range ar {
			at, aok := ar[c].(time.Time)
			bt, bok := br[c].(time.Time)
			if aok && bok {
				_, ao := at.Zone()
				_, bo := bt.Zone()
				if at.Equal(bt) && ao == bo {
					continue
				}
			} else if ar[c] == br[c] {
				continue
			}
			return fmt.Sprintf("row %d column %d: %#v vs %#v", r, c, ar[c], br[c])
		}
	}
	return ""
}

func decodeResult(data []byte) (*resultset.ResultSet, error) {
	var wr WireResult
	if err := wr.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return wr.ResultSet, nil
}

// genResult builds a random ResultSet: any mix of kinds, NULLs, strings
// with everything a JSON string has to escape, integers at both ends of
// int64, floats at every magnitude, times in and out of UTC.
func genResult(rng *rand.Rand) *resultset.ResultSet {
	cols := make([]resultset.Column, rng.Intn(7))
	for i := range cols {
		cols[i] = resultset.Column{Name: fmt.Sprintf("C%d<&>é", i), Kind: glue.Kind(rng.Intn(5))}
		if rng.Intn(2) == 0 {
			cols[i].Unit, cols[i].Group = "MB/s", "Processor"
		}
	}
	meta, err := resultset.NewMetadata(cols)
	if err != nil {
		panic(err)
	}
	pieces := []string{"node", "-", "07", " ", `"`, `\`, "/", "<", ">", "&", "\t", "\n", "\x00", "\x1f", "\x7f",
		"é", "日本", "\U0001F600", "\u2028", "\u2029", "\xff", "\xc3", "\\u0041", ""}
	ints := []int64{0, 1, -1, 255, 256, 1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-7, 1e-6, 123456.789, 1e20, 1e21, 1.7976931348623157e308, 5e-324}
	b := resultset.NewBuilder(meta)
	for r, n := 0, rng.Intn(6); r < n; r++ {
		row := make([]any, len(cols))
		for i, c := range cols {
			if rng.Intn(5) == 0 {
				continue // NULL
			}
			switch c.Kind {
			case glue.String:
				var sb strings.Builder
				for k := rng.Intn(5); k > 0; k-- {
					sb.WriteString(pieces[rng.Intn(len(pieces))])
				}
				row[i] = sb.String()
			case glue.Int:
				if row[i] = ints[rng.Intn(len(ints))]; rng.Intn(2) == 0 {
					row[i] = rng.Int63() - rng.Int63()
				}
			case glue.Float:
				if row[i] = floats[rng.Intn(len(floats))]; rng.Intn(2) == 0 {
					row[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
				}
			case glue.Bool:
				row[i] = rng.Intn(2) == 0
			case glue.Time:
				t := time.Unix(rng.Int63n(4e9)-1e9, rng.Int63n(1e9))
				if row[i] = t.UTC(); rng.Intn(3) == 0 {
					row[i] = t.In(time.FixedZone("", (rng.Intn(27)-12)*1800))
				}
			}
		}
		b.Append(row...)
	}
	rs, err := b.Build()
	if err != nil {
		panic(err)
	}
	return rs
}

// TestWireDifferential: over generated result sets the hand-written encoder
// writes byte for byte what the reflective one writes, and each decoder
// reads the other's output back to the same ResultSet.
func TestWireDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20030901))
	for i := 0; i < 2000; i++ {
		rs := genResult(rng)
		want, err := refEncode(rs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(WireResult{ResultSet: rs})
		if err != nil {
			t.Fatalf("encode: %v\n%s", err, want)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encodings differ\nnew %s\nref %s", got, want)
		}
		fromRef, err := decodeResult(want)
		if err != nil {
			t.Fatalf("new decoder on reference bytes: %v\n%s", err, want)
		}
		fromNew, err := refDecode(got)
		if err != nil {
			t.Fatalf("reference decoder on new bytes: %v\n%s", err, got)
		}
		if diff := sameResult(fromRef, fromNew); diff != "" {
			t.Fatalf("decoders disagree: %s\n%s", diff, got)
		}
		// Invalid UTF-8 becomes U+FFFD on the wire, so compare with the
		// original only through a second trip.
		again, err := json.Marshal(WireResult{ResultSet: fromRef})
		if err != nil {
			t.Fatal(err)
		}
		twice, err := decodeResult(again)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameResult(fromRef, twice); diff != "" {
			t.Fatalf("second trip changed the result: %s", diff)
		}
	}
}

// TestWireConcatenationMatchesFlattened: an answer that is a concatenation
// of whole parts is written from the parts as they stand, and its bytes are
// those of the same rows held in one set, and of the concatenation's own
// flattened copy. Over generated shapes (NULL-only columns among them) the
// rows are split into 1, 2 or many parts, empty ones included, each holding
// only the columns its rows fill, and read whole or projected.
func TestWireConcatenationMatchesFlattened(t *testing.T) {
	rng := rand.New(rand.NewSource(20030901))
	concatenations := 0
	for i := 0; i < 2000; i++ {
		src := genResult(rng)
		meta := src.Metadata()
		rows := resultset.New(meta)
		for k := 0; k < 1+rng.Intn(4); k++ {
			if err := rows.Merge(src); err != nil {
				t.Fatal(err)
			}
		}
		// Cut the rows into parts at random points, repeats making empty parts.
		cuts := []int{0, rows.Len()}
		for k := rng.Intn([]int{1, 2, 12}[i%3]); k > 0; k-- {
			cuts = append(cuts, rng.Intn(rows.Len()+1))
		}
		slices.Sort(cuts)
		var parts []*resultset.ResultSet
		for k := 1; k < len(cuts); k++ {
			sel := []resultset.Ref{}
			for r := cuts[k-1]; r < cuts[k]; r++ {
				sel = append(sel, resultset.Ref{Row: int32(r)})
			}
			parts = append(parts, resultset.Gather(meta, []*resultset.ResultSet{rows}, sel, nil))
		}
		outMeta, cols := meta, []int(nil)
		if rng.Intn(2) == 0 && meta.ColumnCount() > 0 {
			names := meta.ColumnNames()
			var pick []string
			for _, k := range rng.Perm(len(names))[:1+rng.Intn(len(names))] {
				pick = append(pick, names[k])
			}
			var err error
			if outMeta, cols, err = meta.Project(pick); err != nil {
				t.Fatal(err)
			}
		}
		cat := resultset.Gather(outMeta, parts, nil, cols)
		if len(resultset.Expand([]*resultset.ResultSet{cat})) > 1 {
			concatenations++
		}
		got, err := json.Marshal(WireResult{ResultSet: cat})
		if err != nil {
			t.Fatal(err)
		}
		one, err := json.Marshal(WireResult{ResultSet: resultset.Gather(outMeta, []*resultset.ResultSet{rows}, nil, cols)})
		if err != nil {
			t.Fatal(err)
		}
		flat := resultset.New(outMeta)
		if err := flat.Merge(cat); err != nil {
			t.Fatal(err)
		}
		flattened, err := json.Marshal(WireResult{ResultSet: flat})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, one) || !bytes.Equal(got, flattened) {
			t.Fatalf("%d parts %v, columns %v:\nconcatenation %s\none set       %s\nflattened     %s", len(parts), cuts, cols, got, one, flattened)
		}
	}
	if concatenations < 500 {
		t.Fatalf("only %d of the answers were concatenations", concatenations)
	}
}

// TestGoldenParentResponse: a response captured from the commit before the
// hand-written codec (json.Marshal of its reflective WireResponse) decodes
// to what the reference makes of it, and what this commit writes for that
// result the reference still reads.
func TestGoldenParentResponse(t *testing.T) {
	body, err := os.ReadFile("testdata/parent_response.json")
	if err != nil {
		t.Fatal(err)
	}
	var wr WireResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(wr)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Site != "siteA" || resp.Mode != core.ModeCached || len(resp.Sources) != 2 || resp.Sources[1].Err != "timed out" {
		t.Errorf("envelope misread: %+v", resp)
	}
	var raw struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	want, err := refDecode(raw.Result)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameResult(resp.ResultSet, want); diff != "" {
		t.Errorf("golden result: %s", diff)
	}
	rs := resp.ResultSet
	if rs.Len() != 5 || rs.RowAt(3)[1] != int64(1<<53) || rs.RowAt(2)[0] != nil ||
		rs.RowAt(1)[0] != "a<b>&c \"q\" \\ \t\n\u2028 ünï © 日本 \U0001F600" {
		t.Errorf("golden cells misread:\n%s", rs)
	}
	again, err := json.Marshal(EncodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	// The golden's one invalid byte arrived as U+FFFD, which is now a
	// character like any other and needs no escape.
	if want := bytes.ReplaceAll(body, []byte(`\ufffd`), []byte("\ufffd")); !bytes.Equal(again, want) {
		t.Errorf("re-encoded golden differs\n got %s\nwant %s", again, want)
	}
}

// TestInt64ExactOnTheWire: every int64 survives a hop. Decoding through
// float64 rounded 2^53+1 to 2^53 and overflowed at the extremes.
func TestInt64ExactOnTheWire(t *testing.T) {
	meta, _ := resultset.NewMetadata([]resultset.Column{{Name: "N", Kind: glue.Int}})
	vals := []int64{1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}
	b := resultset.NewBuilder(meta)
	for _, v := range vals {
		b.Append(v)
	}
	rs, _ := b.Build()
	body, err := json.Marshal(EncodeResponse(&core.Response{ResultSet: rs}))
	if err != nil {
		t.Fatal(err)
	}
	var wr WireResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(wr)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got := resp.ResultSet.RowAt(i)[0]; got != v {
			t.Errorf("int64 %d arrived as %v", v, got)
		}
	}
}

// TestNonFiniteFloatIsNull: NaN and ±Inf have no JSON form; they cross the
// wire as NULL instead of failing the whole response.
func TestNonFiniteFloatIsNull(t *testing.T) {
	meta, _ := resultset.NewMetadata([]resultset.Column{{Name: "F", Kind: glue.Float}})
	rs, _ := resultset.NewBuilder(meta).Append(math.NaN()).Append(math.Inf(1)).Append(math.Inf(-1)).Append(2.5).Build()
	body, err := json.Marshal(WireResult{ResultSet: rs})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"columns":[{"name":"F","kind":"float"}],"rows":[[null],[null],[null],[2.5]]}`; string(body) != want {
		t.Errorf("got %s\nwant %s", body, want)
	}
}

// TestUnquoteMatchesEncodingJSON: over string literals assembled from every
// kind of escape, good and bad, the decoder's own unquoting accepts exactly
// what encoding/json accepts and makes the same string of it.
func TestUnquoteMatchesEncodingJSON(t *testing.T) {
	pieces := []string{"a", "node-07", " ", "/", "é", "日本", "\U0001F600", "\xff", "\xc3", "\xed\xa0\x80",
		`\"`, `\\`, `\/`, `\b`, `\f`, `\n`, `\r`, `\t`, `\u0041`, `\u00e9`, `\u00E9`, `\u2028`, `\u0000`, `\uFFFD`,
		`\ud83d\ude00`, `\uD83D\uDE00`, `\ud83d`, `\ude00`, `\ud83d\u0041`, `\ud83dx`, `\ud83d\n`, `\ud83d\ud83d\ude00`,
		`\x`, `\'`, `\u12`, `\u12g4`, `\U0041`, `\u`, `\`}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 20000; i++ {
		var sb strings.Builder
		sb.WriteByte('"')
		for k := rng.Intn(5); k > 0; k-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		sb.WriteByte('"')
		lit := []byte(sb.String())
		var want string
		wantErr := json.Unmarshal(lit, &want)
		d := &wireDecoder{data: lit}
		got, err := d.stringValue()
		if err == nil {
			err = d.end()
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: decoder says %v, encoding/json says %v", lit, err, wantErr)
		}
		if err == nil && string(got) != want {
			t.Fatalf("%s: decoder read %q, encoding/json %q", lit, got, want)
		}
	}
}

// wireCases are result objects the decoder must take a position on; they
// also seed FuzzDecodeResponse. ok says whether it accepts them.
var wireCases = []struct {
	name, body string
	ok         bool
}{
	{"every kind", `{"columns":[{"name":"S","kind":"string","unit":"u","group":"G"},{"name":"I","kind":"int"},{"name":"F","kind":"float"},{"name":"B","kind":"bool"},{"name":"T","kind":"time"}],"rows":[["x",42,1.5,true,"2003-06-01T10:30:00.123456Z"],["",-0,-0.0,false,"2003-06-01T10:30:00+01:00"]]}`, true},
	{"nulls", `{"columns":[{"name":"S","kind":"string"},{"name":"I","kind":"int"},{"name":"F","kind":"float"},{"name":"B","kind":"bool"},{"name":"T","kind":"time"}],"rows":[[null,null,null,null,null]]}`, true},
	{"escapes", `{"columns":[{"name":"S","kind":"string"}],"rows":[["a\"b\\c\/d\b\f\n\r\tAé😀"],["\ud800"],["\udc00x"]]}`, true},
	{"html", "{\"columns\":[{\"name\":\"S\",\"kind\":\"string\"}],\"rows\":[[\"<>&\"],[\"\\u003c\\u003e\\u0026\\u2028\"],[\"\u2028\u2029\"]]}", true},
	{"non-ascii", "{\"columns\":[{\"name\":\"名前\",\"kind\":\"string\"}],\"rows\":[[\"日本 é \U0001F600\"],[\"bad \xff utf8\"]]}", true},
	{"rows first", `{"rows":[["a",1]],"columns":[{"name":"S","kind":"string"},{"name":"I","kind":"int"}]}`, true},
	{"white space", " {\n\t\"columns\" : [ { \"name\" : \"I\" , \"kind\" : \"int\" } ] ,\r\n \"rows\" : [ [ 1 ] , [ 2 ] ] } \n", true},
	{"unknown keys", `{"v":2,"columns":[{"name":"I","kind":"int","desc":{"a":[1,"]"]}}],"extra":[[]],"rows":[[1]]}`, true},
	{"escaped key", `{"\u0063olumns":[{"n\u0061me":"I","kind":"int"}],"rows":[[1]]}`, true},
	{"no rows key", `{"columns":[{"name":"I","kind":"int"}]}`, true},
	{"empty object", `{}`, true},
	{"no columns", `{"columns":[],"rows":[[],[]]}`, true},
	{"big ints", `{"columns":[{"name":"I","kind":"int"}],"rows":[[9007199254740993],[-9223372036854775808],[9223372036854775807]]}`, true},
	{"float forms", `{"columns":[{"name":"F","kind":"float"}],"rows":[[1],[-0],[1e3],[1E+3],[1.5e-9],[0.000001]]}`, true},

	{"short row", `{"columns":[{"name":"A","kind":"int"},{"name":"B","kind":"int"}],"rows":[[1]]}`, false},
	{"long row", `{"columns":[{"name":"A","kind":"int"}],"rows":[[1,2]]}`, false},
	{"cells without columns", `{"rows":[[1]]}`, false},
	{"nested cell", `{"columns":[{"name":"A","kind":"int"}],"rows":[[[1]]]}`, false},
	{"object cell", `{"columns":[{"name":"A","kind":"string"}],"rows":[[{"a":"b"}]]}`, false},
	{"row not an array", `{"columns":[{"name":"A","kind":"int"}],"rows":[1]}`, false},
	{"rows not an array", `{"columns":[{"name":"A","kind":"int"}],"rows":{"a":1}}`, false},
	{"unknown kind", `{"columns":[{"name":"X","kind":"alien"}],"rows":[]}`, false},
	{"missing kind", `{"columns":[{"name":"X"}],"rows":[]}`, false},
	{"empty name", `{"columns":[{"name":"","kind":"int"}],"rows":[]}`, false},
	{"duplicate column", `{"columns":[{"name":"A","kind":"int"},{"name":"a","kind":"int"}],"rows":[]}`, false},
	{"duplicate key", `{"columns":[],"columns":[{"name":"A","kind":"int"}],"rows":[[1]]}`, false},
	{"folded key", `{"Columns":[{"name":"A","kind":"int"}],"rows":[[1]]}`, false},
	{"string in int", `{"columns":[{"name":"A","kind":"int"}],"rows":[["notanumber"]]}`, false},
	{"fraction in int", `{"columns":[{"name":"A","kind":"int"}],"rows":[[1.0]]}`, false},
	{"int overflow", `{"columns":[{"name":"A","kind":"int"}],"rows":[[9223372036854775808]]}`, false},
	{"float overflow", `{"columns":[{"name":"A","kind":"float"}],"rows":[[1e999]]}`, false},
	{"number in string", `{"columns":[{"name":"A","kind":"string"}],"rows":[[1]]}`, false},
	{"number in bool", `{"columns":[{"name":"A","kind":"bool"}],"rows":[[1]]}`, false},
	{"bad time", `{"columns":[{"name":"A","kind":"time"}],"rows":[["yesterday"]]}`, false},
	{"leading zero", `{"columns":[{"name":"A","kind":"int"}],"rows":[[01]]}`, false},
	{"bare word", `{"columns":[{"name":"A","kind":"float"}],"rows":[[NaN]]}`, false},
	{"truncated literal", `{"columns":[{"name":"A","kind":"bool"}],"rows":[[tru]]}`, false},
	{"bad escape", `{"columns":[{"name":"A","kind":"string"}],"rows":[["\x"]]}`, false},
	{"control character", "{\"columns\":[{\"name\":\"A\",\"kind\":\"string\"}],\"rows\":[[\"a\nb\"]]}", false},
	{"trailing comma", `{"columns":[{"name":"A","kind":"int"}],"rows":[[1],]}`, false},
	{"trailing data", `{"columns":[],"rows":[]} x`, false},
	{"malformed unknown value", `{"x":01,"columns":[],"rows":[]}`, false},
	{"unterminated", `{"columns":[{"name":"A","kind":"string"}],"rows":[["abc`, false},
	{"null", `null`, false},
	{"empty", ``, false},
}

func TestDecodeRejectsBadWire(t *testing.T) {
	for _, c := range wireCases {
		rs, err := decodeResult([]byte(c.body))
		if (err == nil) != c.ok {
			t.Errorf("%s: accepted = %v, want %v (err %v)", c.name, err == nil, c.ok, err)
			continue
		}
		if err != nil {
			continue
		}
		want, err := refDecode([]byte(c.body))
		if err != nil {
			t.Errorf("%s: accepted, but the reference says %v", c.name, err)
		} else if diff := sameResult(rs, want); diff != "" {
			t.Errorf("%s: %s", c.name, diff)
		}
	}
}

// FuzzDecodeResponse: no input panics the response decoder, and whatever it
// accepts the reflective reference decodes to the same envelope and the same
// ResultSet.
func FuzzDecodeResponse(f *testing.F) {
	for _, c := range wireCases {
		f.Add([]byte(`{"site":"s","sql":"q","mode":"cached","elapsedNs":1,"result":` + c.body + `}`))
	}
	for _, c := range envelopeCases {
		f.Add([]byte(c.body))
	}
	golden, err := os.ReadFile("testdata/parent_response.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	// What a column-typed set can get wrong that a row of boxes could not: a
	// column with no value at all, a NULL across the validity bitmap's word
	// edge, and a Time cell whose zone offset the wire must keep.
	sparse := `{"columns":[{"name":"S","kind":"string"},{"name":"N","kind":"int"},{"name":"T","kind":"time"}],"rows":[`
	for r := 0; r < 66; r++ {
		cell := strconv.Itoa(r)
		if r == 0 || r == 64 {
			cell = "null"
		}
		sparse += fmt.Sprintf(`[null,%s,"2003-06-01T10:30:00.5%+03d:30"],`, cell, r%12-6)
	}
	f.Add([]byte(`{"site":"s","sql":"q","mode":"cached","elapsedNs":1,"result":` + strings.TrimSuffix(sparse, ",") + `]}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var wr WireResponse
		if wr.DecodeJSON(body) != nil {
			return
		}
		var ref refResponse
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("accepted what the reference rejects (%v): %s", err, body)
		}
		sameEnvelope(t, wr, ref, body)
		resp, err := DecodeResponse(wr)
		if err != nil {
			return
		}
		var raw struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}
		want, err := refDecode(raw.Result)
		if err != nil {
			t.Fatalf("accepted what the reference rejects (%v): %s", err, raw.Result)
		}
		if diff := sameResult(resp.ResultSet, want); diff != "" {
			t.Fatalf("%s: %s", diff, raw.Result)
		}
		if _, err := json.Marshal(EncodeResponse(resp)); err != nil {
			t.Fatalf("decoded response does not encode: %v", err)
		}
	})
}

// processorResponse is a cached all-fields Processor answer of n rows, the
// shape that dominates gateway-to-gateway traffic.
func processorResponse(n int) *core.Response {
	meta, err := resultset.MetadataForGroup(glue.MustLookup(glue.GroupProcessor), nil)
	if err != nil {
		panic(err)
	}
	b := resultset.NewBuilder(meta)
	for i := 0; i < n; i++ {
		b.Append(fmt.Sprintf("node-%04d.site-a.example.org", i), "Intel(R) Xeon(TM) CPU 2.40GHz", "GenuineIntel",
			int64(2400+i), int64(512), int64(2+i%2), 0.25+float64(i)/7, 0.5+float64(i)/11, 0.75+float64(i)/13, 37.5+float64(i%50))
	}
	rs, err := b.Build()
	if err != nil {
		panic(err)
	}
	return &core.Response{Site: "site-a", SQL: "SELECT * FROM Processor", Mode: core.ModeCached,
		Elapsed: time.Millisecond, ResultSet: rs,
		Sources: []core.SourceStatus{{Source: "gridrm:sim://a:1", Driver: "jdbc-sim", Cached: true, Rows: n}}}
}

// dashboardResponse is the answer cached_dashboard's clients read all day:
// eight single-host sources, so 8 rows and 8 source statuses.
func dashboardResponse() *core.Response {
	resp := processorResponse(8)
	at := time.Date(2026, 10, 1, 12, 0, 0, 123456789, time.UTC)
	resp.Sources = nil
	for i := 0; i < 8; i++ {
		resp.Sources = append(resp.Sources, core.SourceStatus{Source: fmt.Sprintf("gridrm:sim://site-a-h%04d:161", i),
			Driver: "jdbc-sim", Cached: i > 0, HarvestedAt: at.Add(time.Duration(i) * time.Second), Rows: 1})
	}
	return resp
}

// nowhere is a ResponseWriter that keeps nothing, so that what WriteJSON
// allocates is all that is counted.
type nowhere struct {
	header http.Header
	status int
}

func (w *nowhere) Header() http.Header         { return w.header }
func (w *nowhere) WriteHeader(status int)      { w.status = status }
func (w *nowhere) Write(p []byte) (int, error) { return len(p), nil }

// TestWireCodecAllocations keeps the servlet path's cost where it was put.
// Encoding through httpjson.WriteJSON allocates nothing for the body however
// many rows it has: what is left is the value boxed for WriteJSON and
// net/http's two header values. Decoding through httpjson.DecodeBody costs
// the same handful of allocations for 8, 100 and 900 rows: the envelope, the
// set, its column headers, one array for each column that holds values and
// one run of bytes for every string. (While a row was a []any it cost a box
// a non-NULL cell on top: 79, 907 and 8,107 for these answers.)
func TestWireCodecAllocations(t *testing.T) {
	resp := processorResponse(100)
	w := &nowhere{header: http.Header{}}
	encode := testing.AllocsPerRun(20, func() { httpjson.WriteJSON(w, EncodeResponse(resp)) })
	if w.status != 0 {
		t.Fatalf("WriteJSON answered %d", w.status)
	}
	var in bytes.Reader
	decodeAllocs := func(resp *core.Response) float64 {
		body, err := EncodeResponse(resp).AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			var wr WireResponse
			in.Reset(body)
			if err := httpjson.DecodeBody(&in, int64(len(body)), maxResponseBody, &wr); err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeResponse(wr); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, site, region := decodeAllocs(processorResponse(8)), decodeAllocs(resp), decodeAllocs(processorResponse(900))
	dashboard := decodeAllocs(dashboardResponse()) // 8 rows from 8 sources: 8 statuses in the envelope
	t.Logf("encode %.0f allocs; decode %.0f, %.0f, %.0f allocs for 8, 100, 900 rows, %.0f with 8 source statuses", encode, small, site, region, dashboard)
	// The race runtime allocates on its own account, so the exact bounds hold
	// only without it.
	if encode > 4 && !raceEnabled {
		t.Errorf("answering with 100 rows took %.0f allocations, want ≤ 4 (the boxed value, two header values, the length's digits)", encode)
	}
	if (small != site || site != region) && !raceEnabled {
		t.Errorf("decoding 8, 100 and 900 rows took %.0f, %.0f and %.0f allocations, want the same", small, site, region)
	}
	if (region > 25 || dashboard > region+2) && !raceEnabled {
		t.Errorf("decoding took %.0f allocations (%.0f with 8 statuses), want ≤ 25 and no more for statuses than their slice", region, dashboard)
	}
}

// BenchmarkWireCodec times the servlet's response codec on all-fields
// Processor answers of a poll (8 rows), a site (100) and a region (900), and
// on the dashboard's answer (8 rows from 8 sources, so 8 statuses in the
// envelope). "encode" and "decode" are the servlet's and the client's own
// path (append into a reused buffer, decode in place); "marshal" and
// "unmarshal" are the same codec reached through encoding/json, which scans
// and copies the Marshaler's output and validates the input first — the
// difference is what the servlet path no longer pays.
func BenchmarkWireCodec(b *testing.B) {
	type shape struct {
		name string
		resp *core.Response
	}
	shapes := []shape{{"rows=8x8sources", dashboardResponse()}}
	for _, n := range []int{8, 100, 900} {
		shapes = append(shapes, shape{fmt.Sprintf("rows=%d", n), processorResponse(n)})
	}
	for _, s := range shapes {
		resp := s.resp
		body, err := json.Marshal(EncodeResponse(resp))
		if err != nil {
			b.Fatal(err)
		}
		run := func(name string, op func() error) {
			b.Run(name+"/"+s.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body)))
				for i := 0; i < b.N; i++ {
					if err := op(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		var buf []byte
		run("encode", func() (err error) {
			buf, err = EncodeResponse(resp).AppendJSON(buf[:0])
			return err
		})
		run("marshal", func() error {
			_, err := json.Marshal(EncodeResponse(resp))
			return err
		})
		run("decode", func() error {
			var wr WireResponse
			if err := wr.DecodeJSON(body); err != nil {
				return err
			}
			_, err := DecodeResponse(wr)
			return err
		})
		run("unmarshal", func() error {
			var wr WireResponse
			if err := json.Unmarshal(body, &wr); err != nil {
				return err
			}
			_, err := DecodeResponse(wr)
			return err
		})
	}
}
