package web

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/trace"
)

// The reflective reference for the envelope: the two wire structs as they
// were before they encoded themselves, run through encoding/json. The
// conversions below (refRequest(wr), refResponse(wr)) compile only while the
// mirrors have exactly the fields of the real types, so a field added to
// either must be added here, where fill gives it a value and the hand-written
// codec must then carry it. core.SourceStatus is its own mirror: it has no
// methods, so encoding/json reflects over it.

type refRequest struct {
	SQL       string   `json:"sql"`
	Site      string   `json:"site,omitempty"`
	Sources   []string `json:"sources,omitempty"`
	Region    []string `json:"region,omitempty"`
	Mode      string   `json:"mode,omitempty"`
	Since     string   `json:"since,omitempty"`
	Until     string   `json:"until,omitempty"`
	TimeoutNs int64    `json:"timeoutNs,omitempty"`
	Trace     string   `json:"trace,omitempty"`
}

type refResponse struct {
	Site      string              `json:"site"`
	SQL       string              `json:"sql"`
	Mode      string              `json:"mode"`
	ElapsedNs int64               `json:"elapsedNs"`
	Sources   []core.SourceStatus `json:"sources,omitempty"`
	Result    WireResult          `json:"result"`
	TraceID   string              `json:"traceId,omitempty"`
	Trace     []trace.SpanData    `json:"trace,omitempty"`
}

var wirePieces = []string{"node", "-", "07", " ", `"`, `\`, "/", "<", ">", "&", "\t", "\n", "\x00", "\x7f",
	"é", "日本", "\U0001F600", "\u2028", "\xff", "\\u0041", "gridrm:sim://h:161", "jdbc-sim", "timed out", ""}

// fill gives every field under v a random value: all of a struct's fields,
// whatever they are called. A kind it has no rule for panics, so a new field
// cannot reach the wire without this test having exercised it.
func fill(rng *rand.Rand, v reflect.Value) {
	switch v.Interface().(type) {
	case time.Time:
		var t time.Time // one in four stays the zero time
		switch rng.Intn(4) {
		case 1:
			t = time.Unix(rng.Int63n(4e9)-1e9, rng.Int63n(1e9)).UTC()
		case 2:
			t = time.Unix(rng.Int63n(4e9), 0).In(time.FixedZone("", (rng.Intn(27)-12)*1800))
		case 3:
			t = time.Date(rng.Intn(10000), 1, 1, 0, 0, 0, rng.Intn(2)*1000, time.UTC)
		}
		v.Set(reflect.ValueOf(t))
		return
	}
	switch v.Kind() {
	case reflect.String:
		var sb strings.Builder
		for k := rng.Intn(4); k > 0; k-- {
			sb.WriteString(wirePieces[rng.Intn(len(wirePieces))])
		}
		v.SetString(sb.String())
	case reflect.Int, reflect.Int64:
		if v.SetInt(rng.Int63() - rng.Int63()); rng.Intn(3) == 0 {
			v.SetInt(int64(rng.Intn(3)))
		}
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Slice:
		// Never empty but non-nil: omitempty drops that, and it comes back nil.
		if n := rng.Intn(4); n > 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fill(rng, v.Index(i))
			}
		}
	case reflect.Map:
		if n := rng.Intn(3); n > 0 {
			v.Set(reflect.MakeMap(v.Type()))
			for i := 0; i < n; i++ {
				key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				fill(rng, key)
				fill(rng, val)
				v.SetMapIndex(key, val)
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(rng, v.Field(i))
		}
	default:
		panic(fmt.Sprintf("fill: no rule for a %s", v.Type()))
	}
}

func genRequest(rng *rand.Rand) WireRequest {
	var wr WireRequest
	fill(rng, reflect.ValueOf(&wr).Elem())
	return wr
}

func genEnvelope(rng *rand.Rand) WireResponse {
	var ref refResponse
	v := reflect.ValueOf(&ref).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Type().Field(i).Name != "Result" {
			fill(rng, v.Field(i))
		}
	}
	for i := range ref.Sources {
		if i > 0 && rng.Intn(2) == 0 {
			ref.Sources[i].Driver = ref.Sources[i-1].Driver // the repeat the decoder shares
		}
	}
	ref.Result = WireResult{ResultSet: genResult(rng)}
	return WireResponse(ref)
}

// sameEnvelope compares what two decoders made of one response.
func sameEnvelope(t *testing.T, hand WireResponse, ref refResponse, body []byte) {
	t.Helper()
	if (hand.Result.ResultSet == nil) != (ref.Result.ResultSet == nil) {
		t.Fatalf("one decoder found a result and the other did not\n%s", body)
	}
	if hand.Result.ResultSet != nil {
		if diff := sameResult(hand.Result.ResultSet, ref.Result.ResultSet); diff != "" {
			t.Fatalf("results differ: %s\n%s", diff, body)
		}
	}
	hand.Result, ref.Result = WireResult{}, WireResult{}
	if !reflect.DeepEqual(refResponse(hand), ref) {
		t.Fatalf("envelopes differ\nhand %+v\n ref %+v\n%s", hand, ref, body)
	}
}

// TestEnvelopeDifferential: over generated requests and responses the
// hand-written encoder writes byte for byte what encoding/json writes for
// the mirror struct — directly and through json.Marshal — and the
// hand-written decoder reads those bytes to the value encoding/json reads.
func TestEnvelopeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20030901))
	for i := 0; i < 2000; i++ {
		req := genRequest(rng)
		want, err := json.Marshal(refRequest(req))
		if err != nil {
			t.Fatal(err)
		}
		got, err := req.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		through, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || !bytes.Equal(through, want) {
			t.Fatalf("request encodings differ\n new %s\n via %s\n ref %s", got, through, want)
		}
		var hand WireRequest
		var ref refRequest
		if err := hand.DecodeJSON(want); err != nil {
			t.Fatalf("request decode: %v\n%s", err, want)
		}
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(refRequest(hand), ref) {
			t.Fatalf("request decoders differ\nhand %+v\n ref %+v\n%s", hand, ref, want)
		}

		resp := genEnvelope(rng)
		want, err = json.Marshal(refResponse(resp))
		if err != nil {
			t.Fatal(err)
		}
		got, err = resp.AppendJSON([]byte("kept"))
		if err != nil {
			t.Fatal(err)
		}
		through, err = json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append([]byte("kept"), want...)) || !bytes.Equal(through, want) {
			t.Fatalf("response encodings differ\n new %s\n via %s\n ref %s", got, through, want)
		}
		var handResp WireResponse
		var refResp refResponse
		if err := handResp.DecodeJSON(want); err != nil {
			t.Fatalf("response decode: %v\n%s", err, want)
		}
		if err := json.Unmarshal(want, &refResp); err != nil {
			t.Fatal(err)
		}
		sameEnvelope(t, handResp, refResp, want)
	}
}

// envelopeCases are envelopes the decoders must take a position on; they
// also seed the fuzz targets. ok says whether the hand-written one accepts.
var envelopeCases = []struct {
	name, body string
	ok         bool
}{
	{"minimal", `{"site":"s","sql":"q","mode":"cached","elapsedNs":1,"result":{}}`, true},
	{"no result", `{"site":"s","sql":"q","mode":"cached","elapsedNs":1}`, true},
	{"empty", `{}`, true},
	{"empty sources", `{"sources":[],"result":{}}`, true},
	{"null members", `{"site":null,"sql":null,"mode":null,"elapsedNs":null,"sources":null,"traceId":null,"trace":null,"result":{}}`, true},
	{"null status fields", `{"sources":[{"Source":null,"Driver":null,"Cached":null,"HarvestedAt":null,"Rows":null,"Err":null,"Degraded":null,"Age":null}]}`, true},
	{"empty status", `{"sources":[{},{"Rows":3}]}`, true},
	{"any order, white space", " {\n\"traceId\" : \"t\" , \"result\" : { } , \"sources\" : [ { \"Age\" : 5 , \"Source\" : \"a\" } ] , \"site\" : \"s\" } ", true},
	{"unknown keys", `{"v":2,"site":"s","sources":[{"Source":"a","Note":{"Source":"x","list":["y"]},"Extra":"z"}],"more":[1,{"a":"b"}]}`, true},
	{"escapes", `{"site":"a\"b\\c\u00e9\ud800","sql":"\u003c","sources":[{"Source":"s\n","Driver":"d\t","Err":"bad \u0000"}]}`, true},
	{"escaped key", `{"s\u0069te":"s","sources":[{"S\u006furce":"a"}]}`, true},
	{"shared driver", `{"sources":[{"Driver":"d"},{"Driver":"d"},{"Driver":"e"},{"Driver":"d"},{}]}`, true},
	{"offset times", `{"sources":[{"HarvestedAt":"2003-09-01T08:29:00.5+01:00"},{"HarvestedAt":"0001-01-01T00:00:00Z"}]}`, true},
	{"trace", `{"trace":[{"traceId":"t","spanId":"a.1","name":"query","start":"2003-09-01T08:29:00Z","durationNs":5,"attrs":{"k":"v"}}]}`, true},
	{"negative numbers", `{"elapsedNs":-5,"sources":[{"Rows":-1,"Age":-0}]}`, true},

	{"null result", `{"result":null}`, false},
	{"duplicate key", `{"site":"a","site":"b"}`, false},
	{"folded key", `{"Site":"a"}`, false},
	{"folded status key", `{"sources":[{"source":"a"}]}`, false},
	{"duplicate status key", `{"sources":[{"Rows":1,"Rows":2}]}`, false},
	{"number for string", `{"site":5}`, false},
	{"string for number", `{"elapsedNs":"5"}`, false},
	{"fraction", `{"elapsedNs":5.0}`, false},
	{"exponent", `{"sources":[{"Age":1e3}]}`, false},
	{"overflow", `{"elapsedNs":9223372036854775808}`, false},
	{"sources not an array", `{"sources":{"Source":"a"}}`, false},
	{"status not an object", `{"sources":["a"]}`, false},
	{"string for bool", `{"sources":[{"Cached":"true"}]}`, false},
	{"bad time", `{"sources":[{"HarvestedAt":"yesterday"}]}`, false},
	{"escaped time", `{"sources":[{"HarvestedAt":"2003-09-01T08:29:00\u005a"}]}`, false},
	{"number for time", `{"sources":[{"HarvestedAt":5}]}`, false},
	{"bad trace", `{"trace":[{"start":5}]}`, false},
	{"trailing comma", `{"sources":[{"Rows":1},]}`, false},
	{"trailing data", `{"site":"s"} x`, false},
	{"malformed unknown value", `{"x":01}`, false},
	{"junk after a number", `{"elapsedNs":5x}`, false},
	{"unterminated", `{"site":"s`, false},
	{"array", `[]`, false},
	{"null", `null`, false},
	{"nothing", ``, false},
}

var requestCases = []struct {
	name, body string
	ok         bool
}{
	{"minimal", `{"sql":"SELECT * FROM Processor"}`, true},
	{"everything", `{"sql":"q","site":"*","sources":["a","b"],"region":["r"],"mode":"real-time","since":"2003-09-01T08:29:00Z","until":"2003-09-01T09:29:00Z","timeoutNs":5000,"trace":"on"}`, true},
	{"empty", `{}`, true},
	{"empty lists", `{"sql":"q","sources":[],"region":[ ]}`, true},
	{"nulls", `{"sql":null,"site":null,"sources":null,"region":[null,"a"],"mode":null,"timeoutNs":null,"trace":null}`, true},
	{"escapes and commas", `{"sql":"a\"b,c","sources":["x,y","\u00e9",""]}`, true},
	{"unknown keys", `{"sql":"q","limit":5,"hints":{"sql":"x"}}`, true},
	{"white space", " { \"sql\" : \"q\" , \"sources\" : [ \"a\" , \"b\" ] } ", true},

	{"duplicate key", `{"sql":"a","sql":"b"}`, false},
	{"folded key", `{"SQL":"a"}`, false},
	{"number for string", `{"sql":5}`, false},
	{"string for list", `{"sources":"a"}`, false},
	{"number in list", `{"sources":["a",5]}`, false},
	{"list in list", `{"sources":[["a"]]}`, false},
	{"fraction", `{"timeoutNs":1.5}`, false},
	{"string for number", `{"timeoutNs":"5"}`, false},
	{"trailing comma", `{"sources":["a",]}`, false},
	{"trailing data", `{"sql":"q"}{}`, false},
	{"array", `["sql"]`, false},
	{"nothing", ``, false},
}

// TestEnvelopeDecodeCases: every case gets the stated verdict, and whatever
// the hand-written decoders accept the reflective ones read the same way.
func TestEnvelopeDecodeCases(t *testing.T) {
	for _, c := range envelopeCases {
		var hand WireResponse
		err := hand.DecodeJSON([]byte(c.body))
		if (err == nil) != c.ok {
			t.Errorf("response %q: accepted = %v, want %v (err %v)", c.name, err == nil, c.ok, err)
		} else if err == nil {
			var ref refResponse
			if err := json.Unmarshal([]byte(c.body), &ref); err != nil {
				t.Errorf("response %q: accepted, but the reference says %v", c.name, err)
				continue
			}
			sameEnvelope(t, hand, ref, []byte(c.body))
		}
	}
	for _, c := range requestCases {
		var hand WireRequest
		err := hand.DecodeJSON([]byte(c.body))
		if (err == nil) != c.ok {
			t.Errorf("request %q: accepted = %v, want %v (err %v)", c.name, err == nil, c.ok, err)
		} else if err == nil {
			var ref refRequest
			if err := json.Unmarshal([]byte(c.body), &ref); err != nil {
				t.Errorf("request %q: accepted, but the reference says %v", c.name, err)
			} else if !reflect.DeepEqual(refRequest(hand), ref) {
				t.Errorf("request %q:\nhand %+v\n ref %+v", c.name, hand, ref)
			}
		}
	}
}

// TestEnvelopeRefusesWhatTimeCannotSay: a HarvestedAt that RFC 3339 cannot
// express fails the encode, as time.Time.MarshalJSON fails it.
func TestEnvelopeRefusesWhatTimeCannotSay(t *testing.T) {
	rs := processorResponse(1).ResultSet
	for _, at := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2003, 9, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2003, 9, 1, 0, 0, 0, 0, time.FixedZone("", -100*3600)),
	} {
		wr := WireResponse{Result: WireResult{ResultSet: rs}, Sources: []core.SourceStatus{{HarvestedAt: at}}}
		_, refErr := json.Marshal(refResponse(wr))
		if _, err := wr.AppendJSON(nil); err == nil || refErr == nil {
			t.Errorf("%v: encode error %v, reference error %v; want both to refuse", at, err, refErr)
		}
	}
}

// FuzzDecodeRequest: no input panics the request decoder, whatever it
// accepts the reflective decode reads to the same request, and that request
// encodes to something both read back unchanged.
func FuzzDecodeRequest(f *testing.F) {
	for _, c := range requestCases {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var hand WireRequest
		if hand.DecodeJSON(body) != nil {
			return
		}
		var ref refRequest
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("accepted what the reference rejects (%v): %s", err, body)
		}
		if !reflect.DeepEqual(refRequest(hand), ref) {
			t.Fatalf("hand %+v\n ref %+v\n%s", hand, ref, body)
		}
		_, _ = hand.ToCoreRequest() // any verdict, no panic
		again, err := hand.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(ref); !bytes.Equal(again, want) {
			t.Fatalf("re-encoded %s, reference %s", again, want)
		}
	})
}

// scribble overwrites a buffer a decoder has finished with, the way the
// pool's next user would.
func scribble(buf []byte) {
	for i := range buf {
		buf[i] = "\"x{[,:0]}\\"[i%10]
	}
}

// snapshot renders everything a decoded response holds, so that two
// snapshots differ if any string, cell or column changed underneath it.
func snapshot(resp *core.Response) string {
	meta := resp.ResultSet.Metadata()
	return fmt.Sprintf("%q %q %v %v %q %+v\n%+v\n%s", resp.Site, resp.SQL, resp.Mode, resp.Elapsed, resp.TraceID,
		resp.Sources, meta.Columns(), resp.ResultSet)
}

// TestDecodedResponseOwnsItsMemory: the body buffer is the pool's once
// decode returns, so nothing in the response may point into it.
func TestDecodedResponseOwnsItsMemory(t *testing.T) {
	bodies := [][]byte{}
	golden, err := json.Marshal(EncodeResponse(dashboardResponse()))
	if err != nil {
		t.Fatal(err)
	}
	bodies = append(bodies, golden)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		wr := genEnvelope(rng)
		wr.Mode = []string{"cached", "real-time", "historical"}[i%3]
		body, err := wr.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	for _, body := range bodies {
		original := append([]byte(nil), body...)
		var wr WireResponse
		if err := wr.DecodeJSON(body); err != nil {
			t.Fatal(err)
		}
		resp, err := DecodeResponse(wr)
		if err != nil {
			t.Fatal(err)
		}
		before := snapshot(resp)
		scribble(body)
		if after := snapshot(resp); after != before {
			t.Fatalf("response changed when its body buffer was overwritten\nbefore %s\nafter  %s\nbody %s", before, after, original)
		}
		var req WireRequest
		reqBody, _ := genRequest(rng).AppendJSON(nil)
		if err := req.DecodeJSON(reqBody); err != nil {
			t.Fatal(err)
		}
		was := fmt.Sprintf("%q", req)
		scribble(reqBody)
		if now := fmt.Sprintf("%q", req); now != was {
			t.Fatalf("request changed when its body buffer was overwritten\nbefore %s\nafter  %s", was, now)
		}
	}
}

// tagged answers every query with a response made from its SQL alone, so a
// client can tell its own answer from anybody else's.
type tagged struct{}

func taggedResponse(tag string) *core.Response {
	meta, _ := resultset.MetadataForGroup(glue.MustLookup(glue.GroupProcessor), nil)
	b := resultset.NewBuilder(meta)
	resp := &core.Response{Site: "site-" + tag, SQL: tag, Mode: core.ModeCached, TraceID: "trace-" + tag}
	for i := 0; i < 8; i++ {
		b.Append(fmt.Sprintf("host-%s-%d", tag, i), "model "+tag, "vendor "+tag, int64(1000+i), int64(512), int64(2), 0.25, 0.5, 0.75, float64(len(tag)))
		resp.Sources = append(resp.Sources, core.SourceStatus{Source: fmt.Sprintf("gridrm:sim://%s:%d", tag, i),
			Driver: "jdbc-" + tag, Cached: true, HarvestedAt: time.Unix(int64(1e9+i), 0).UTC(), Rows: 1, Err: "err " + tag})
	}
	resp.ResultSet, _ = b.Build()
	return resp
}

func (tagged) QueryContext(_ context.Context, opts core.QueryOptions) (*core.Response, error) {
	if len(opts.Sources) != 2 || opts.Sources[0] != "first-"+opts.SQL || opts.Sources[1] != "second-"+opts.SQL {
		return nil, fmt.Errorf("request for %q arrived with sources %q", opts.SQL, opts.Sources)
	}
	return taggedResponse(opts.SQL), nil
}

// TestPooledBodiesUnderConcurrentClients: eight clients share the servlet's
// and the client's body pools; each holds every answer it was given until
// the end and then checks that all of them still say what was asked.
func TestPooledBodiesUnderConcurrentClients(t *testing.T) {
	srv := httptest.NewServer(NewFront(nil, QueryRoute(tagged{})))
	defer srv.Close()
	const clients, queries = 8, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &Client{BaseURL: srv.URL}
			held := make(map[string]*core.Response)
			for q := 0; q < queries; q++ {
				// Tags of different lengths, so bodies land at different
				// offsets of whatever buffer they reuse.
				tag := fmt.Sprintf("c%d-q%d-%s", c, q, strings.Repeat("x", (c*7+q)%23))
				resp, err := client.Query(context.Background(), core.QueryOptions{SQL: tag, Sources: []string{"first-" + tag, "second-" + tag}})
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				held[tag] = resp
			}
			for tag, resp := range held {
				want := taggedResponse(tag)
				want.Elapsed = resp.Elapsed
				if got, want := snapshot(resp), snapshot(want); got != want {
					t.Errorf("client %d holds a changed answer for %s\n got %s\nwant %s", c, tag, got, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestDecodedColumnsAreTheSchemas: an all-fields answer about a GLUE group
// comes back with that group's shared Metadata, not a rebuilt copy; anything
// else is kept as it was sent.
func TestDecodedColumnsAreTheSchemas(t *testing.T) {
	processor := glue.MustLookup(glue.GroupProcessor)
	shared, _ := resultset.MetadataForGroup(processor, nil)
	decode := func(cols string) *resultset.Metadata {
		t.Helper()
		var wr WireResponse
		if err := wr.DecodeJSON([]byte(`{"result":{"columns":[` + cols + `],"rows":[]}}`)); err != nil {
			t.Fatalf("%v\n%s", err, cols)
		}
		return wr.Result.ResultSet.Metadata()
	}
	column := func(f glue.Field, group string) string {
		b, _ := json.Marshal(refColumn{Name: f.Name, Kind: f.Kind.String(), Unit: f.Unit, Group: group})
		return string(b)
	}
	var all []string
	for _, f := range processor.Fields {
		all = append(all, column(f, processor.Name))
	}

	body, _ := json.Marshal(EncodeResponse(processorResponse(3)))
	var wr WireResponse
	if err := wr.DecodeJSON(body); err != nil {
		t.Fatal(err)
	}
	if wr.Result.ResultSet.Metadata() != shared || wr.Result.ResultSet.Len() != 3 {
		t.Error("an encoded all-fields Processor answer did not decode to the shared Metadata")
	}
	if decode(strings.Join(all, ",")) != shared {
		t.Error("all Processor fields in order: want the shared Metadata")
	}
	if m := decode(strings.Join(all[:3], ",")); m == shared || m.ColumnCount() != 3 {
		t.Error("a projection must get its own Metadata")
	}
	if m := decode(strings.Join(append([]string{all[1], all[0]}, all[2:]...), ",")); m == shared {
		t.Error("a reordered column list must get its own Metadata")
	}
	if m := decode(strings.ReplaceAll(strings.Join(all, ","), `"Processor"`, `"Quantum"`)); m == shared || m.Column(0).Group != "Quantum" {
		t.Errorf("an unknown group must be kept as sent, got %+v", m.Column(0))
	}
	if m := decode(strings.ReplaceAll(strings.Join(all, ","), `"Processor"`, `"processor"`)); m == shared || m.Column(0).Group != "processor" {
		t.Errorf("a group in another spelling must be kept as sent, got %+v", m.Column(0))
	}

	// A column that names a GLUE field but disagrees with it is the sender's
	// column, not the schema's.
	clock, _ := processor.Field("ClockSpeed")
	for name, other := range map[string]glue.Field{
		"kind": {Name: clock.Name, Kind: glue.Float, Unit: clock.Unit},
		"unit": {Name: clock.Name, Kind: clock.Kind, Unit: "GHz"},
	} {
		cols := append([]string(nil), all...)
		cols[processor.FieldIndex(clock.Name)] = column(other, processor.Name)
		m := decode(strings.Join(cols, ","))
		got := m.Column(processor.FieldIndex(clock.Name))
		if m == shared || got.Kind != other.Kind || got.Unit != other.Unit {
			t.Errorf("a column with another %s: got %+v, want it kept as sent", name, got)
		}
	}
}
