package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// plainMetric is Metric's fields and tags with no method, so encoding/json
// reaches it by reflection whatever methods Metric grows.
type plainMetric struct {
	Seq     uint64    `json:"seq"`
	Source  string    `json:"source"`
	Group   string    `json:"group"`
	Time    time.Time `json:"time"`
	Columns []string  `json:"columns"`
	Row     []any     `json:"row"`
}

// codecMetrics is the seeded set the byte-identity tests encode: every
// escape encoding/json makes, the number forms it switches between, the
// time forms and the nil slices, then random rows over the same pieces.
func codecMetrics() []Metric {
	sep := string(rune(0x2028)) + string(rune(0x2029))
	oddStrings := []string{
		"", "plain", `quote " and \ backslash`, "tab\tnew\nline\rcr\bbs\ffeed",
		"ctl \x00\x01\x1f\x7f", "<html> & 'amp'", "bad utf8 \xff\xfe end", "sep " + sep + " done",
		"ünïcödé 日本 \U0001F600", "\xed\xa0\x80 surrogate half",
	}
	cols := []string{"HostName", "RAMSize", "Load", "Up", "Boot", "Weird<&>"}
	zone := time.FixedZone("odd", 5*3600+30*60)
	times := []time.Time{
		{}, time.Unix(0, 0).UTC(), time.Date(2003, 6, 1, 10, 30, 0, 123456789, time.UTC),
		time.Date(2003, 6, 1, 10, 30, 0, 500000000, zone), time.Date(9999, 12, 31, 23, 59, 59, 1, time.FixedZone("w", -11*3600)),
		time.Now(), // monotonic reading and the local zone
	}
	values := []any{
		nil, true, false, int64(0), int64(-1), int64(1<<53 + 1), int64(math.MaxInt64), int64(math.MinInt64), 42,
		0.0, math.Copysign(0, -1), 1.5, -2.25, 1e-7, -1e-7, 1e-6, 1e21, -1e21, 1e20, 123456789.123,
		5e-324, math.MaxFloat64, 1.0 / 3,
	}
	for _, s := range oddStrings {
		values = append(values, s)
	}
	for _, t := range times {
		values = append(values, t)
	}

	ms := []Metric{
		{},
		{Seq: 1, Source: "gridrm:mem://a:1", Group: "Memory", Time: times[2], Columns: []string{}, Row: []any{}},
		{Seq: math.MaxUint64, Source: oddStrings[3], Group: oddStrings[7], Time: times[3], Columns: cols, Row: nil},
		{Seq: 7, Time: times[5], Columns: nil, Row: []any{"x", int64(3)}},
		{Seq: 8, Time: times[4], Columns: oddStrings, Row: values},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		m := Metric{
			Seq:    rng.Uint64() >> rng.Intn(64),
			Source: oddStrings[rng.Intn(len(oddStrings))],
			Group:  oddStrings[rng.Intn(len(oddStrings))],
			Time:   times[rng.Intn(len(times))].Add(-time.Duration(rng.Int63n(1e12))),
		}
		if rng.Intn(8) > 0 {
			m.Columns = cols[:rng.Intn(len(cols)+1)]
		}
		if rng.Intn(8) > 0 {
			m.Row = make([]any, rng.Intn(12))
			for j := range m.Row {
				m.Row[j] = values[rng.Intn(len(values))]
				if rng.Intn(4) == 0 {
					m.Row[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
				}
			}
		}
		ms = append(ms, m)
	}
	return ms
}

// TestMetricFrameMatchesEncodingJSON holds the push wire's codec to
// encoding/json: an SSE frame's data and a FileSink line are the bytes
// json.Marshal and json.Encoder write for the metric, and an HTTPSink body
// is json.Marshal of the batch, from the sink's reused buffer too.
func TestMetricFrameMatchesEncodingJSON(t *testing.T) {
	ms := codecMetrics()
	for i, m := range ms {
		want, err := json.Marshal(plainMetric(m))
		if err != nil {
			t.Fatalf("metric %d: json.Marshal: %v", i, err)
		}
		got, err := m.AppendJSON([]byte("prefix"))
		if err != nil {
			t.Fatalf("metric %d: AppendJSON: %v", i, err)
		}
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("metric %d:\n got %s\nwant %s", i, got[len("prefix"):], want)
		}
	}

	// A FileSink line is json.Encoder's: the same text and a newline.
	path := filepath.Join(t.TempDir(), "sink.jsonl")
	fs, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for from := 0; from < len(ms); from += 64 {
		batch := ms[from:min(from+64, len(ms))]
		for _, m := range batch {
			if err := enc.Encode(plainMetric(m)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Deliver(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file sink lines differ from json.Encoder's:\n got %.300s\nwant %.300s", got, want.Bytes())
	}

	// An HTTPSink body is json.Marshal of the batch, batch after batch.
	bodies := make(chan []byte, 8)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		bodies <- body
	}))
	defer srv.Close()
	hs := &HTTPSink{URL: srv.URL}
	for _, batch := range [][]Metric{ms[:40], ms[40:41], ms[41:105]} {
		plain := make([]plainMetric, len(batch))
		for i, m := range batch {
			plain[i] = plainMetric(m)
		}
		want, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		if err := hs.Deliver(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if got := <-bodies; !bytes.Equal(got, want) {
			t.Fatalf("http sink body differs from json.Marshal's:\n got %.300s\nwant %.300s", got, want)
		}
	}
}

// TestMetricSize: every subscriber's queue slot and every row a consumer
// receives is a Metric, so its size is a cost on the push path.
func TestMetricSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sized for 64-bit words")
	}
	if n := unsafe.Sizeof(Metric{}); n != 112 {
		t.Fatalf("Metric is %d bytes, want 112", n)
	}
}

// TestMetricFrameWhereEncodingJSONFails: a time RFC 3339 cannot express is
// the same error encoding/json reports, and a non-finite float cell is
// null, where encoding/json would fail the whole frame.
func TestMetricFrameWhereEncodingJSONFails(t *testing.T) {
	for _, at := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2003, 1, 1, 0, 0, 0, 0, time.FixedZone("far", 25*3600)),
	} {
		_, want := json.Marshal(plainMetric{Time: at})
		_, got := Metric{Time: at}.AppendJSON(nil)
		if want == nil || got == nil || !strings.Contains(want.Error(), got.Error()) {
			t.Errorf("time %v: AppendJSON error %v, json.Marshal error %v", at, got, want)
		}
		if _, got = (Metric{Row: []any{at}}).AppendJSON(nil); got == nil {
			t.Errorf("time cell %v encoded", at)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got, err := Metric{Row: []any{f, 1.5}}.AppendJSON(nil)
		if err != nil || !bytes.HasSuffix(got, []byte(`"row":[null,1.5]}`)) {
			t.Errorf("%v: %s, %v", f, got, err)
		}
	}
}
