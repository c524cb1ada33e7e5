package web

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/router"
)

// TestSubscribeSSERejectsOrderByAndLimit: /subscribe answers a continuous
// query with an ORDER BY or a LIMIT with a 400 that names the clause.
func TestSubscribeSSERejectsOrderByAndLimit(t *testing.T) {
	f := newFixture(t, nil)
	for clause, sql := range map[string]string{
		"ORDER BY": "SELECT * FROM Processor ORDER BY LoadLast1Min DESC",
		"LIMIT":    "SELECT HostName FROM Processor LIMIT 1",
	} {
		sub, err := f.client.SubscribeContext(context.Background(), SubscribeConfig{Query: core.QueryOptions{SQL: sql}})
		if err == nil {
			sub.Close() // the stream would hold the test server open
		}
		if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), clause) {
			t.Errorf("%s: %v, want a 400 naming the clause", sql, err)
		}
	}
}

// TestSSEKindExact subscribes on one gateway in-process and over /subscribe
// alike and requires the same rows from both: Int cells arrive as int64
// and Time cells as time.Time over the wire, not as float64 and string.
// Memory's rows come from a harvest, OperatingSystem's (the group with a
// Time field; the test driver serves no such group) are published straight
// into the gateway's router.
func TestSSEKindExact(t *testing.T) {
	f := newFixture(t, nil)
	ctx := context.Background()
	queries := []string{
		"SELECT * FROM Memory",
		"SELECT ramsize, HostName FROM Memory WHERE RAMSize > 0",
		"SELECT * FROM OperatingSystem",
	}
	type pair struct {
		local *router.Subscription
		wire  *ClientSubscription
	}
	var subs []pair
	for _, sql := range queries {
		local, err := f.gw.Subscribe(ctx, core.QueryOptions{SQL: sql, Principal: f.client.Principal})
		if err != nil {
			t.Fatal(err)
		}
		defer local.Close()
		wire, err := f.client.SubscribeContext(ctx, SubscribeConfig{Query: core.QueryOptions{SQL: sql}})
		if err != nil {
			t.Fatal(err)
		}
		defer wire.Close()
		subs = append(subs, pair{local, wire})
	}
	sseWait(t, "every subscription registered", func() bool {
		return f.gw.PushRouter().Stats().Subscribers == 2*len(queries)
	})

	if _, err := f.client.Query(ctx, core.QueryOptions{SQL: "SELECT * FROM Memory", Mode: core.ModeRealTime}); err != nil {
		t.Fatal(err)
	}
	meta, err := resultset.MetadataForGroup(glue.MustLookup(glue.GroupOperatingSystem), nil)
	if err != nil {
		t.Fatal(err)
	}
	boot := time.Date(2003, 6, 1, 10, 30, 0, 123456789, time.UTC)
	f.gw.PushRouter().Publish(f.url, glue.GroupOperatingSystem, meta.ColumnNames(), [][]any{
		{"a1", "Linux", "2.4.20", nil, int64(1 << 40), boot},
		{"a2", nil, nil, nil, int64(-7), nil},
	}, time.Now())

	for i, s := range subs {
		local := make([]router.Metric, 0, 2)
		for len(local) < 2 {
			select {
			case m := <-s.local.C():
				local = append(local, m)
			case <-time.After(3 * time.Second):
				t.Fatalf("%s: in-process subscriber got %d of 2 rows", queries[i], len(local))
			}
		}
		wire := recvSSE(t, s.wire, 2)
		for r := range local {
			l, w := local[r], wire[r]
			if l.Seq != w.Seq || l.Source != w.Source || l.Group != w.Group || !l.Time.Equal(w.Time) ||
				!reflect.DeepEqual(l.Columns, w.Columns) || !reflect.DeepEqual(l.Row, w.Row) {
				t.Errorf("%s row %d:\nin-process %#v\n  over SSE %#v", queries[i], r, l, w)
			}
		}
		// The point of the exercise, spelled out.
		switch i {
		case 0, 1:
			ram := map[int]int{0: 1, 1: 0}[i] // RAMSize's column
			if cell := wire[0].Row[ram]; cell != int64(1024) {
				t.Errorf("%s: RAMSize arrived as %#v, want int64(1024)", queries[i], cell)
			}
		case 2:
			if cell := wire[0].Row[5]; cell != boot {
				t.Errorf("%s: BootTime arrived as %#v, want %v", queries[i], cell, boot)
			}
		}
	}
}

// sseFrameSeeds are streams of the frames the servlet writes, two a stream
// so that the decoder's repeat path is exercised, and some it never writes.
func sseFrameSeeds() [][]byte {
	boot := time.Date(2003, 6, 1, 10, 30, 0, 5, time.FixedZone("", 3600))
	ms := []router.Metric{
		{Seq: 1, Source: "gridrm:mem://a:1", Group: "Memory", Time: boot,
			Columns: []string{"HostName", "RAMSize", "RAMAvailable", "SwapInRate"}, Row: []any{"a1", int64(1 << 60), nil, 0.5}},
		{Seq: 2, Source: "gridrm:mem://a:1", Group: "Memory", Time: boot,
			Columns: []string{"HostName", "RAMSize", "RAMAvailable", "SwapInRate"}, Row: []any{"a<2>", int64(-1), int64(3), 1e21}},
		{Seq: 3, Source: "s", Group: "OperatingSystem", Time: boot,
			Columns: []string{"hostname", "BootTime", "Uptime"}, Row: []any{"h\xff", boot, int64(9)}},
		{Seq: 4, Source: "s", Group: "NoSuchGroup", Columns: []string{"X"}, Row: []any{int64(7)}},
		{Seq: 5, Group: "Processor", Row: []any{true, false, nil}},
	}
	var seeds [][]byte
	for i := range ms {
		var stream []byte
		for _, m := range []router.Metric{ms[i], ms[(i+1)%len(ms)]} {
			var err error
			if stream, err = appendSSEMetric(stream, m); err != nil {
				panic(err)
			}
		}
		seeds = append(seeds, stream)
	}
	return append(seeds,
		[]byte(": heartbeat\n\nevent: gap\ndata: {\"dropped\":3}\n\nid: 18446744073709551615\nid:  7 \nid: -1\nid: 1e3\n\n"),
		[]byte("event: metric\ndata: {\"seq\":1,\n\ndata: \"row\":[1]}\n\n"),
		[]byte("data: {\"row\":[[1,{\"a\":null}],\"2003-06-01T10:30:00Z\",1e400]}\n\n"),
		[]byte("data: {\"group\":\"OperatingSystem\",\"columns\":[\"BootTime\",\"Uptime\",null],\"row\":[\"2003-06-01T10:30:00,5Z\",1.5,\"x\"]}\n\n"),
		[]byte("data: {\"Seq\":1,\"seq\":2}\n\ndata: {\"seq\":1,\"seq\":2}\n\ndata: null\n\n"),
	)
}

// FuzzSSEFrame feeds a stream through the client's line reader and frame
// decoder. Nothing may panic; every id: line yields what strconv makes of
// it; and every metric frame the decoder accepts, json.Unmarshal accepts
// too and reads alike, but for the cells the kind rule types: an int64 where
// it reads a whole float64, a time.Time where it reads the time's text.
func FuzzSSEFrame(f *testing.F) {
	for _, seed := range sseFrameSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		sc := bufio.NewScanner(bytes.NewReader(stream))
		sc.Buffer(make([]byte, 0, 4096), 1<<20)
		var fr frameReader
		for sc.Scan() {
			line := sc.Bytes()
			event, data, seq := fr.line(line)
			if rest, ok := bytes.CutPrefix(line, []byte("id:")); ok {
				want, err := strconv.ParseUint(strings.TrimSpace(string(rest)), 10, 64)
				if err != nil {
					want = 0
				}
				if seq != want {
					t.Fatalf("id line %q read as %d, want %d", line, seq, want)
				}
			}
			if data == nil || (event != "metric" && event != "") {
				continue
			}
			got, err := fr.metrics.decode(data)
			if err != nil {
				continue
			}
			var want router.Metric
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("decoder accepted what json.Unmarshal rejects (%v): %s", err, data)
			}
			if diff := metricDiff(got, want); diff != "" {
				t.Fatalf("%s: %s", diff, data)
			}
		}
	})
}

// metricDiff compares a decoded metric with encoding/json's reading of the
// same frame under the kind rule.
func metricDiff(got, want router.Metric) string {
	if got.Seq != want.Seq || got.Source != want.Source || got.Group != want.Group ||
		!reflect.DeepEqual(got.Time, want.Time) || !reflect.DeepEqual(got.Columns, want.Columns) {
		return "header differs: got " + strconv.Quote(strings.Join(got.Columns, ",")) + " want " + strconv.Quote(strings.Join(want.Columns, ","))
	}
	if (got.Row == nil) != (want.Row == nil) || len(got.Row) != len(want.Row) {
		return "row length differs"
	}
	for i, g := range got.Row {
		switch g := g.(type) {
		case int64:
			if w, ok := want.Row[i].(float64); !ok || float64(g) != w {
				return "int cell " + strconv.Itoa(i) + " differs"
			}
		case time.Time:
			w, ok := want.Row[i].(string)
			if at, err := time.Parse(time.RFC3339Nano, w); !ok || err != nil || !at.Equal(g) {
				return "time cell " + strconv.Itoa(i) + " differs"
			}
		default:
			if !reflect.DeepEqual(g, want.Row[i]) {
				return "cell " + strconv.Itoa(i) + " differs"
			}
		}
	}
	return ""
}

// TestMetricFrameDecodeAllocations: a frame that repeats the last one's
// source, group, time and columns — every row of a harvest after the first —
// costs its row: the slice, one run of string bytes, and a box a cell that
// is not a small integer.
func TestMetricFrameDecodeAllocations(t *testing.T) {
	meta, err := resultset.MetadataForGroup(glue.MustLookup(glue.GroupProcessor), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := router.Metric{Seq: 9, Source: "gridrm:fleet://s17", Group: glue.GroupProcessor, Time: time.Now(),
		Columns: meta.ColumnNames(),
		Row:     []any{"host-17", "Opteron", "AMD", int64(2400), int64(1024), int64(2), 0.5, 0.25, 0.125, 12.5}}
	data, err := m.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var md metricDecoder
	if _, err := md.decode(data); err != nil {
		t.Fatal(err)
	}
	// 1 row slice + 1 string run + 3 strings + 2 ints past 255 + 4 floats.
	const budget = 11
	if n := testing.AllocsPerRun(100, func() {
		if _, err := md.decode(data); err != nil {
			t.Fatal(err)
		}
	}); n > budget {
		t.Fatalf("a repeated frame costs %.0f allocations, budget %d", n, budget)
	}
}

// BenchmarkMetricFrame prints what one Processor row costs on the push wire:
// the servlet's frame encode and the client's decode of a repeated frame,
// beside encoding/json's Marshal and Unmarshal of the same metric.
func BenchmarkMetricFrame(b *testing.B) {
	meta, err := resultset.MetadataForGroup(glue.MustLookup(glue.GroupProcessor), nil)
	if err != nil {
		b.Fatal(err)
	}
	m := router.Metric{Seq: 9, Source: "gridrm:fleet://s17", Group: glue.GroupProcessor, Time: time.Now(),
		Columns: meta.ColumnNames(),
		Row:     []any{"host-17", "Opteron", "AMD", int64(2400), int64(1024), int64(2), 0.5, 0.25, 0.125, 12.5}}
	data, err := m.AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var frame []byte
		for i := 0; i < b.N; i++ {
			frame, _ = appendSSEMetric(frame[:0], m)
		}
	})
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = json.Marshal(m)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		var md metricDecoder
		for i := 0; i < b.N; i++ {
			_, _ = md.decode(data)
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var back router.Metric
			_ = json.Unmarshal(data, &back)
		}
	})
}
