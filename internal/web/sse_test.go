package web

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/router"
)

// sseWait polls cond for up to 5s.
func sseWait(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// recvSSE drains n metrics from the client subscription.
func recvSSE(t *testing.T, sub *ClientSubscription, n int) []router.Metric {
	t.Helper()
	out := make([]router.Metric, 0, n)
	for len(out) < n {
		select {
		case m := <-sub.C():
			out = append(out, m)
		case <-sub.Done():
			t.Fatalf("stream ended after %d/%d rows: %v", len(out), n, sub.Err())
		case <-time.After(3 * time.Second):
			t.Fatalf("received %d/%d rows before timeout", len(out), n)
		}
	}
	return out
}

func TestSubscribeOverSSE(t *testing.T) {
	f := newFixture(t, nil)
	sub, err := f.client.SubscribeContext(context.Background(), SubscribeConfig{
		Query: core.QueryOptions{SQL: "SELECT HostName, LoadLast1Min FROM Processor"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	if _, err := f.client.Query(context.Background(), core.QueryOptions{
		SQL: "SELECT * FROM Processor", Mode: core.ModeRealTime}); err != nil {
		t.Fatal(err)
	}
	rows := recvSSE(t, sub, 2)
	hosts := map[string]bool{}
	for _, m := range rows {
		if m.Seq == 0 {
			t.Fatal("metric arrived without a sequence number")
		}
		if len(m.Columns) != 2 || m.Columns[0] != "HostName" {
			t.Fatalf("projection lost on the wire: %v", m.Columns)
		}
		host, _ := m.Row[0].(string)
		hosts[host] = true
	}
	if !hosts["a1"] || !hosts["a2"] {
		t.Fatalf("hosts = %v, want a1 and a2", hosts)
	}
	if sub.LastSeq() == 0 {
		t.Fatal("LastSeq not tracked from id: lines")
	}
}

func TestSubscribeSSEResumeFromSeq(t *testing.T) {
	f := newFixture(t, nil)
	// Hold a server-side subscription open so the push router stays
	// non-idle while the SSE client is disconnected (the harvest path
	// skips publishing entirely when nobody subscribes).
	keeper, err := f.gw.Subscribe(context.Background(), core.QueryOptions{
		SQL: "SELECT * FROM Processor", Principal: f.client.Principal})
	if err != nil {
		t.Fatal(err)
	}
	defer keeper.Close()

	sub, err := f.client.SubscribeContext(context.Background(), SubscribeConfig{
		Query: core.QueryOptions{SQL: "SELECT * FROM Processor"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.client.Query(context.Background(), core.QueryOptions{
		SQL: "SELECT * FROM Processor", Mode: core.ModeRealTime}); err != nil {
		t.Fatal(err)
	}
	recvSSE(t, sub, 2)
	last := sub.LastSeq()
	sub.Close()

	// Rows produced while disconnected land in the replay ring.
	if _, err := f.client.Query(context.Background(), core.QueryOptions{
		SQL: "SELECT * FROM Processor", Mode: core.ModeRealTime}); err != nil {
		t.Fatal(err)
	}
	resumed, err := f.client.SubscribeContext(context.Background(), SubscribeConfig{
		Query: core.QueryOptions{SQL: "SELECT * FROM Processor", FromSeq: last},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	rows := recvSSE(t, resumed, 2)
	for _, m := range rows {
		if m.Seq <= last {
			t.Fatalf("replayed seq %d not after resume point %d", m.Seq, last)
		}
	}
	if resumed.Gaps() != 0 {
		t.Fatalf("clean resume reported %d gaps", resumed.Gaps())
	}
}

// TestSubscribeSSELastEventIDHeader exercises the standard EventSource
// reconnect path: the resume point travels in the Last-Event-ID header
// rather than ?from=.
func TestSubscribeSSELastEventIDHeader(t *testing.T) {
	f := newFixture(t, nil)
	keeper, err := f.gw.Subscribe(context.Background(), core.QueryOptions{
		SQL: "SELECT * FROM Processor", Principal: f.client.Principal})
	if err != nil {
		t.Fatal(err)
	}
	defer keeper.Close()
	if _, err := f.client.Query(context.Background(), core.QueryOptions{
		SQL: "SELECT * FROM Processor", Mode: core.ModeRealTime}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		f.srv.URL+"/subscribe?sql="+strings.ReplaceAll("SELECT * FROM Processor", " ", "%20"), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderUser, "admin")
	// The harvest above produced seqs 1 and 2; a client that saw event 1
	// reconnects with Last-Event-ID: 1 and must get 2 replayed without a
	// fresh harvest.
	req.Header.Set("Last-Event-ID", "1")
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var ids, datas int
	for datas < 1 && sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "id: 2") {
			ids++
		}
		if strings.HasPrefix(line, "data:") {
			datas++
		}
	}
	if ids != 1 || datas != 1 {
		t.Fatalf("replayed frames: ids=%d datas=%d, want 1 each", ids, datas)
	}
}

func TestSubscribeSSERejectsBadQueries(t *testing.T) {
	f := newFixture(t, nil)
	for _, sql := range []string{"", "SELECT count(*) FROM Processor", "SELEKT"} {
		if _, err := f.client.SubscribeContext(context.Background(), SubscribeConfig{
			Query: core.QueryOptions{SQL: sql},
		}); err == nil {
			t.Errorf("SQL %q accepted for subscription", sql)
		}
	}
}

// TestSSEHonorsClientDisconnect proves the server handler exits and
// unregisters the subscription promptly once the client goes away.
func TestSSEHonorsClientDisconnect(t *testing.T) {
	f := newFixture(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	sub, err := f.client.SubscribeContext(ctx, SubscribeConfig{
		Query: core.QueryOptions{SQL: "SELECT * FROM Processor"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sseWait(t, "subscriber registration", func() bool {
		return f.gw.PushRouter().Stats().Subscribers == 1
	})
	cancel()
	<-sub.Done()
	sseWait(t, "server-side unregistration after disconnect", func() bool {
		return f.gw.PushRouter().Stats().Subscribers == 0
	})
}

// TestSSEIdleTimeout: a stream with no rows and heartbeats slower than the
// watchdog is torn down with a descriptive error.
func TestSSEIdleTimeout(t *testing.T) {
	f := newFixture(t, nil)
	sub, err := f.client.SubscribeContext(context.Background(), SubscribeConfig{
		Query:       core.QueryOptions{SQL: "SELECT * FROM Processor"},
		IdleTimeout: 200 * time.Millisecond,
		Heartbeat:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.Done():
	case <-time.After(3 * time.Second):
		t.Fatal("idle watchdog never fired")
	}
	if err := sub.Err(); err == nil || !strings.Contains(err.Error(), "idle") {
		t.Fatalf("err = %v, want idle-timeout error", err)
	}
}

// TestSSEHeartbeatKeepsStreamAlive: heartbeats faster than the watchdog
// keep a rowless stream open.
func TestSSEHeartbeatKeepsStreamAlive(t *testing.T) {
	f := newFixture(t, nil)
	sub, err := f.client.SubscribeContext(context.Background(), SubscribeConfig{
		Query:       core.QueryOptions{SQL: "SELECT * FROM Processor"},
		IdleTimeout: 600 * time.Millisecond,
		Heartbeat:   150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	select {
	case <-sub.Done():
		t.Fatalf("stream died despite heartbeats: %v", sub.Err())
	case <-time.After(1500 * time.Millisecond):
	}
}

// TestSSENoGoroutineLeak: repeated subscribe/stream/close cycles leave no
// goroutines behind on either side (both ends run in this process).
func TestSSENoGoroutineLeak(t *testing.T) {
	f := newFixture(t, nil)
	cycle := func() {
		sub, err := f.client.SubscribeContext(context.Background(), SubscribeConfig{
			Query: core.QueryOptions{SQL: "SELECT * FROM Processor"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.client.Query(context.Background(), core.QueryOptions{
			SQL: "SELECT * FROM Processor", Mode: core.ModeRealTime}); err != nil {
			t.Fatal(err)
		}
		recvSSE(t, sub, 2)
		sub.Close()
	}
	cycle() // warm up connection pools and lazy singletons
	sseWait(t, "warm-up teardown", func() bool {
		return f.gw.PushRouter().Stats().Subscribers == 0
	})
	time.Sleep(50 * time.Millisecond)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		cycle()
	}
	sseWait(t, "all subscriptions gone", func() bool {
		return f.gw.PushRouter().Stats().Subscribers == 0
	})
	sseWait(t, "goroutine count back to baseline", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+3
	})
}

func TestStatusReportsPushCounters(t *testing.T) {
	f := newFixture(t, nil)
	sub, err := f.client.SubscribeContext(context.Background(), SubscribeConfig{
		Query: core.QueryOptions{SQL: "SELECT * FROM Processor"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := f.client.Query(context.Background(), core.QueryOptions{
		SQL: "SELECT * FROM Processor", Mode: core.ModeRealTime}); err != nil {
		t.Fatal(err)
	}
	recvSSE(t, sub, 2)
	st, err := f.client.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Push.Published != 2 || st.Push.Subscribers != 1 {
		t.Fatalf("push stats over HTTP: %+v", st.Push)
	}
	if len(st.Subscribers) != 1 || st.Subscribers[0].Enqueued != 2 {
		t.Fatalf("subscriber stats over HTTP: %+v", st.Subscribers)
	}
}

// rawSSE answers every request with an event stream of the bytes write puts
// on it, then holds the stream open until the client goes. It returns a
// client of its own transport, whose connections close with the test.
func rawSSE(t *testing.T, write func(w io.Writer)) *Client {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		write(w)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	tr := &http.Transport{}
	t.Cleanup(func() {
		tr.CloseIdleConnections()
		srv.Close()
	})
	return &Client{BaseURL: srv.URL, HTTPClient: &http.Client{Transport: tr}}
}

// metricFrame writes one metric frame whose one String cell is host.
func metricFrame(w io.Writer, seq uint64, host string) {
	fmt.Fprintf(w, "id: %d\nevent: metric\ndata: {\"seq\":%d,\"source\":\"gridrm:sim://a\",\"group\":\"Processor\","+
		"\"time\":\"2003-09-01T00:00:00Z\",\"columns\":[\"HostName\"],\"row\":[%q]}\n\n", seq, seq, host)
}

func subscribeRaw(t *testing.T, c *Client) *ClientSubscription {
	t.Helper()
	sub, err := c.SubscribeContext(context.Background(), SubscribeConfig{
		Query: core.QueryOptions{SQL: "SELECT HostName FROM Processor"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)
	return sub
}

// TestSSELongLineDecodes: a 256 KB data line decodes whole. The line buffer
// starts at 4 KB and grows to it.
func TestSSELongLineDecodes(t *testing.T) {
	host := strings.Repeat("h", 256<<10)
	sub := subscribeRaw(t, rawSSE(t, func(w io.Writer) { metricFrame(w, 1, host) }))
	m := recvSSE(t, sub, 1)[0]
	if got, _ := m.Row[0].(string); got != host {
		t.Fatalf("a %d-byte cell came back as %d bytes", len(host), len(got))
	}
	if sub.LastSeq() != 1 {
		t.Errorf("LastSeq = %d, want 1", sub.LastSeq())
	}
}

// TestSSELineOverCapEndsStream: a line past the 1 MB cap ends the
// subscription, and Err names the stream error.
func TestSSELineOverCapEndsStream(t *testing.T) {
	sub := subscribeRaw(t, rawSSE(t, func(w io.Writer) {
		io.WriteString(w, "data: "+strings.Repeat("x", 1<<20)+"\n\n")
	}))
	select {
	case <-sub.Done():
	case m := <-sub.C():
		t.Fatalf("a line over the cap delivered %v", m)
	case <-time.After(5 * time.Second):
		t.Fatal("a line over the cap left the stream open")
	}
	if err := sub.Err(); !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), "subscribe stream") {
		t.Fatalf("Err() = %v, want the stream's %v", err, bufio.ErrTooLong)
	}
}

// TestSSEOpenStreamsRetainLittle: 32 open subscriptions on short rows
// retain less, after a collection, than 64 KB a stream, the size their line
// buffers used to start at. Both ends of every connection count.
func TestSSEOpenStreamsRetainLittle(t *testing.T) {
	const streams = 32
	c := rawSSE(t, func(w io.Writer) { metricFrame(w, 1, "node-1") })
	subscribeRaw(t, c) // the server's and transport's first-use state
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for range streams {
		recvSSE(t, subscribeRaw(t, c), 1) // held open until the test ends
	}
	grew := int64(heap()) - int64(before)
	t.Logf("%d open streams: the heap grew %d bytes, %d a stream", streams, grew, grew/streams)
	if bound := int64(streams * 64 << 10); grew >= bound {
		t.Errorf("%d open streams retain %d bytes, want < %d (64 KB a stream)", streams, grew, bound)
	}
}
