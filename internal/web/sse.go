package web

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/router"
	"gridrm/internal/security"
	"gridrm/internal/trace"
)

// Server-sent-events transport for continuous queries (R-GMA's third query
// class). GET /subscribe?sql=... registers the SQL predicate at the gateway
// and streams every matching row as an SSE "metric" event whose id: field
// carries the router sequence number, so a reconnecting client resumes with
// the standard Last-Event-ID header (or an explicit ?from=). Heartbeat
// comments keep idle connections distinguishable from dead ones; "gap" and
// "evicted" events make backpressure losses visible instead of silent.

// defaultHeartbeat is the SSE comment interval when ?heartbeat= is absent.
const defaultHeartbeat = 15 * time.Second

func (s *Server) subscribe(ctx context.Context, w http.ResponseWriter, r *http.Request, p security.Principal) {
	q := r.URL.Query()
	sql := q.Get("sql")
	if sql == "" {
		http.Error(w, "missing sql parameter", http.StatusBadRequest)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	opts := core.QueryOptions{
		SQL:       sql,
		Mode:      core.ModeRealTime,
		Principal: p,
	}
	if srcs := q.Get("sources"); srcs != "" {
		for _, src := range strings.Split(srcs, ",") {
			if src = strings.TrimSpace(src); src != "" {
				opts.Sources = append(opts.Sources, src)
			}
		}
	}
	// Resume point: ?from= is the explicit form; the Last-Event-ID header
	// (set automatically by EventSource reconnects) wins when present. Both
	// carry the last sequence number the client saw.
	if v := q.Get("from"); v != "" {
		seq, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad from parameter: "+err.Error(), http.StatusBadRequest)
			return
		}
		opts.FromSeq = seq
	}
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if seq, err := strconv.ParseUint(v, 10, 64); err == nil {
			opts.FromSeq = seq
		}
	}
	heartbeat := defaultHeartbeat
	if v := q.Get("heartbeat"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 100*time.Millisecond {
			http.Error(w, "bad heartbeat parameter", http.StatusBadRequest)
			return
		}
		heartbeat = d
	}

	sub, err := s.gw.Subscribe(ctx, opts)
	if err != nil {
		httpError(w, err)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// A replay gap is known at subscribe time: the ring no longer reaches
	// back to the requested sequence. Tell the client before any rows.
	if sub.Gapped() {
		writeSSEEvent(w, "gap", 0, gapData{From: opts.FromSeq, Oldest: s.gw.PushRouter().OldestBuffered()})
	}
	flusher.Flush()

	hb := time.NewTicker(heartbeat)
	defer hb.Stop()
	var drops int64
	for {
		select {
		case <-ctx.Done():
			// Client went away (or server is shutting the listener down);
			// sub.Close() via defer unregisters promptly.
			return
		case <-sub.Done():
			if sub.Evicted() {
				// Best effort: the subscription stalled so long the router
				// evicted it; tell the client to reconnect with backoff.
				writeSSEEvent(w, "evicted", sub.LastSeq(), gapData{Dropped: sub.Dropped()})
				flusher.Flush()
			}
			return
		case m := <-sub.C():
			// Drop-oldest overflow between reads surfaces as a gap event so
			// the client knows rows were lost (and how many), not skipped.
			if d := sub.Dropped(); d > drops {
				if err := writeSSEEvent(w, "gap", 0, gapData{Dropped: d - drops}); err != nil {
					return
				}
				drops = d
			}
			if err := writeSSEMetric(w, m); err != nil {
				return
			}
			flusher.Flush()
		case <-hb.C:
			if _, err := io.WriteString(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// gapData is the payload of gap and evicted events.
type gapData struct {
	// Dropped is how many rows were lost to drop-oldest overflow.
	Dropped int64 `json:"dropped,omitempty"`
	// From / Oldest describe a replay gap: the client asked to resume from
	// From but the ring's oldest retained sequence is Oldest.
	From   uint64 `json:"from,omitempty"`
	Oldest uint64 `json:"oldest,omitempty"`
}

func writeSSEMetric(w io.Writer, m router.Metric) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: metric\ndata: %s\n\n", m.Seq, data)
	return err
}

func writeSSEEvent(w io.Writer, event string, id uint64, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if id > 0 {
		_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, data)
	} else {
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	}
	return err
}

// SubscribeConfig parameterises Client.SubscribeContext.
type SubscribeConfig struct {
	// Query is the continuous query: SQL (no aggregates), optional Sources
	// restriction, and FromSeq to resume after a reconnect. Mode and Site
	// are ignored (continuous queries are local real-time).
	Query core.QueryOptions
	// IdleTimeout tears the stream down when no bytes (rows or heartbeats)
	// arrive for this long — the liveness check that catches half-open TCP
	// connections. 0 means 45s; negative disables the watchdog.
	IdleTimeout time.Duration
	// Heartbeat asks the server for this comment interval. 0 uses the
	// server default (15s). Keep it well under IdleTimeout.
	Heartbeat time.Duration
	// Buffer is the local delivery channel's capacity (default 64).
	Buffer int
}

// ClientSubscription is the client half of a continuous query: rows arrive
// on C until the stream ends, which Done signals. After Done, Err reports
// why (nil for a clean close), Gaps how many server-side gap notices were
// seen, and LastSeq the resume point for a reconnect.
type ClientSubscription struct {
	ch     chan router.Metric
	done   chan struct{}
	cancel context.CancelFunc

	mu      sync.Mutex
	err     error
	gaps    atomic.Int64
	dropped atomic.Int64
	evicted atomic.Bool
	lastSeq atomic.Uint64
}

// C delivers matching rows. It is never closed; select on Done alongside.
func (cs *ClientSubscription) C() <-chan router.Metric { return cs.ch }

// Done is closed when the stream ends for any reason.
func (cs *ClientSubscription) Done() <-chan struct{} { return cs.done }

// Close tears the stream down and waits for the reader goroutine to exit,
// so a returned Close guarantees no goroutine leak.
func (cs *ClientSubscription) Close() {
	cs.cancel()
	<-cs.done
}

// Err reports why the stream ended; nil before Done and after clean closes.
func (cs *ClientSubscription) Err() error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.err
}

// Gaps counts gap events received (replay gaps and overflow notices).
func (cs *ClientSubscription) Gaps() int64 { return cs.gaps.Load() }

// Dropped totals the rows the server reported lost to overflow.
func (cs *ClientSubscription) Dropped() int64 { return cs.dropped.Load() }

// Evicted reports whether the server evicted this subscriber for stalling.
func (cs *ClientSubscription) Evicted() bool { return cs.evicted.Load() }

// LastSeq is the highest sequence number received — pass it as FromSeq on
// reconnect to resume without loss (the server replays the ring from it).
func (cs *ClientSubscription) LastSeq() uint64 { return cs.lastSeq.Load() }

func (cs *ClientSubscription) setErr(err error) {
	cs.mu.Lock()
	if cs.err == nil {
		cs.err = err
	}
	cs.mu.Unlock()
}

// SubscribeContext opens a continuous query against the gateway's SSE
// endpoint. Unlike the other client methods it is long-lived: the default
// 10s-timeout HTTP client is deliberately bypassed (a caller-supplied
// HTTPClient is honoured as-is, so leave its Timeout zero for streaming).
// The stream ends when ctx is cancelled, Close is called, the idle watchdog
// fires, or the server closes it (shutdown or eviction).
func (c *Client) SubscribeContext(ctx context.Context, cfg SubscribeConfig) (*ClientSubscription, error) {
	q := url.Values{}
	q.Set("sql", cfg.Query.SQL)
	if len(cfg.Query.Sources) > 0 {
		q.Set("sources", strings.Join(cfg.Query.Sources, ","))
	}
	if cfg.Query.FromSeq > 0 {
		q.Set("from", strconv.FormatUint(cfg.Query.FromSeq, 10))
	}
	if cfg.Heartbeat > 0 {
		q.Set("heartbeat", cfg.Heartbeat.String())
	}
	idle := cfg.IdleTimeout
	if idle == 0 {
		idle = 45 * time.Second
	}
	buffer := cfg.Buffer
	if buffer <= 0 {
		buffer = 64
	}

	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/subscribe?"+q.Encode(), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if c.Principal.Name != "" {
		req.Header.Set(HeaderUser, c.Principal.Name)
	}
	if len(c.Principal.Roles) > 0 {
		req.Header.Set(HeaderRoles, strings.Join(c.Principal.Roles, ","))
	}
	if c.Principal.Site != "" {
		req.Header.Set(HeaderSite, c.Principal.Site)
	}
	if car, ok := trace.CarrierFromContext(ctx); ok {
		req.Header.Set(trace.HeaderName, car.Header())
	}
	// Streaming must not inherit the default client's 10s overall timeout.
	hc := c.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("web: %w", err)
	}
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("web: GET /subscribe: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("web: GET /subscribe: unexpected content type %q", ct)
	}

	cs := &ClientSubscription{
		ch:     make(chan router.Metric, buffer),
		done:   make(chan struct{}),
		cancel: cancel,
	}
	go cs.read(ctx, resp.Body, idle)
	return cs, nil
}

// read parses the SSE stream until it ends. The idle watchdog cancels the
// request context when no bytes arrive within idle, which unblocks the
// pending Read — heartbeats reset it, so only a genuinely silent (dead or
// wedged) connection trips it.
func (cs *ClientSubscription) read(ctx context.Context, body io.ReadCloser, idle time.Duration) {
	defer func() {
		body.Close()
		cs.cancel()
		close(cs.done)
	}()
	var idleTimer *time.Timer
	idleFired := make(chan struct{})
	if idle > 0 {
		var once sync.Once
		idleTimer = time.AfterFunc(idle, func() {
			once.Do(func() { close(idleFired) })
			cs.cancel()
		})
		defer idleTimer.Stop()
	}

	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var event string
	var data []byte
	for sc.Scan() {
		if idleTimer != nil {
			idleTimer.Reset(idle)
		}
		line := sc.Text()
		switch {
		case line == "":
			if len(data) > 0 && !cs.dispatch(ctx, event, data) {
				return
			}
			event, data = "", nil
		case strings.HasPrefix(line, ":"):
			// Heartbeat comment: liveness only (already reset the watchdog).
		case strings.HasPrefix(line, "id:"):
			if seq, err := strconv.ParseUint(strings.TrimSpace(line[3:]), 10, 64); err == nil && seq > cs.lastSeq.Load() {
				cs.lastSeq.Store(seq)
			}
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[6:])
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(line[5:])...)
		}
	}
	err := sc.Err()
	select {
	case <-idleFired:
		cs.setErr(fmt.Errorf("web: subscribe stream idle for %s", idle))
	default:
		switch {
		case ctx.Err() != nil:
			// Deliberate Close / parent cancellation: a clean end.
		case err != nil:
			cs.setErr(fmt.Errorf("web: subscribe stream: %w", err))
		}
	}
}

// dispatch routes one parsed SSE frame; false ends the reader.
func (cs *ClientSubscription) dispatch(ctx context.Context, event string, data []byte) bool {
	switch event {
	case "metric", "":
		var m router.Metric
		if err := json.Unmarshal(data, &m); err != nil {
			cs.setErr(fmt.Errorf("web: bad metric frame: %w", err))
			return false
		}
		select {
		case cs.ch <- m:
		case <-ctx.Done():
			return false
		}
	case "gap":
		var g gapData
		_ = json.Unmarshal(data, &g)
		cs.gaps.Add(1)
		cs.dropped.Add(g.Dropped)
	case "evicted":
		var g gapData
		_ = json.Unmarshal(data, &g)
		cs.dropped.Add(g.Dropped)
		cs.evicted.Store(true)
		cs.setErr(fmt.Errorf("web: subscriber evicted by gateway (stalled too long)"))
		return false
	}
	return true
}
