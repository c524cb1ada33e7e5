package router

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridrm/internal/breaker"
	"gridrm/internal/retry"
)

// Sink receives routed metrics in batches. Deliver is called from the
// sink's own goroutine — never from the publish path — so a slow or dead
// sink only ever stalls itself.
type Sink interface {
	// Name identifies the sink (unique per router).
	Name() string
	// Deliver writes one batch; ctx is cancelled at router shutdown. The
	// batch's slots are reused for the next one, so Deliver must not keep
	// the slice once it returns (the metrics in it it may copy and keep).
	Deliver(ctx context.Context, batch []Metric) error
	// Close releases the sink's resources after its last Deliver.
	Close() error
}

// SinkOptions configures one sink's queue and delivery policy.
type SinkOptions struct {
	// Queue bounds the sink's mailbox (default Options.QueueSize).
	Queue int
	// Retries is how many additional Deliver attempts a failed batch
	// gets (default 2).
	Retries int
	// Backoff is the wait before the first retry (default 50ms); it
	// follows the internal/retry schedule capped at 10x.
	Backoff time.Duration
	// Breaker configures the per-sink circuit breaker; while open,
	// batches are dropped (and counted) instead of attempted. The zero
	// value uses the breaker package defaults.
	Breaker breaker.Options
	// Match filters metrics bound for this sink; nil passes everything.
	Match func(Metric) (Metric, bool)
}

func (o SinkOptions) fill(r *Router) SinkOptions {
	if o.Queue <= 0 {
		o.Queue = r.opts.QueueSize
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	return o
}

// SinkStat is one sink's management view.
type SinkStat struct {
	Name         string `json:"name"`
	Delivered    int64  `json:"delivered"`
	Dropped      int64  `json:"dropped"`
	Retries      int64  `json:"retries"`
	Errors       int64  `json:"errors"`
	BreakerOpens int64  `json:"breaker_opens"`
	BreakerState string `json:"breaker_state"`
	Pending      int    `json:"pending"`
}

// sinkRunner drains one sink's bounded subscription on its own goroutine,
// applying retry-with-backoff and the per-sink breaker.
type sinkRunner struct {
	r    *Router
	sink Sink
	sub  *Subscription
	opts SinkOptions
	br   *breaker.Breaker
	slot []Metric // deliver's sinkBatchSize slots, one batch at a time

	ctx    context.Context // cancelled at shutdown to unblock Deliver
	cancel context.CancelFunc
	done   chan struct{} // closed when the runner goroutine exits

	delivered    atomic.Int64
	dropped      atomic.Int64
	retries      atomic.Int64
	errors       atomic.Int64
	breakerOpens atomic.Int64
	busy         atomic.Int64 // 1 while a batch is being delivered
}

// AddSink registers a sink behind its own bounded queue and delivery
// goroutine. The router owns the sink from here: Close(ctx) flushes and
// closes it.
func (r *Router) AddSink(sink Sink, opts SinkOptions) error {
	if sink == nil || sink.Name() == "" {
		return fmt.Errorf("router: sink must be non-nil and named")
	}
	o := opts.fill(r)
	match := o.Match
	if match == nil {
		match = func(m Metric) (Metric, bool) { return m, true }
	}
	s := &Subscription{
		r:     r,
		name:  "sink:" + sink.Name(),
		match: match,
		ch:    make(chan Metric, o.Queue),
		done:  make(chan struct{}),
		born:  r.opts.Clock(),
		sink:  true,
	}
	ctx, cancel := context.WithCancel(context.Background())
	sr := &sinkRunner{
		r: r, sink: sink, sub: s, opts: o,
		br:   breaker.New(o.Breaker),
		slot: make([]Metric, 0, sinkBatchSize),
		ctx:  ctx, cancel: cancel,
		done: make(chan struct{}),
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		cancel()
		return fmt.Errorf("router: closed")
	}
	if _, dup := r.sinks[sink.Name()]; dup {
		r.mu.Unlock()
		cancel()
		return fmt.Errorf("router: sink %q already registered", sink.Name())
	}
	r.nextID++
	s.id = r.nextID
	r.subs[s.id] = s
	r.sinks[sink.Name()] = sr
	r.mu.Unlock()
	r.active.Add(1)
	go sr.run()
	return nil
}

// run is the sink's delivery loop: dequeue a batch, deliver with breaker
// and retries, repeat. On Done it drains whatever is still queued, then
// closes the sink.
func (sr *sinkRunner) run() {
	defer close(sr.done)
	defer func() { _ = sr.sink.Close() }()
	for {
		select {
		case m := <-sr.sub.ch:
			sr.deliver(m)
		case <-sr.sub.done:
			// Final drain: ship what is already queued, without blocking
			// shutdown on a dead sink — ctx is cancelled when the drain
			// deadline lapses.
			for {
				select {
				case m := <-sr.sub.ch:
					sr.deliver(m)
				default:
					return
				}
				if sr.ctx.Err() != nil {
					return
				}
			}
		}
	}
}

// sinkBatchSize caps metrics per Deliver call.
const sinkBatchSize = 64

// deliver ships first and up to sinkBatchSize-1 more queued metrics behind
// it as one batch, in the runner's slots, which are cleared afterwards so
// they pin no rows between bursts.
func (sr *sinkRunner) deliver(first Metric) {
	batch := append(sr.slot[:0], first)
gather:
	for len(batch) < sinkBatchSize {
		select {
		case m := <-sr.sub.ch:
			batch = append(batch, m)
		default:
			break gather
		}
	}
	sr.deliverBatch(batch)
	clear(batch)
}

// deliverBatch applies breaker gating, then retry-with-backoff. A batch
// that exhausts its retries (or finds the breaker open) is dropped and
// counted — the queue must keep moving.
func (sr *sinkRunner) deliverBatch(batch []Metric) {
	sr.busy.Store(1)
	defer sr.busy.Store(0)
	now := sr.r.opts.Clock()
	if !sr.br.Allow(now) {
		sr.dropped.Add(int64(len(batch)))
		sr.r.sinkDropped.Add(int64(len(batch)))
		return
	}
	backoff := retry.Backoff{Base: sr.opts.Backoff, Max: 10 * sr.opts.Backoff}
	for attempt := 0; ; attempt++ {
		err := sr.sink.Deliver(sr.ctx, batch)
		if err == nil {
			sr.br.OnSuccess()
			sr.delivered.Add(int64(len(batch)))
			sr.r.sinkDelivered.Add(int64(len(batch)))
			return
		}
		if attempt >= sr.opts.Retries || sr.ctx.Err() != nil {
			if sr.br.OnFailure(sr.r.opts.Clock()) {
				sr.breakerOpens.Add(1)
				sr.r.sinkBreakerOpens.Add(1)
			}
			sr.errors.Add(1)
			sr.r.sinkErrors.Add(1)
			sr.dropped.Add(int64(len(batch)))
			sr.r.sinkDropped.Add(int64(len(batch)))
			return
		}
		sr.retries.Add(1)
		sr.r.sinkRetries.Add(1)
		// A cancelled wait falls through: the next attempt sees the dead
		// context and takes the drop-and-count exit above.
		_ = retry.Sleep(sr.ctx, backoff.Delay(attempt))
	}
}

// idle reports whether the sink has nothing queued and nothing in flight.
func (sr *sinkRunner) idle() bool { return len(sr.sub.ch) == 0 && sr.busy.Load() == 0 }

// SinkStats lists current sinks for the management view, sorted by name.
func (r *Router) SinkStats() []SinkStat {
	now := r.opts.Clock()
	r.mu.RLock()
	out := make([]SinkStat, 0, len(r.sinks))
	for name, sr := range r.sinks {
		out = append(out, SinkStat{
			Name:         name,
			Delivered:    sr.delivered.Load(),
			Dropped:      sr.dropped.Load() + sr.sub.dropped.Load(),
			Retries:      sr.retries.Load(),
			Errors:       sr.errors.Load(),
			BreakerOpens: sr.breakerOpens.Load(),
			BreakerState: string(sr.br.State(now)),
			Pending:      len(sr.sub.ch),
		})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close shuts the router down in order: stop intake, flush subscriber and
// sink queues until ctx's deadline, then close sinks and end every
// subscription. Publish becomes a no-op immediately; a dead sink or stuck
// subscriber cannot extend the shutdown past ctx.
func (r *Router) Close(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	subs := make([]*Subscription, 0, len(r.subs))
	for _, s := range r.subs {
		subs = append(subs, s)
	}
	sinks := make([]*sinkRunner, 0, len(r.sinks))
	for _, sr := range r.sinks {
		sinks = append(sinks, sr)
	}
	r.mu.Unlock()

	// Flush phase: give sinks until the deadline to ship queued batches.
	var err error
flush:
	for _, sr := range sinks {
		for !sr.idle() {
			if ctx.Err() != nil {
				err = ctx.Err()
				break flush
			}
			select {
			case <-ctx.Done():
				err = ctx.Err()
				break flush
			case <-time.After(2 * time.Millisecond):
			}
		}
	}

	// Close phase: end every subscription (subscribers see Done, sink
	// runners do a final non-blocking drain, then close their sinks).
	for _, s := range subs {
		s.close()
	}
	var wait sync.WaitGroup
	for _, sr := range sinks {
		wait.Add(1)
		go func(sr *sinkRunner) {
			defer wait.Done()
			select {
			case <-sr.done:
			case <-ctx.Done():
				// A Deliver wedged past the deadline: cancel it and let
				// the runner finish in the background.
				sr.cancel()
			}
		}(sr)
	}
	finished := make(chan struct{})
	go func() { wait.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	for _, sr := range sinks {
		sr.cancel()
	}
	r.active.Store(0)
	return err
}

// HTTPSink POSTs JSON batches to a collector endpoint. The body is a JSON
// array of Metric objects.
type HTTPSink struct {
	// URL is the collector endpoint.
	URL string
	// Client is optional; nil uses a 5s-timeout client.
	Client *http.Client
}

// Name identifies the sink as its URL.
func (h *HTTPSink) Name() string { return "http:" + h.URL }

// Deliver POSTs the batch. The body is a fresh buffer a batch, not one the
// sink keeps: the transport may still read a request's body after Do has
// returned.
func (h *HTTPSink) Deliver(ctx context.Context, batch []Metric) error {
	body := []byte{'['}
	for i, m := range batch {
		if i > 0 {
			body = append(body, ',')
		}
		var err error
		if body, err = m.AppendJSON(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.URL, bytes.NewReader(append(body, ']')))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	client := h.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return fmt.Errorf("router: sink POST %s: %s", h.URL, resp.Status)
	}
	return nil
}

// Close is a no-op; the HTTP client owns no resources here.
func (h *HTTPSink) Close() error { return nil }

// FileSink appends metrics to a file as JSON lines.
type FileSink struct {
	path string
	mu   sync.Mutex
	f    *os.File
	buf  []byte // under mu: one batch's lines
}

// NewFileSink opens (creating or appending) the JSONL file.
func NewFileSink(path string) (*FileSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("router: file sink: %w", err)
	}
	return &FileSink{path: path, f: f}, nil
}

// Name identifies the sink as its path.
func (fs *FileSink) Name() string { return "file:" + fs.path }

// Deliver appends one JSON line per metric — the line json.Encoder writes —
// with one Write a batch.
func (fs *FileSink) Deliver(_ context.Context, batch []Metric) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.f == nil {
		return fmt.Errorf("router: file sink %s closed", fs.path)
	}
	buf := fs.buf[:0]
	for _, m := range batch {
		var err error
		if buf, err = m.AppendJSON(buf); err != nil {
			return err
		}
		buf = append(buf, '\n')
	}
	fs.buf = buf
	_, err := fs.f.Write(buf)
	return err
}

// Close closes the file.
func (fs *FileSink) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.f == nil {
		return nil
	}
	err := fs.f.Close()
	fs.f = nil
	return err
}
