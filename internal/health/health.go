// Package health implements the gateway's background source prober: a
// periodic, cheap liveness check of every registered data source that keeps
// per-source health state (healthy/degraded/down), drives circuit-breaker
// half-open recovery proactively instead of waiting for user traffic, and
// reports state transitions so the gateway can publish Alert events.
//
// The paper's Gateway is the always-available front door to a site's flaky
// monitoring fabric; the prober is what lets it notice a source recovering
// (or dying) while no client happens to be querying it.
package health

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// State is a source's probed health.
type State string

const (
	// StateHealthy means the last probe succeeded.
	StateHealthy State = "healthy"
	// StateDegraded means recent probes failed but fewer than
	// Options.DownAfter in a row.
	StateDegraded State = "degraded"
	// StateDown means Options.DownAfter or more consecutive probe
	// failures.
	StateDown State = "down"
)

// ErrSkipped is returned by a Pinger that intentionally declined to probe a
// source this round (typically: its circuit breaker is open and the
// cooldown has not elapsed, so a probe would only hammer a known-bad
// source). Skipped probes carry no information and do not change state.
var ErrSkipped = errors.New("health: probe skipped")

// Pinger is the surface the prober checks sources through; implemented by
// the core Gateway.
type Pinger interface {
	// ProbeTargets lists the source URLs to probe. The prober only reads
	// the slice, so an implementation may return one it shares.
	ProbeTargets() []string
	// ProbeSource cheaply verifies one source is alive (e.g. a pooled
	// connection ping). It may return ErrSkipped (wrapped or not) when
	// probing is pointless this round.
	ProbeSource(ctx context.Context, url string) error
}

// Options configures a Prober.
type Options struct {
	// Interval between background probe sweeps. Zero or negative means no
	// background loop: Start is a no-op and sweeps happen only via
	// ProbeAll (tests, or operators hitting an admin endpoint).
	Interval time.Duration
	// Timeout bounds each individual source probe (default 2s).
	Timeout time.Duration
	// DownAfter is how many consecutive failures turn a degraded source
	// into a down one (default 3).
	DownAfter int
	// Clock is injectable for tests; defaults to time.Now.
	Clock func() time.Time
}

// SourceHealth is the probed state of one source.
type SourceHealth struct {
	// URL is the data-source URL.
	URL string `json:"url"`
	// State is the current health classification.
	State State `json:"state"`
	// LastProbe is when the source was last actually probed (skipped
	// rounds do not count).
	LastProbe time.Time `json:"last_probe"`
	// LastChange is when State last changed.
	LastChange time.Time `json:"last_change"`
	// ConsecutiveFailures counts probe failures since the last success.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// LastError is the most recent probe error, empty after a success.
	LastError string `json:"last_error,omitempty"`
}

// Stats counts prober activity.
type Stats struct {
	// Probes counts individual source probes attempted (not skipped).
	Probes int64 `json:"probes"`
	// Failures counts probes that returned an error.
	Failures int64 `json:"failures"`
	// Skipped counts probes the Pinger declined (ErrSkipped).
	Skipped int64 `json:"skipped"`
	// Transitions counts state changes across all sources.
	Transitions int64 `json:"transitions"`
}

// TransitionFunc observes a source changing state; from is the previous
// state ("" for a source seen for the first time). Called outside the
// prober's lock, sequentially per sweep.
type TransitionFunc func(h SourceHealth, from State)

// Prober periodically probes every target and tracks per-source health.
type Prober struct {
	pinger       Pinger
	opts         Options
	onTransition TransitionFunc

	mu      sync.Mutex
	state   map[string]*SourceHealth
	started bool
	stopped bool

	stop chan struct{}
	done chan struct{}

	probes, failures, skipped, transitions atomic.Int64
}

// New creates a Prober. onTransition may be nil.
func New(pinger Pinger, opts Options, onTransition TransitionFunc) *Prober {
	if opts.Timeout <= 0 {
		opts.Timeout = 2 * time.Second
	}
	if opts.DownAfter <= 0 {
		opts.DownAfter = 3
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	return &Prober{
		pinger:       pinger,
		opts:         opts,
		onTransition: onTransition,
		state:        make(map[string]*SourceHealth),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
}

// Start launches the background sweep loop; a no-op when Options.Interval
// is zero or the prober was already started.
func (p *Prober) Start() {
	if p.opts.Interval <= 0 {
		return
	}
	p.mu.Lock()
	if p.started || p.stopped {
		p.mu.Unlock()
		return
	}
	p.started = true
	p.mu.Unlock()
	go p.loop()
}

// Stop halts the background loop and waits for an in-flight sweep to
// finish. Idempotent; safe to call whether or not Start ran.
func (p *Prober) Stop() {
	p.mu.Lock()
	if p.stopped {
		started := p.started
		p.mu.Unlock()
		if started {
			<-p.done
		}
		return
	}
	p.stopped = true
	started := p.started
	p.mu.Unlock()
	close(p.stop)
	if started {
		<-p.done
	}
}

func (p *Prober) loop() {
	defer close(p.done)
	t := time.NewTicker(p.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithCancel(context.Background())
			sweepDone := make(chan struct{})
			go func() {
				select {
				case <-p.stop:
					cancel()
				case <-sweepDone:
				}
			}()
			p.ProbeAll(ctx)
			close(sweepDone)
			cancel()
		}
	}
}

// ProbeAll sweeps every current target once, sequentially, honouring ctx.
// Sources that disappeared from the target list are forgotten.
func (p *Prober) ProbeAll(ctx context.Context) {
	targets := p.pinger.ProbeTargets()
	alive := make(map[string]bool, len(targets))
	for _, url := range targets {
		alive[url] = true
		if ctx.Err() != nil {
			return
		}
		p.probeOne(ctx, url)
	}
	p.mu.Lock()
	for url := range p.state {
		if !alive[url] {
			delete(p.state, url)
		}
	}
	p.mu.Unlock()
}

func (p *Prober) probeOne(ctx context.Context, url string) {
	pctx, cancel := context.WithTimeout(ctx, p.opts.Timeout)
	err := p.pinger.ProbeSource(pctx, url)
	cancel()
	if errors.Is(err, ErrSkipped) {
		p.skipped.Add(1)
		return
	}
	now := p.opts.Clock()
	p.probes.Add(1)
	if err != nil {
		p.failures.Add(1)
	}

	p.mu.Lock()
	h, ok := p.state[url]
	if !ok {
		h = &SourceHealth{URL: url}
		p.state[url] = h
	}
	from := h.State
	h.LastProbe = now
	if err == nil {
		h.ConsecutiveFailures = 0
		h.LastError = ""
		h.State = StateHealthy
	} else {
		h.ConsecutiveFailures++
		h.LastError = err.Error()
		if h.ConsecutiveFailures >= p.opts.DownAfter {
			h.State = StateDown
		} else {
			h.State = StateDegraded
		}
	}
	changed := h.State != from
	if changed {
		h.LastChange = now
		p.transitions.Add(1)
	}
	snapshot := *h
	p.mu.Unlock()

	if changed && p.onTransition != nil {
		p.onTransition(snapshot, from)
	}
}

// Health returns the probed state of one source.
func (p *Prober) Health(url string) (SourceHealth, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h, ok := p.state[url]
	if !ok {
		return SourceHealth{}, false
	}
	return *h, true
}

// Snapshot returns every source's health, sorted by URL.
func (p *Prober) Snapshot() []SourceHealth {
	p.mu.Lock()
	out := make([]SourceHealth, 0, len(p.state))
	for _, h := range p.state {
		out = append(out, *h)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Stats returns a snapshot of prober counters.
func (p *Prober) Stats() Stats {
	return Stats{
		Probes:      p.probes.Load(),
		Failures:    p.failures.Load(),
		Skipped:     p.skipped.Load(),
		Transitions: p.transitions.Load(),
	}
}

// Interval reports the configured sweep interval (zero when background
// probing is disabled).
func (p *Prober) Interval() time.Duration { return p.opts.Interval }
