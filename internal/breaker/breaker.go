// Package breaker is the shared circuit breaker used by both layers of the
// gateway: internal/core puts one in front of every data-source harvest and
// internal/gma puts one in front of every remote gateway endpoint. A target
// that fails Threshold times in a row is "open": calls are skipped cheaply
// for Cooldown, after which a single half-open probe is allowed through; a
// successful probe closes the breaker, a failed one re-opens it for another
// Cooldown. The consecutive-failure count is also the target's health: core
// reads a source's healthy/degraded/down state from it.
package breaker

import (
	"sync"
	"time"
)

// Options configures a circuit breaker.
type Options struct {
	// Threshold is how many consecutive failures open the breaker
	// (default 5). A negative Threshold disables the breaker: it never
	// refuses a call, though it still counts failures.
	Threshold int
	// Cooldown is how long an open breaker rejects calls before allowing a
	// half-open probe (default 30s).
	Cooldown time.Duration
}

// Fill returns o with defaults applied.
func (o Options) Fill() Options {
	if o.Threshold == 0 {
		o.Threshold = 5
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 30 * time.Second
	}
	return o
}

// State is the management-view name for a breaker's current state.
type State string

const (
	Closed   State = "closed"
	Open     State = "open"
	HalfOpen State = "half-open"
)

// Breaker is one target's circuit-breaker state.
type Breaker struct {
	opts Options

	mu          sync.Mutex
	consecutive int
	openUntil   time.Time
	probing     bool
}

// New creates a closed breaker with opts (defaults applied).
func New(opts Options) *Breaker { return &Breaker{opts: opts.Fill()} }

// Disabled reports whether the breaker is configured off.
func (b *Breaker) Disabled() bool { return b.opts.Threshold < 0 }

// Allow reports whether a call may proceed now. In the half-open state
// exactly one caller wins the probe slot until OnSuccess, OnFailure or
// Release resolves it; concurrent callers are rejected as if the breaker
// were still open.
func (b *Breaker) Allow(now time.Time) bool {
	if b.Disabled() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.consecutive < b.opts.Threshold {
		return true
	}
	if now.Before(b.openUntil) || b.probing {
		return false
	}
	b.probing = true
	return true
}

// OnSuccess records a successful call: the count resets and the breaker
// closes.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	b.consecutive = 0
	b.probing = false
	b.mu.Unlock()
}

// OnFailure records a failed call and reports whether this failure
// transitioned the breaker from closed to open.
func (b *Breaker) OnFailure(now time.Time) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wasProbe := b.probing
	b.probing = false
	b.consecutive++
	if b.Disabled() || b.consecutive < b.opts.Threshold {
		return false
	}
	b.openUntil = now.Add(b.opts.Cooldown)
	// Only the closed→open edge counts as an "open"; a failed half-open
	// probe re-arms the cooldown without recounting.
	return !wasProbe && b.consecutive == b.opts.Threshold
}

// Release gives back a half-open slot Allow handed out, recording nothing:
// a call abandoned before it reached the target, or cancelled by its own
// caller, says nothing about the target.
func (b *Breaker) Release() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// Failures reports the consecutive failures since the last success.
func (b *Breaker) Failures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consecutive
}

// State reports the breaker's state for the management view.
func (b *Breaker) State(now time.Time) State {
	if b.Disabled() {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.consecutive < b.opts.Threshold:
		return Closed
	case b.probing || !now.Before(b.openUntil):
		return HalfOpen
	default:
		return Open
	}
}
