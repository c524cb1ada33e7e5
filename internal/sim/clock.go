package sim

import (
	"sync"
	"time"
)

// Epoch is the fixed instant new Clocks start at. Anchoring to a constant
// rather than time.Now keeps clock-driven tests and runs bit-identical
// across machines.
var Epoch = time.Unix(1_700_000_000, 0).UTC()

// Clock is a deterministic, manually-advanced time source. Inject its Now
// method wherever a subsystem accepts a clock (qcache, history, the GMA
// router's lookup TTL, ...) to replace sleep-based TTL tests with explicit
// Advance calls.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// NewClock returns a clock starting at Epoch.
func NewClock() *Clock { return &Clock{now: Epoch} }

// Now returns the current simulated time. The method value (c.Now) matches
// the `func() time.Time` clock hooks used across the repo.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time. Negative
// deltas are ignored: simulated time never runs backwards.
func (c *Clock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now = c.now.Add(d)
	}
	return c.now
}
