// Package retry is the one backoff schedule and the one cancellable wait
// behind every retry loop in the repo (harvest retry, remote-query retry,
// directory registration, sink delivery, durable-store re-attach). The
// loops stay with their owners — they differ in breaker accounting and
// re-lookup — and take only the delay and the sleep from here.
package retry

import (
	"context"
	"math/rand"
	"time"
)

// Backoff is an exponential schedule with equal jitter: attempt n waits a
// random duration in [d/2, d] where d = min(Base<<n, Max).
type Backoff struct {
	// Base is the nominal wait before the first retry (attempt 0).
	Base time.Duration
	// Max caps the nominal wait.
	Max time.Duration
}

// Delay returns the jittered wait before retry number attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	d := b.Max
	// Shift only when the result stays under the cap, so it cannot
	// overflow; Max>>attempt is 0 once attempt passes the word size.
	if b.Base <= b.Max>>uint(attempt) {
		d = b.Base << uint(attempt)
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return d - half + time.Duration(rand.Int63n(int64(half)+1))
}

// Sleep waits for d or until ctx is done, whichever comes first, and
// returns ctx.Err() in the latter case. The timer is released either way.
func Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
