package gma

import (
	"context"
	"errors"
	"net/url"
	"sync"
	"time"
)

// Changes wakes long polls. A waiter takes Next before it reads the state it
// watches, and a writer calls Notify after it changes that state, so no
// change falls between a waiter's read and its wait. A channel is made only
// for a waiter: a writer nobody waits on pays for a lock and nothing else.
type Changes struct {
	mu sync.Mutex
	ch chan struct{}
}

// Next returns a channel that the next Notify closes.
func (c *Changes) Next() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ch == nil {
		c.ch = make(chan struct{})
	}
	return c.ch
}

// Notify wakes every waiter on Next.
func (c *Changes) Notify() {
	c.mu.Lock()
	if c.ch != nil {
		close(c.ch)
		c.ch = nil
	}
	c.mu.Unlock()
}

// Await is the long poll every watch serves, the directory's membership and
// a republisher's version alike: it returns once current reports that the
// state has moved from the one the caller named, once wait has passed, or
// with ctx's error once ctx ends. current returns its verdict and a channel
// closed by the next change (Changes.Next, taken before the state is read).
func Await(ctx context.Context, wait time.Duration, current func() (same bool, changed <-chan struct{})) error {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for waited := false; ; {
		if err := ctx.Err(); err != nil {
			return err
		}
		same, changed := current()
		if waited || !same {
			return nil
		}
		select {
		case <-changed:
		case <-timer.C:
			waited = true
		case <-ctx.Done():
		}
	}
}

// maxWatchWait caps the wait a watch request may hold.
const maxWatchWait = 30 * time.Second

// WatchWait reads a watch request's ?wait= from q: a Go duration, capped at
// maxWatchWait. ok is false for a request without one, which answers at
// once; err is set for a malformed or negative wait.
func WatchWait(q url.Values) (wait time.Duration, ok bool, err error) {
	if !q.Has("wait") {
		return 0, false, nil
	}
	wait, err = time.ParseDuration(q.Get("wait"))
	if err == nil && wait < 0 {
		err = errNegativeWait
	}
	if err != nil {
		return 0, false, err
	}
	return min(wait, maxWatchWait), true, nil
}

var errNegativeWait = errors.New("gma: negative wait")
