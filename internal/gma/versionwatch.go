package gma

import (
	"context"
	"sync"
	"time"

	"gridrm/internal/retry"
)

// VersionContext long-polls a republisher endpoint's version token: it
// returns the token once it differs from token, or once wait has passed,
// and at once for an empty token. internal/web's RemoteVersionContext is
// the HTTP implementation (GET /repub/version).
type VersionContext func(ctx context.Context, endpoint, token string, wait time.Duration) (string, error)

// VersionWait is how long one poll of a version watch waits for a change.
// A watch that has had no reply for two waits is not live, so a killed or
// stalled republisher's held answers go back to a request within two waits.
// It is a constant, as the ring's virtual-node count is: it bounds what
// every hub may serve without asking, and no deployment needs another.
const VersionWait = time.Second

// versionRest is how long a watch rests after a reply that named a new
// token before it polls again, confirming nothing meanwhile, so that a
// republisher whose views change without pause costs a few polls a second,
// not one a round trip.
const versionRest = VersionWait / 20

// versionWatch follows one republisher endpoint's version token for the
// Router, which serves a held answer without a request while the watch is
// live and names the token the answer was last confirmed at.
type versionWatch struct {
	endpoint string
	cancel   context.CancelFunc

	mu sync.Mutex
	// token is the version the last reply named; confirming is false while
	// it may be out of date: before the first reply, after a failed poll,
	// and while the watch rests after a change.
	token      string
	confirming bool
	// at is when the last reply arrived.
	at time.Time
}

// live reports whether the watch has had a reply within two waits of now
// and its last poll did not fail.
func (w *versionWatch) live(now time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.liveLocked(now)
}

func (w *versionWatch) liveLocked(now time.Time) bool {
	return w.confirming && now.Sub(w.at) <= 2*VersionWait
}

// confirms reports whether an answer read at version token is still the
// republisher's: the watch is live and names the same token.
func (w *versionWatch) confirms(token string, now time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.liveLocked(now) && w.token == token
}

// set records what the watch knows.
func (w *versionWatch) set(token string, confirming bool, at time.Time) {
	w.mu.Lock()
	w.token, w.confirming = token, confirming
	if !at.IsZero() {
		w.at = at
	}
	w.mu.Unlock()
}

// poll runs the watch until ctx ends. Each poll waits VersionWait at the
// republisher and is given up after two; a failed one marks the watch not
// live and is retried after a wait, from no token, so a republisher that
// restarted is never taken for its predecessor.
func (r *Router) poll(ctx context.Context, w *versionWatch) {
	defer r.watching.Done()
	token := ""
	for {
		pctx, cancel := context.WithTimeout(ctx, 2*VersionWait)
		next, err := r.cfg.Watch(pctx, w.endpoint, token, VersionWait)
		cancel()
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			w.set("", false, time.Time{})
			token = ""
			if retry.Sleep(ctx, VersionWait) != nil {
				return
			}
			continue
		}
		if next == token {
			w.set(token, true, r.clock())
			continue
		}
		// A new token: the watch holds it from the next poll on, which
		// any change after this reply ends at once.
		token = next
		w.set(token, false, r.clock())
		if retry.Sleep(ctx, versionRest) != nil {
			return
		}
		w.set(token, true, time.Time{})
	}
}

// watch returns the version watch on endpoint, nil when the router keeps
// none there.
func (r *Router) watch(endpoint string) *versionWatch {
	if r.cfg.Watch == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.watches[endpoint]
}

// follow starts a version watch on endpoint, a republisher the router now
// holds an answer from, unless one runs or the router has closed.
func (r *Router) follow(endpoint string) {
	if r.cfg.Watch == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.watches[endpoint] != nil {
		return
	}
	if r.watches == nil {
		r.watches = make(map[string]*versionWatch)
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &versionWatch{endpoint: endpoint, cancel: cancel}
	r.watches[endpoint] = w
	r.watching.Add(1)
	go r.poll(ctx, w)
}

// unwatch stops the watches on endpoints live does not list.
func (r *Router) unwatch(live map[string]bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for endpoint, w := range r.watches {
		if !live[endpoint] {
			w.cancel()
			delete(r.watches, endpoint)
		}
	}
}

// liveWatches counts the watches that are live now.
func (r *Router) liveWatches() int {
	now := r.clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, w := range r.watches {
		if w.live(now) {
			n++
		}
	}
	return n
}

// Close stops every version watch and waits for them to end; a watch's poll
// in flight is cancelled with it. The router keeps routing, and revalidates
// every held answer with a request from then on.
func (r *Router) Close() {
	r.mu.Lock()
	r.closed = true
	watches := r.watches
	r.watches = nil
	r.mu.Unlock()
	for _, w := range watches {
		w.cancel()
	}
	r.watching.Wait()
}
