package gma

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/security"
	"gridrm/internal/trace"
)

// versioned is a republisher with a version watch: its answers carry the
// validator of their view and the version token of the whole republisher,
// a 304 the token too, and watch is the long poll on the token that
// web.RemoteVersionContext makes over HTTP. stall holds every poll that
// would answer until its context ends, as a stopped process does.
type versioned struct {
	t       *testing.T
	queries atomic.Int64 // requests sent
	polls   atomic.Int64 // polls answered
	stall   atomic.Bool
	fail    atomic.Bool  // every poll fails at once
	failed  atomic.Int64 // polls failed

	mu      sync.Mutex
	version int64
	changes Changes
}

func (v *versioned) token() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return fmt.Sprint("t", v.version)
}

// change moves the views to a new version and wakes the watches.
func (v *versioned) change() {
	v.mu.Lock()
	v.version++
	v.mu.Unlock()
	v.changes.Notify()
}

func (v *versioned) exec(_ context.Context, _ string, req core.QueryOptions) (*core.Response, error) {
	v.queries.Add(1)
	v.mu.Lock()
	defer v.mu.Unlock()
	tag, token := fmt.Sprint("v", v.version), fmt.Sprint("t", v.version)
	if req.Validator == tag {
		return &core.Response{NotModified: true, Validator: tag, Version: token}, nil
	}
	return &core.Response{Site: req.Site, SQL: req.SQL, ResultSet: intRows(v.t, 3, v.version), Validator: tag, Version: token}, nil
}

func (v *versioned) watch(ctx context.Context, _ string, token string, wait time.Duration) (string, error) {
	if v.fail.Load() {
		v.failed.Add(1)
		return "", errors.New("connection refused")
	}
	if err := Await(ctx, wait, func() (bool, <-chan struct{}) {
		changed := v.changes.Next()
		return v.token() == token && !v.stall.Load(), changed
	}); err != nil {
		return "", err
	}
	for {
		changed := v.changes.Next()
		if !v.stall.Load() {
			break
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	v.polls.Add(1)
	return v.token(), nil
}

// testClock is a router clock the test moves.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

var watchedLeg = core.QueryOptions{SQL: "SELECT N FROM T", Site: "R", Region: []string{"B"},
	Principal: security.Principal{Name: "u", Roles: []string{"operator"}}}

// newWatched is a router with a version watch on the republisher R of v,
// on clock (nil is time.Now).
func newWatched(t *testing.T, v *versioned, clock func() time.Time) *Router {
	t.Helper()
	d := NewDirectory(0, nil)
	_ = d.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b"})
	_ = d.RegisterContext(context.Background(), Registration{Name: "R", Endpoint: "http://r", Role: RoleRepublisher})
	r := NewRouter(d, v.exec, "A", Config{Watch: v.watch, Clock: clock})
	t.Cleanup(r.Close)
	return r
}

// awaitLive waits, for at most two waits, until r has n live watches.
func awaitLive(t *testing.T, r *Router, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * VersionWait); r.Stats().LiveWatches != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d live watches after two waits, want %d", r.Stats().LiveWatches, n)
		}
	}
}

// leg sends watchedLeg through r and returns the value its rows hold.
func leg(t *testing.T, r *Router, ctx context.Context) int64 {
	t.Helper()
	resp, err := r.RemoteQueryContext(ctx, "R", watchedLeg)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Validator != "" || resp.Version != "" || resp.ResultSet.Len() != 3 {
		t.Fatalf("answer = %+v, want three rows and no validator or version", resp)
	}
	return resp.ResultSet.Cell(0, 0).Value().(int64)
}

// TestWatchConfirmsHeldAnswers: once a republisher's answer is held and its
// watch is live, the same leg is answered from the held answer with no
// request, its span saying so; a change of the views is seen on the watch,
// and the next leg after it is the new answer in full, held and confirmed
// in its turn. A 304 brings the version it was answered at, so an answer a
// change elsewhere outdated is confirmed again after one round trip.
func TestWatchConfirmsHeldAnswers(t *testing.T) {
	v := &versioned{t: t}
	r := newWatched(t, v, nil)
	ctx := context.Background()
	if got := leg(t, r, ctx); got != 0 || v.queries.Load() != 1 {
		t.Fatalf("first leg = %d after %d requests", got, v.queries.Load())
	}
	awaitLive(t, r, 1)
	tr := trace.New(trace.Options{})
	tctx, root := tr.StartTrace(ctx, "query", "A", trace.DecideOn)
	for i := 0; i < 10; i++ {
		if got := leg(t, r, tctx); got != 0 {
			t.Fatalf("watched leg %d = %d, want the held 0", i, got)
		}
	}
	spans := root.EndCollected()
	if n := v.queries.Load(); n != 1 {
		t.Errorf("10 watched legs sent %d requests, want none", n-1)
	}
	if st := r.Stats(); st.WatchConfirmed != 10 || st.NotModified != 0 || st.RegionLegs != 11 {
		t.Errorf("stats = %+v, want 10 watch-confirmed of 11 region legs", st)
	}
	for _, sp := range spans {
		if sp.Name == "remote-query" && (sp.Attrs["answered"] != "watch" || sp.Attrs["held_age"] == "") {
			t.Errorf("watched leg span attrs = %v, want answered=watch and a held_age", sp.Attrs)
		}
	}

	v.change()
	start := time.Now()
	for leg(t, r, ctx) != 1 {
		if time.Since(start) > VersionWait {
			t.Fatal("the change was not seen within one wait")
		}
		time.Sleep(time.Millisecond)
	}
	awaitLive(t, r, 1)
	before := v.queries.Load()
	if got := leg(t, r, ctx); got != 1 || v.queries.Load() != before {
		t.Errorf("after the change: leg = %d with %d requests, want the new answer held", got, v.queries.Load()-before)
	}

	// A 304 carries the republisher's version: the held answer is
	// confirmed at it, and the watch serves it again.
	r.held.mu.Lock()
	for _, e := range r.held.m {
		e.token = "outdated"
	}
	r.held.mu.Unlock()
	before = v.queries.Load()
	if got := leg(t, r, ctx); got != 1 || v.queries.Load() != before+1 || r.Stats().NotModified != 1 {
		t.Fatalf("outdated held answer: leg = %d, %d requests, %d 304s", got, v.queries.Load()-before, r.Stats().NotModified)
	}
	if got := leg(t, r, ctx); got != 1 || v.queries.Load() != before+1 {
		t.Errorf("after the 304: leg = %d, %d requests, want it watch-confirmed", got, v.queries.Load()-before)
	}
}

// TestStalledWatchStopsConfirming: a republisher whose polls stop answering
// — stopped, or cut off without a reset — has its held answers revalidated
// with a request once two waits of the router's clock pass with no reply.
// A failing poll stops the confirming at once.
func TestStalledWatchStopsConfirming(t *testing.T) {
	clock := &testClock{now: time.Unix(1000, 0)}
	v := &versioned{t: t}
	r := newWatched(t, v, clock.Now)
	ctx := context.Background()
	leg(t, r, ctx)
	awaitLive(t, r, 1)
	v.stall.Store(true)
	v.changes.Notify() // the poll in flight stalls too
	clock.Advance(2*VersionWait + time.Nanosecond)
	if n := r.Stats().LiveWatches; n != 0 {
		t.Fatalf("%d live watches two waits after the last reply", n)
	}
	before := v.queries.Load()
	leg(t, r, ctx)
	if v.queries.Load() != before+1 || r.Stats().NotModified != 1 {
		t.Errorf("a leg past a stalled watch sent %d requests and served %d 304s, want one of each", v.queries.Load()-before, r.Stats().NotModified)
	}

	v.stall.Store(false)
	v.changes.Notify()
	awaitLive(t, r, 1)
	v.fail.Store(true)
	v.change() // the poll in flight answers, and the one after it fails
	for leg(t, r, ctx) != 1 {
		time.Sleep(time.Millisecond)
	}
	for deadline := time.Now().Add(VersionWait); v.failed.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no poll failed within a wait")
		}
	}
	awaitLive(t, r, 0)
	before, notModified := v.queries.Load(), r.Stats().NotModified
	leg(t, r, ctx)
	if v.queries.Load() != before+1 || r.Stats().NotModified != notModified+1 {
		t.Errorf("a leg past a failed watch sent %d requests, want one answered 304", v.queries.Load()-before)
	}
}

// TestRouterCloseEndsItsWatches: Close cancels every poll in flight and
// returns once every watch has ended, and no watch starts after it; the
// router still answers, down the 304 ladder. A watch on a republisher the
// directory no longer lists ends at the next re-list.
func TestRouterCloseEndsItsWatches(t *testing.T) {
	v := &versioned{t: t}
	r := newWatched(t, v, nil)
	ctx := context.Background()
	leg(t, r, ctx)
	awaitLive(t, r, 1)
	r.Close()
	if n := r.Stats().LiveWatches; n != 0 {
		t.Fatalf("%d live watches after Close", n)
	}
	polls := v.polls.Load()
	leg(t, r, ctx)
	leg(t, r, ctx)
	if st := r.Stats(); st.NotModified != 2 || st.LiveWatches != 0 {
		t.Errorf("after Close: %+v, want two 304s and no watch", st)
	}
	v.change()
	time.Sleep(10 * time.Millisecond)
	if v.polls.Load() != polls {
		t.Error("a watch polled after Close")
	}

	d := NewDirectory(0, nil)
	_ = d.RegisterContext(ctx, Registration{Name: "R", Endpoint: "http://r", Role: RoleRepublisher})
	watched := NewRouter(d, v.exec, "A", Config{LookupTTL: -1, Watch: v.watch})
	defer watched.Close()
	if _, err := watched.RemoteQueryContext(ctx, "R", core.QueryOptions{SQL: "SELECT N FROM T", Site: "R"}); err != nil {
		t.Fatal(err)
	}
	awaitLive(t, watched, 1)
	_ = d.DeregisterContext(ctx, "R")
	watched.Sites() // a re-list
	watched.mu.Lock()
	n := len(watched.watches)
	watched.mu.Unlock()
	if n != 0 {
		t.Errorf("%d watches kept on a republisher the directory no longer lists", n)
	}
}
