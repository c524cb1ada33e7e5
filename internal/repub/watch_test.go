package repub

import (
	"context"
	"net/http"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/gma"
	"gridrm/internal/web"
)

// This file holds the watched route: the entry's gma.Router keeps a version
// watch (GET /repub/version) on the republisher it holds answers from, over
// real HTTP, and serves a held answer with no request while the watch is
// live and names the version the answer was read at.

// maxWatchedLegAllocs bounds what a watch-confirmed region leg allocates at
// the hub: the answer and a clone of the held result set, two today. A 304
// round trip on loopback costs some 90.
const maxWatchedLegAllocs = 4

// watched is a router on the fixture's directory with a version watch over
// HTTP, keeping its copy of the directory as the binary's does.
func (f *revalFixture) watched() *gma.Router {
	r := gma.NewRouter(f.dir, web.RemoteQueryContext, "s0", gma.Config{Watch: web.RemoteVersionContext})
	f.t.Cleanup(r.Close)
	return r
}

var watchedRegion = withAdmin(core.QueryOptions{SQL: "SELECT HostName, LoadLast1Min FROM Processor", Site: "repub-0", Region: []string{"s1", "s2", "s3"}})

// legOf sends watchedRegion through r to the republisher.
func legOf(t *testing.T, r *gma.Router) (*core.Response, error) {
	t.Helper()
	return r.RemoteQueryContext(context.Background(), "repub-0", watchedRegion)
}

// awaitLiveWatches waits, for at most two waits, until r has n live
// watches.
func awaitLiveWatches(t *testing.T, r *gma.Router, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * gma.VersionWait); r.Stats().LiveWatches != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d live watches after two waits, want %d", r.Stats().LiveWatches, n)
		}
	}
}

// requests is how many /query requests the republisher has answered: each
// one is a region query, a site query or a refusal, whatever rung.
func (f *revalFixture) requests() int64 {
	st := f.rp.Stats()
	return st.RegionQueries + st.SiteQueries + st.NotOwned
}

// TestWatchedLegSendsNoRequest: with its watch live, a hub that repeats a
// region leg over unchanged views sends no /query request, answers the
// republisher's own answer, and allocates at most maxWatchedLegAllocs a leg.
func TestWatchedLegSendsNoRequest(t *testing.T) {
	f := newRevalFixture(t)
	r := f.watched()
	first, err := legOf(t, r)
	if err != nil {
		t.Fatal(err)
	}
	awaitLiveWatches(t, r, 1)
	before := f.requests()
	var last *core.Response
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if last, err = legOf(t, r); err != nil {
			t.Fatal(err)
		}
	})
	sameAnswer(t, "watched leg", first, last)
	if n := f.requests() - before; n != 0 {
		t.Errorf("201 watched legs sent %d /query requests, want none", n)
	}
	if st := r.Stats(); st.WatchConfirmed < 201 || st.NotModified != 0 {
		t.Errorf("router stats = %+v, want every leg watch-confirmed", st)
	}
	sameAnswer(t, "watched leg against a re-fetch", f.fresh(watchedRegion), first)
	t.Logf("a watched leg: %.1f allocations", allocs)
	if !raceEnabled && allocs > maxWatchedLegAllocs {
		t.Errorf("a watched leg allocates %.1f times, budget %d", allocs, maxWatchedLegAllocs)
	}
}

// TestWatchedLegSeesEveryChange: while the hub holds the republisher's
// answer, a push, a snapshot, a removed site or a rebalance changes the
// republisher's views. The watch delivers the change within one wait, and
// from then on no leg returns the held answer: each is the one a re-fetch
// returns. A router with no watch answers the same legs down the 304
// ladder, as it always has.
func TestWatchedLegSeesEveryChange(t *testing.T) {
	f := newRevalFixture(t)
	r := f.watched()
	url := f.fleet.sources["s1"][0]
	for _, c := range []struct {
		name   string
		change func()
	}{
		{"push", func() {
			f.rp.store.Upsert("s1", glue.GroupProcessor, url, eqCols, []any{"s1-0-h0", "alpha", int64(2), 96.5}, time.Now())
		}},
		{"snapshot", func() {
			f.rp.store.SetSnapshot("s2", glue.GroupProcessor, procRows(t, [2]any{"s2-new", 9.0}), time.Now())
		}},
		{"removed site", func() { f.rp.store.RemoveSite("s3") }},
		{"rebalance", func() {
			f.rp.mu.Lock()
			f.rp.ownsGen++
			f.rp.mu.Unlock()
			f.rp.store.changes.Notify()
		}},
	} {
		held, err := legOf(t, r)
		if err != nil {
			t.Fatal(err)
		}
		awaitLiveWatches(t, r, 1)
		if resp, err := legOf(t, r); err != nil || r.Stats().LiveWatches != 1 {
			t.Fatalf("%s: before the change: %v", c.name, err)
		} else {
			sameAnswer(t, c.name+": before the change", held, resp)
		}
		c.change()
		changed := time.Now()
		want := f.fresh(watchedRegion)
		for {
			confirmed := r.Stats().WatchConfirmed
			resp, err := legOf(t, r)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if r.Stats().WatchConfirmed == confirmed { // the watch has delivered the change
				sameAnswer(t, c.name+": the first leg the watch did not confirm", want, resp)
				break
			}
			sameAnswer(t, c.name+": a leg before the delivery", held, resp)
			if time.Since(changed) > gma.VersionWait {
				t.Fatalf("%s: the change was not delivered within one wait", c.name)
			}
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < 20; i++ {
			resp, err := legOf(t, r)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, c.name+": a leg after the delivery", want, resp)
		}
	}

	plain := gma.NewRouter(f.dir, web.RemoteQueryContext, "s0", gma.Config{})
	defer plain.Close()
	for i := 0; i < 3; i++ {
		if _, err := plain.RemoteQueryContext(context.Background(), "repub-0", watchedRegion); err != nil {
			t.Fatal(err)
		}
	}
	if st := plain.Stats(); st.NotModified != 2 || st.WatchConfirmed != 0 || st.LiveWatches != 0 {
		t.Errorf("a router with no watch: %+v, want two 304s and nothing watched", st)
	}
}

// TestKilledRepublisherIsAskedAgain: once the republisher dies, the hub
// stops serving its held answers without a request well within two waits,
// and the next leg goes to the republisher and fails with it.
func TestKilledRepublisherIsAskedAgain(t *testing.T) {
	f := newRevalFixture(t)
	r := f.watched()
	if _, err := legOf(t, r); err != nil {
		t.Fatal(err)
	}
	awaitLiveWatches(t, r, 1)
	if _, err := legOf(t, r); err != nil || r.Stats().WatchConfirmed != 1 {
		t.Fatalf("watched leg: %v, %+v", err, r.Stats())
	}
	f.srv.CloseClientConnections() // the poll in flight is cut
	f.srv.Close()
	killed := time.Now()
	awaitLiveWatches(t, r, 0)
	if d := time.Since(killed); d > 2*gma.VersionWait {
		t.Errorf("the watch stayed live %v after the kill", d)
	}
	if resp, err := legOf(t, r); err == nil {
		t.Errorf("a leg to the killed republisher answered %+v", resp)
	}
	if n := r.Stats().WatchConfirmed; n != 1 {
		t.Errorf("%d legs watch-confirmed, want only the one before the kill", n)
	}
}

// TestVersionRoute: GET /repub/version answers at once with the token and no
// body, 304s the current token after the wait, answers a change within the
// wait, and refuses a bad wait.
func TestVersionRoute(t *testing.T) {
	f := newRevalFixture(t)
	ctx := context.Background()
	token, err := web.RemoteVersionContext(ctx, f.srv.URL, "", time.Minute)
	if err != nil || len(token) != tokenLen {
		t.Fatalf("first poll = %q, %v", token, err)
	}
	start := time.Now()
	if again, err := web.RemoteVersionContext(ctx, f.srv.URL, token, 50*time.Millisecond); err != nil || again != token || time.Since(start) < 50*time.Millisecond {
		t.Errorf("quiet poll = %q, %v after %v, want %q after the wait", again, err, time.Since(start), token)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		f.rp.store.RemoveSite("s3")
	}()
	start = time.Now()
	if next, err := web.RemoteVersionContext(ctx, f.srv.URL, token, time.Minute); err != nil || next == token || time.Since(start) > 10*time.Second {
		t.Errorf("poll across a change = %q, %v after %v", next, err, time.Since(start))
	}
	if polls := f.rp.Stats().VersionPolls; polls != 3 {
		t.Errorf("VersionPolls = %d, want 3", polls)
	}
	resp, err := http.Get(f.srv.URL + "/repub/version?wait=forever")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("a bad wait answered %s", resp.Status)
	}
}
