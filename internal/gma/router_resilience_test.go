package gma

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/breaker"
	"gridrm/internal/core"
)

// countingDir wraps a flakyDir and counts ListContext traffic, so tests
// can assert the router's copy of the directory actually absorbed
// directory load.
type countingDir struct {
	*flakyDir
	lists atomic.Int64
}

func newCountingDir() *countingDir { return &countingDir{flakyDir: newFlakyDir()} }

func (c *countingDir) ListContext(ctx context.Context) ([]Registration, error) {
	c.lists.Add(1)
	return c.flakyDir.ListContext(ctx)
}

func okExec(endpoint string, req core.QueryOptions) (*core.Response, error) {
	return &core.Response{Site: req.Site}, nil
}

// TestRouterLookupCache: one LookupTTL window of remote queries (site and
// republisher targets, direct and republisher-routed), Sites() and
// FanoutPlan costs exactly one directory read.
func TestRouterLookupCache(t *testing.T) {
	dir := newCountingDir()
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b"})
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "R", Endpoint: "http://r", Role: RoleRepublisher})
	now := time.Unix(1000, 0)
	r := NewRouter(dir, func(_ context.Context, e string, q core.QueryOptions) (*core.Response, error) {
		return okExec(e, q)
	}, "A", Config{LookupTTL: 10 * time.Second, Clock: func() time.Time { return now }})

	realTime := core.QueryOptions{Site: "B", Mode: core.ModeRealTime}
	for i := 0; i < 3; i++ {
		if _, err := r.RemoteQueryContext(context.Background(), "B", realTime); err != nil {
			t.Fatal(err)
		}
	}
	if hits := r.Stats().LookupCacheHits; hits != 2 {
		t.Errorf("LookupCacheHits = %d, want 2", hits)
	}
	// A republisher target, and a cached read routed via its owner: the
	// target and the owner each count a hit.
	if _, err := r.RemoteQueryContext(context.Background(), "R", core.QueryOptions{Site: "R"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err != nil {
		t.Fatal(err)
	}
	if sites := r.Sites(); len(sites) != 1 {
		t.Errorf("Sites = %v", sites)
	}
	if legs, err := r.FanoutPlan(context.Background()); err != nil || len(legs) != 1 || legs[0].Target != "R" {
		t.Errorf("FanoutPlan = %+v, %v", legs, err)
	}
	st := r.Stats()
	if n := dir.lists.Load(); n != 1 {
		t.Errorf("directory reads = %d, want 1 (one copy serves the window)", n)
	}
	if st.LookupCacheHits != 5 || st.RepubRoutes != 1 {
		t.Errorf("LookupCacheHits = %d, RepubRoutes = %d, want 5 and 1", st.LookupCacheHits, st.RepubRoutes)
	}
	// Past the TTL the directory is consulted again.
	now = now.Add(11 * time.Second)
	if _, err := r.RemoteQueryContext(context.Background(), "B", realTime); err != nil {
		t.Fatal(err)
	}
	if n := dir.lists.Load(); n != 2 {
		t.Errorf("directory reads after TTL = %d, want 2", n)
	}
}

func TestRouterStaleLookupSurvivesDirectoryOutage(t *testing.T) {
	dir := newCountingDir()
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b"})
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "A", Endpoint: "http://a"})
	now := time.Unix(1000, 0)
	r := NewRouter(dir, func(_ context.Context, e string, q core.QueryOptions) (*core.Response, error) {
		return okExec(e, q)
	}, "A", Config{LookupTTL: 10 * time.Second, Clock: func() time.Time { return now }})

	// Warm the router's copy of the directory.
	if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err != nil {
		t.Fatal(err)
	}
	if sites := r.Sites(); len(sites) != 1 || sites[0] != "B" {
		t.Fatalf("warm Sites = %v", sites)
	}

	// Full outage after the TTL: stale entries keep the Global layer alive.
	dir.setDown(true)
	now = now.Add(time.Minute)
	if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err != nil {
		t.Fatalf("query during directory outage: %v", err)
	}
	if sites := r.Sites(); len(sites) != 1 || sites[0] != "B" {
		t.Errorf("stale Sites = %v", sites)
	}
	if st := r.Stats(); st.StaleLookups != 2 {
		t.Errorf("StaleLookups = %d, want 2 (one per decision: query + sites)", st.StaleLookups)
	}
	// A site never seen before still fails — there is nothing to serve.
	if _, err := r.RemoteQueryContext(context.Background(), "C", core.QueryOptions{Site: "C"}); err == nil {
		t.Error("cold lookup succeeded during outage")
	}
}

func TestRouterAuthoritativeNotFoundDropsCache(t *testing.T) {
	dir := newCountingDir()
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b"})
	now := time.Unix(1000, 0)
	r := NewRouter(dir, func(_ context.Context, e string, q core.QueryOptions) (*core.Response, error) {
		return okExec(e, q)
	}, "A", Config{LookupTTL: 10 * time.Second, Clock: func() time.Time { return now }})
	if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err != nil {
		t.Fatal(err)
	}
	// The site deregisters; a healthy directory's fresh list is
	// authoritative and replaces the copy that held it.
	_ = dir.Directory.DeregisterContext(context.Background(), "B")
	now = now.Add(time.Minute)
	if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err == nil {
		t.Fatal("deregistered site still routed")
	}
	// Even during a later outage the dropped member stays gone.
	dir.setDown(true)
	if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err == nil {
		t.Error("evicted entry served stale")
	}
}

func TestRouterEndpointBreaker(t *testing.T) {
	dir := newCountingDir()
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b"})
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "C", Endpoint: "http://c"})
	now := time.Unix(1000, 0)
	var calls atomic.Int64
	r := NewRouter(dir, func(_ context.Context, e string, q core.QueryOptions) (*core.Response, error) {
		calls.Add(1)
		if e == "http://b" {
			return nil, fmt.Errorf("connection refused")
		}
		return okExec(e, q)
	}, "A", Config{
		LookupTTL: time.Minute,
		Breaker:   breaker.Options{Threshold: 2, Cooldown: 30 * time.Second},
		Clock:     func() time.Time { return now },
	})

	for i := 0; i < 2; i++ {
		if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err == nil {
			t.Fatal("query to dead endpoint succeeded")
		}
	}
	st := r.Stats()
	if st.RemoteBreakerOpens != 1 {
		t.Errorf("RemoteBreakerOpens = %d, want 1", st.RemoteBreakerOpens)
	}
	if got := r.EndpointBreakerState("http://b"); got != "open" {
		t.Errorf("breaker state = %q, want open", got)
	}

	// Open breaker: the next query fast-fails without touching the endpoint.
	before := calls.Load()
	_, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"})
	if err == nil || !strings.Contains(err.Error(), "circuit open") {
		t.Errorf("open-breaker error = %v", err)
	}
	if calls.Load() != before {
		t.Error("open breaker still called the endpoint")
	}
	if st := r.Stats(); st.RemoteBreakerSkipped != 1 {
		t.Errorf("RemoteBreakerSkipped = %d, want 1", st.RemoteBreakerSkipped)
	}

	// Breakers are per endpoint: site C is unaffected.
	if _, err := r.RemoteQueryContext(context.Background(), "C", core.QueryOptions{Site: "C"}); err != nil {
		t.Errorf("healthy endpoint tripped by its neighbour: %v", err)
	}

	// After the cooldown a half-open probe goes through and closes it.
	now = now.Add(31 * time.Second)
	if got := r.EndpointBreakerState("http://b"); got != "half-open" {
		t.Errorf("post-cooldown state = %q, want half-open", got)
	}
}

func TestRouterRetries(t *testing.T) {
	dir := newCountingDir()
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b"})
	var calls atomic.Int64
	r := NewRouter(dir, func(_ context.Context, e string, q core.QueryOptions) (*core.Response, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("transient")
		}
		return okExec(e, q)
	}, "A", Config{RetryAttempts: 2, RetryBackoff: time.Millisecond})
	if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err != nil {
		t.Fatalf("retry did not rescue the query: %v", err)
	}
	st := r.Stats()
	if st.RemoteRetries != 1 || st.RemoteFailures != 0 {
		t.Errorf("stats = %+v, want 1 retry and 0 failures", st)
	}

	// The wait is capped at core.MaxRetryBackoff however large the base
	// (the pre-internal/retry loop doubled without bound): one retry with
	// an hour-long base returns within the cap, jittered to [cap/2, cap].
	calls.Store(0)
	r = NewRouter(dir, func(_ context.Context, e string, q core.QueryOptions) (*core.Response, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("transient")
		}
		return okExec(e, q)
	}, "A", Config{RetryAttempts: 1, RetryBackoff: time.Hour})
	start := time.Now()
	if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err != nil {
		t.Fatalf("capped retry did not rescue the query: %v", err)
	}
	if took := time.Since(start); took < core.MaxRetryBackoff/2 || took > core.MaxRetryBackoff+time.Second {
		t.Errorf("retry waited %v, want within [%v, %v]", took, core.MaxRetryBackoff/2, core.MaxRetryBackoff)
	}
}

func TestRouterRetriesHonourContext(t *testing.T) {
	dir := newCountingDir()
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b"})
	r := NewRouter(dir, func(context.Context, string, core.QueryOptions) (*core.Response, error) {
		return nil, fmt.Errorf("always failing")
	}, "A", Config{RetryAttempts: 50, RetryBackoff: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := r.RemoteQueryContext(ctx, "B", core.QueryOptions{Site: "B"}); err == nil {
		t.Fatal("doomed query succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("retries outlived the context: %s", elapsed)
	}
	if r.Stats().RemoteRetries >= 50 {
		t.Error("all retries ran despite the deadline")
	}
}

// TestRouterUsesReRegisteredEndpointAfterReList: a member re-registered
// at a new endpoint is routed there once the router lists the directory
// again, and not before.
func TestRouterUsesReRegisteredEndpointAfterReList(t *testing.T) {
	dir := newCountingDir()
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b1"})
	now := time.Unix(1000, 0)
	var endpoints []string
	r := NewRouter(dir, func(_ context.Context, e string, q core.QueryOptions) (*core.Response, error) {
		endpoints = append(endpoints, e)
		return okExec(e, q)
	}, "A", Config{LookupTTL: 15 * time.Second, Clock: func() time.Time { return now }})

	// t=0: the router lists the directory.
	if sites := r.Sites(); len(sites) != 1 {
		t.Fatalf("Sites = %v", sites)
	}
	if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err != nil {
		t.Fatal(err)
	}
	// B re-registers at a new endpoint; the copy is still fresh at t=10.
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b2"})
	now = now.Add(10 * time.Second)
	if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err != nil {
		t.Fatal(err)
	}
	// t=16: the copy expires, and the next decision lists the directory.
	now = now.Add(6 * time.Second)
	if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err != nil {
		t.Fatal(err)
	}
	want := []string{"http://b1", "http://b1", "http://b2"}
	if !slices.Equal(endpoints, want) {
		t.Errorf("exec endpoints = %v, want %v (the re-list must pick up the new endpoint)", endpoints, want)
	}
	if n := dir.lists.Load(); n != 2 {
		t.Errorf("directory reads = %d, want 2", n)
	}
}

func TestRouterFailedAttemptReResolvesBeforeRetry(t *testing.T) {
	dir := newCountingDir()
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://dead"})
	var calls atomic.Int64
	r := NewRouter(dir, func(_ context.Context, e string, q core.QueryOptions) (*core.Response, error) {
		calls.Add(1)
		if e == "http://dead" {
			// The site moves while the first attempt is failing: the
			// retry must list the directory again, not reuse its copy.
			_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://alive"})
			return nil, fmt.Errorf("connection refused")
		}
		return okExec(e, q)
	}, "A", Config{LookupTTL: time.Minute, RetryAttempts: 1, RetryBackoff: time.Millisecond})

	resp, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"})
	if err != nil || resp == nil {
		t.Fatalf("query after re-registration = %v, %v", resp, err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("exec calls = %d, want 2 (fail on dead, succeed on alive)", n)
	}
	if n := dir.lists.Load(); n != 2 {
		t.Errorf("directory reads = %d, want 2 (failure expires the copy)", n)
	}
	if st := r.Stats(); st.RemoteRetries != 1 {
		t.Errorf("RemoteRetries = %d, want 1", st.RemoteRetries)
	}
}

func TestRouterRepublisherFirstWithFallthrough(t *testing.T) {
	dir := newCountingDir()
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://site-b"})
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "R", Endpoint: "http://repub-r", Role: RoleRepublisher})
	var repubDown atomic.Bool
	r := NewRouter(dir, func(_ context.Context, e string, q core.QueryOptions) (*core.Response, error) {
		if e == "http://repub-r" {
			if repubDown.Load() {
				return nil, fmt.Errorf("republisher down")
			}
			return &core.Response{Site: "R"}, nil
		}
		return &core.Response{Site: q.Site}, nil
	}, "A", Config{LookupTTL: time.Minute})

	// Cached site reads route to the owning republisher.
	resp, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"})
	if err != nil || resp.Site != "R" {
		t.Fatalf("cached read = %v, %v, want republisher answer", resp, err)
	}
	// Real-time reads always go to the site itself.
	resp, err = r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B", Mode: core.ModeRealTime})
	if err != nil || resp.Site != "B" {
		t.Fatalf("real-time read = %v, %v, want direct answer", resp, err)
	}
	// A dead republisher falls through to the site with zero caller-visible
	// errors.
	repubDown.Store(true)
	resp, err = r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"})
	if err != nil || resp.Site != "B" {
		t.Fatalf("fall-through read = %v, %v", resp, err)
	}
	st := r.Stats()
	if st.RepubRoutes != 2 || st.RepubFallthroughs != 1 {
		t.Errorf("RepubRoutes = %d, RepubFallthroughs = %d, want 2 and 1", st.RepubRoutes, st.RepubFallthroughs)
	}
}

// TestRouterReListsForANameItsCopyLacks: a member that registered after
// the router listed the directory is routable at once, at the cost of one
// more list; a name the fresh list lacks is refused.
func TestRouterReListsForANameItsCopyLacks(t *testing.T) {
	dir := newCountingDir()
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b"})
	r := NewRouter(dir, func(_ context.Context, e string, q core.QueryOptions) (*core.Response, error) {
		return okExec(e, q)
	}, "A", Config{LookupTTL: time.Minute})
	if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err != nil {
		t.Fatal(err)
	}
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "C", Endpoint: "http://c"})
	for i := 0; i < 2; i++ {
		if _, err := r.RemoteQueryContext(context.Background(), "C", core.QueryOptions{Site: "C"}); err != nil {
			t.Fatalf("query %d to a member that joined after the list: %v", i, err)
		}
	}
	if n := dir.lists.Load(); n != 2 {
		t.Errorf("directory reads = %d, want 2 (one list for the joiner, then the copy)", n)
	}
	if _, err := r.RemoteQueryContext(context.Background(), "D", core.QueryOptions{Site: "D"}); err == nil {
		t.Error("unregistered member routed")
	}
	if n := dir.lists.Load(); n != 3 {
		t.Errorf("directory reads after an unknown name = %d, want 3", n)
	}
}

// TestRouterConcurrentDecisions: queries, Sites and FanoutPlan from many
// goroutines, while failures expire the copy and members join and leave,
// share the router's one copy of the directory without a race, and a
// member registered throughout is always routable.
func TestRouterConcurrentDecisions(t *testing.T) {
	dir := newCountingDir()
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b"})
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "R", Endpoint: "http://r", Role: RoleRepublisher})
	var calls atomic.Int64
	r := NewRouter(dir, func(_ context.Context, e string, q core.QueryOptions) (*core.Response, error) {
		// Every other republisher call fails and expires the copy; the
		// query falls through to B.
		if e == "http://r" && calls.Add(1)%2 == 0 {
			return nil, fmt.Errorf("transient")
		}
		return okExec(e, q)
	}, "A", Config{LookupTTL: time.Millisecond, Breaker: breaker.Options{Threshold: -1}})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("C%d", g)
			for i := 0; i < 100; i++ {
				switch i % 4 {
				case 0:
					_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: name, Endpoint: "http://" + name})
				case 1:
					_ = dir.Directory.DeregisterContext(context.Background(), name)
				case 2:
					_ = r.Sites()
					if _, err := r.FanoutPlan(context.Background()); err != nil {
						t.Errorf("FanoutPlan: %v", err)
					}
				}
				if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err != nil {
					t.Errorf("query to B: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
}
