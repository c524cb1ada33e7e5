package gma

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/breaker"
	"gridrm/internal/core"
)

// countingDir wraps a flakyDir and counts Lookup traffic, so tests can
// assert the router's cache actually absorbed directory load.
type countingDir struct {
	*flakyDir
	lookups atomic.Int64
	sites   atomic.Int64
}

func newCountingDir() *countingDir { return &countingDir{flakyDir: newFlakyDir()} }

func (c *countingDir) LookupContext(ctx context.Context, site string) (Registration, bool, error) {
	c.lookups.Add(1)
	return c.flakyDir.LookupContext(ctx, site)
}

func (c *countingDir) SitesContext(ctx context.Context) ([]string, error) {
	c.sites.Add(1)
	return c.flakyDir.SitesContext(ctx)
}

func okExec(endpoint string, req core.QueryOptions) (*core.Response, error) {
	return &core.Response{Site: req.Site}, nil
}

func TestRouterLookupCache(t *testing.T) {
	dir := newCountingDir()
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b"})
	now := time.Unix(1000, 0)
	r := NewRouter(dir, func(_ context.Context, e string, q core.QueryOptions) (*core.Response, error) {
		return okExec(e, q)
	}, "A", Config{LookupTTL: 10 * time.Second, Clock: func() time.Time { return now }})

	for i := 0; i < 3; i++ {
		if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err != nil {
			t.Fatal(err)
		}
	}
	if n := dir.lookups.Load(); n != 1 {
		t.Errorf("directory lookups = %d, want 1 (cache must absorb repeats)", n)
	}
	if hits := r.Stats().LookupCacheHits; hits != 2 {
		t.Errorf("LookupCacheHits = %d, want 2", hits)
	}
	// Past the TTL the directory is consulted again.
	now = now.Add(11 * time.Second)
	if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err != nil {
		t.Fatal(err)
	}
	if n := dir.lookups.Load(); n != 2 {
		t.Errorf("directory lookups after TTL = %d, want 2", n)
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

	// Warm the lookup and sites caches.
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
		t.Errorf("StaleLookups = %d, want 2 (lookup + sites)", st.StaleLookups)
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
	// The site deregisters; a healthy directory's not-found is authoritative
	// and must evict the cached record, not serve it stale.
	_ = dir.Directory.DeregisterContext(context.Background(), "B")
	now = now.Add(time.Minute)
	if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err == nil {
		t.Fatal("deregistered site still routed")
	}
	// Even during a later outage the dropped entry stays gone.
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

func TestRouterGenerationChangeEvictsCachedLookup(t *testing.T) {
	dir := newCountingDir()
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b1"})
	now := time.Unix(1000, 0)
	var endpoints []string
	r := NewRouter(dir, func(_ context.Context, e string, q core.QueryOptions) (*core.Response, error) {
		endpoints = append(endpoints, e)
		return okExec(e, q)
	}, "A", Config{LookupTTL: 15 * time.Second, Clock: func() time.Time { return now }})

	// t=0: the registration list (and B's generation) is cached.
	if sites := r.Sites(); len(sites) != 1 {
		t.Fatalf("Sites = %v", sites)
	}
	// t=10: B's lookup is cached, fresh until t=25.
	if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err != nil {
		t.Fatal(err)
	}
	// B re-registers at a new endpoint: the directory bumps its
	// Generation.
	_ = dir.Directory.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b2"})
	// t=16: the registration list expires and is refetched; the changed
	// generation must evict B's still-fresh cached lookup.
	now = now.Add(16 * time.Second)
	_ = r.Sites()
	if n := r.Stats().GenerationEvictions; n != 1 {
		t.Fatalf("GenerationEvictions = %d, want 1", n)
	}
	if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B"}); err != nil {
		t.Fatal(err)
	}
	want := []string{"http://b1", "http://b2"}
	if len(endpoints) != 2 || endpoints[0] != want[0] || endpoints[1] != want[1] {
		t.Errorf("exec endpoints = %v, want %v (eviction must re-resolve before TTL)", endpoints, want)
	}
	if n := dir.lookups.Load(); n != 2 {
		t.Errorf("directory lookups = %d, want 2", n)
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
			// retry must consult the directory again, not the cache.
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
	if n := dir.lookups.Load(); n != 2 {
		t.Errorf("directory lookups = %d, want 2 (failure invalidates the cached lookup)", n)
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
	_ = r.Sites() // fetches the registration list, which builds the ring

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
