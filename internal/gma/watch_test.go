package gma

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// watchImpls builds each DirectoryService over a fresh directory: the
// in-process one, the HTTP client's long poll and a two-replica
// MultiDirectory. Members are changed through the same service.
var watchImpls = []struct {
	name string
	new  func(t *testing.T) DirectoryService
}{
	{"directory", func(t *testing.T) DirectoryService { return NewDirectory(0, nil) }},
	{"client", func(t *testing.T) DirectoryService {
		srv := httptest.NewServer(NewDirectory(0, nil).Handler())
		t.Cleanup(srv.Close)
		return &DirectoryClient{BaseURL: srv.URL, Timeout: 20 * time.Second}
	}},
	{"multi", func(t *testing.T) DirectoryService { return NewMultiDirectory(newFlakyDir(), newFlakyDir()) }},
}

// A long wait is one no watch in these tests reaches unless it misses a
// change; a short one is one a watch that ignores a change must sit out.
const (
	longWait  = 5 * time.Second
	shortWait = 300 * time.Millisecond
)

// watchFixture registers site A and republisher R and returns the
// membership's digest.
func watchFixture(t *testing.T, svc DirectoryService) string {
	t.Helper()
	ctx := context.Background()
	for _, r := range []Registration{
		{Name: "A", Endpoint: "http://a", Groups: []string{"Processor"}},
		{Name: "R", Endpoint: "http://r", Role: RoleRepublisher, Owns: []string{"A"}},
	} {
		if err := svc.RegisterContext(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	regs, err := svc.ListContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return Digest(regs)
}

type watchResult struct {
	regs    []Registration
	err     error
	elapsed time.Duration
}

// watchAsync starts a watch and returns where its answer lands.
func watchAsync(ctx context.Context, svc DirectoryService, digest string, wait time.Duration) <-chan watchResult {
	out := make(chan watchResult, 1)
	start := time.Now()
	go func() {
		regs, err := svc.WatchContext(ctx, digest, wait)
		out <- watchResult{regs, err, time.Since(start)}
	}()
	return out
}

func TestWatchReturnsOnMembershipChange(t *testing.T) {
	changes := []struct {
		name   string
		change func(context.Context, DirectoryService) error
		wakes  bool
	}{
		{"join", func(ctx context.Context, d DirectoryService) error {
			return d.RegisterContext(ctx, Registration{Name: "B", Endpoint: "http://b"})
		}, true},
		{"endpoint", func(ctx context.Context, d DirectoryService) error {
			return d.RegisterContext(ctx, Registration{Name: "A", Endpoint: "http://a2", Groups: []string{"Processor"}})
		}, true},
		{"role", func(ctx context.Context, d DirectoryService) error {
			return d.RegisterContext(ctx, Registration{Name: "A", Endpoint: "http://a", Role: RoleEntry, Groups: []string{"Processor"}})
		}, true},
		{"groups", func(ctx context.Context, d DirectoryService) error {
			return d.RegisterContext(ctx, Registration{Name: "A", Endpoint: "http://a", Groups: []string{"Processor", "Memory"}})
		}, true},
		{"deregister", func(ctx context.Context, d DirectoryService) error { return d.DeregisterContext(ctx, "A") }, true},
		{"heartbeat", func(ctx context.Context, d DirectoryService) error {
			return d.RegisterContext(ctx, Registration{Name: "A", Endpoint: "http://a", Groups: []string{"Processor"}})
		}, false},
		{"owns", func(ctx context.Context, d DirectoryService) error {
			return d.RegisterContext(ctx, Registration{Name: "R", Endpoint: "http://r", Role: RoleRepublisher, Owns: []string{}})
		}, false},
	}
	for _, impl := range watchImpls {
		for _, c := range changes {
			t.Run(impl.name+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				svc := impl.new(t)
				digest := watchFixture(t, svc)
				wait := longWait
				if !c.wakes {
					wait = shortWait
				}
				got := watchAsync(context.Background(), svc, digest, wait)
				time.Sleep(20 * time.Millisecond) // let the watch block; a later start sees a stale digest
				if err := c.change(context.Background(), svc); err != nil {
					t.Fatal(err)
				}
				r := <-got
				if r.err != nil {
					t.Fatal(r.err)
				}
				changed := Digest(r.regs) != digest
				switch {
				case c.wakes && (!changed || r.elapsed >= longWait/2):
					t.Fatalf("returned after %v with digest changed=%v, want an early return on the change", r.elapsed, changed)
				case !c.wakes && (changed || r.elapsed < shortWait-50*time.Millisecond):
					t.Fatalf("returned after %v with digest changed=%v, want the same membership at the wait", r.elapsed, changed)
				}
			})
		}
	}
}

func TestWatchReturnsAtOnceOnStaleDigest(t *testing.T) {
	for _, impl := range watchImpls {
		t.Run(impl.name, func(t *testing.T) {
			svc := impl.new(t)
			digest := watchFixture(t, svc)
			r := <-watchAsync(context.Background(), svc, "stale", longWait)
			if r.err != nil || r.elapsed >= longWait/2 || Digest(r.regs) != digest {
				t.Fatalf("stale watch = %d records, %v after %v; want the current list at once", len(r.regs), r.err, r.elapsed)
			}
		})
	}
}

func TestWatchReturnsTheListAtWait(t *testing.T) {
	for _, impl := range watchImpls {
		t.Run(impl.name, func(t *testing.T) {
			svc := impl.new(t)
			digest := watchFixture(t, svc)
			r := <-watchAsync(context.Background(), svc, digest, shortWait)
			if r.err != nil || r.elapsed < shortWait-50*time.Millisecond || len(r.regs) != 2 || Digest(r.regs) != digest {
				t.Fatalf("unchanged watch = %d records, %v after %v; want both records at %v", len(r.regs), r.err, r.elapsed, shortWait)
			}
		})
	}
}

func TestWatchEndsWithItsContext(t *testing.T) {
	for _, impl := range watchImpls {
		t.Run(impl.name, func(t *testing.T) {
			svc := impl.new(t)
			digest := watchFixture(t, svc)
			ctx, cancel := context.WithCancel(context.Background())
			got := watchAsync(ctx, svc, digest, longWait)
			time.Sleep(20 * time.Millisecond)
			cancel()
			r := <-got
			if !errors.Is(r.err, context.Canceled) || r.elapsed >= longWait/2 {
				t.Fatalf("cancelled watch = %v after %v, want context.Canceled at once", r.err, r.elapsed)
			}
		})
	}
}

func TestMultiDirectoryWatchFailsOver(t *testing.T) {
	d1, d2 := newFlakyDir(), newFlakyDir()
	md := NewMultiDirectory(d1, d2)
	digest := watchFixture(t, md)
	d1.setDown(true)
	r := <-watchAsync(context.Background(), md, "stale", longWait)
	if r.err != nil || Digest(r.regs) != digest {
		t.Fatalf("watch with replica-0 down = %v, %v; want replica-1's list", r.regs, r.err)
	}
	if h := md.ReplicaHealth(); h[0].Healthy || !h[1].Healthy {
		t.Fatalf("health = %+v, want replica-0 failing and replica-1 healthy", h)
	}
	// The watch now rests on replica-1: a join wakes it.
	got := watchAsync(context.Background(), md, digest, longWait)
	time.Sleep(20 * time.Millisecond)
	if err := md.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b"}); err != nil {
		t.Fatal(err)
	}
	if r := <-got; r.err != nil || r.elapsed >= longWait/2 || len(r.regs) != 3 {
		t.Fatalf("watch on replica-1 = %d records, %v after %v; want the join at once", len(r.regs), r.err, r.elapsed)
	}
	// A cancelled watch is the caller's doing, not the replica's.
	ctx, cancel := context.WithCancel(context.Background())
	got = watchAsync(ctx, md, Digest(mustList(t, md)), longWait)
	time.Sleep(20 * time.Millisecond)
	cancel()
	<-got
	if h := md.ReplicaHealth(); !h[1].Healthy {
		t.Fatalf("a cancelled watch marked replica-1 failing: %+v", h[1])
	}
}

func mustList(t *testing.T, d DirectoryService) []Registration {
	t.Helper()
	regs, err := d.ListContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return regs
}

func TestClientWaitStaysUnderHalfItsTimeout(t *testing.T) {
	srv := httptest.NewServer(NewDirectory(0, nil).Handler())
	defer srv.Close()
	c := &DirectoryClient{BaseURL: srv.URL, Timeout: 400 * time.Millisecond}
	digest := watchFixture(t, c)
	r := <-watchAsync(context.Background(), c, digest, longWait)
	if r.err != nil || r.elapsed >= 400*time.Millisecond {
		t.Fatalf("watch = %v after %v, want the list at about 200ms, before the client's timeout", r.err, r.elapsed)
	}
}

func TestRegistrationsRouteWaitParameter(t *testing.T) {
	d := NewDirectory(0, nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	for _, c := range []struct {
		query string
		want  int
	}{
		{"", http.StatusOK},                    // a bare list, at once
		{"?digest=x&wait=10ms", http.StatusOK}, // a watch
		{"?wait=soon", http.StatusBadRequest},
		{"?wait=-1s", http.StatusBadRequest},
	} {
		resp, err := http.Get(srv.URL + "/gma/registrations" + c.query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("GET /gma/registrations%s = %d, want %d", c.query, resp.StatusCode, c.want)
		}
	}
}
