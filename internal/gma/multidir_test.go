package gma

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// flakyDir wraps an in-process Directory with a switchable failure mode, so
// tests can simulate a replica outage.
type flakyDir struct {
	*Directory
	mu   sync.Mutex
	down bool
}

func newFlakyDir() *flakyDir { return &flakyDir{Directory: NewDirectory(0, nil)} }

func (f *flakyDir) setDown(down bool) {
	f.mu.Lock()
	f.down = down
	f.mu.Unlock()
}

func (f *flakyDir) err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return fmt.Errorf("replica down")
	}
	return nil
}

func (f *flakyDir) RegisterContext(ctx context.Context, p Registration) error {
	if err := f.err(); err != nil {
		return err
	}
	return f.Directory.RegisterContext(ctx, p)
}

func (f *flakyDir) DeregisterContext(ctx context.Context, site string) error {
	if err := f.err(); err != nil {
		return err
	}
	return f.Directory.DeregisterContext(ctx, site)
}

func (f *flakyDir) LookupContext(ctx context.Context, site string) (Registration, bool, error) {
	if err := f.err(); err != nil {
		return Registration{}, false, err
	}
	return f.Directory.LookupContext(ctx, site)
}

func (f *flakyDir) SitesContext(ctx context.Context) ([]string, error) {
	if err := f.err(); err != nil {
		return nil, err
	}
	return f.Directory.SitesContext(ctx)
}

func (f *flakyDir) ListContext(ctx context.Context) ([]Registration, error) {
	if err := f.err(); err != nil {
		return nil, err
	}
	return f.Directory.ListContext(ctx)
}

func TestMultiDirectoryRegisterFansOut(t *testing.T) {
	d1, d2 := newFlakyDir(), newFlakyDir()
	md := NewMultiDirectory(d1, d2)
	if err := md.RegisterContext(context.Background(), Registration{Name: "A", Endpoint: "http://a"}); err != nil {
		t.Fatal(err)
	}
	for i, d := range []*flakyDir{d1, d2} {
		if _, ok, _ := d.Directory.LookupContext(context.Background(), "A"); !ok {
			t.Errorf("replica %d missing the registration", i)
		}
	}
}

func TestMultiDirectoryRegisterPartialOutage(t *testing.T) {
	d1, d2 := newFlakyDir(), newFlakyDir()
	d1.setDown(true)
	md := NewMultiDirectory(d1, d2)
	if err := md.RegisterContext(context.Background(), Registration{Name: "A", Endpoint: "http://a"}); err != nil {
		t.Fatalf("register with one live replica: %v", err)
	}
	d2.setDown(true)
	err := md.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b"})
	if err == nil || !strings.Contains(err.Error(), "every replica") {
		t.Errorf("register with all replicas down = %v", err)
	}
}

func TestMultiDirectoryLookupFailsOver(t *testing.T) {
	d1, d2 := newFlakyDir(), newFlakyDir()
	md := NewMultiDirectory(d1, d2)
	if err := md.RegisterContext(context.Background(), Registration{Name: "A", Endpoint: "http://a"}); err != nil {
		t.Fatal(err)
	}
	d1.setDown(true)
	p, ok, err := md.LookupContext(context.Background(), "A")
	if err != nil || !ok || p.Endpoint != "http://a" {
		t.Fatalf("failover lookup = %+v, %v, %v", p, ok, err)
	}
	// A replica that answers "not found" does not end the search: drop the
	// record from d2 only, revive d1, and the search must continue to d1.
	d1.setDown(false)
	_ = d2.Directory.DeregisterContext(context.Background(), "A")
	if _, ok, err := md.LookupContext(context.Background(), "A"); err != nil || !ok {
		t.Errorf("lookup past a not-found replica = %v, %v", ok, err)
	}
	d1.setDown(true)
	d2.setDown(true)
	if _, _, err := md.LookupContext(context.Background(), "A"); err == nil {
		t.Error("lookup with all replicas down succeeded")
	}
}

func TestMultiDirectoryHealthRanking(t *testing.T) {
	d1, d2 := newFlakyDir(), newFlakyDir()
	md := NewMultiDirectory(d1, d2)
	_ = md.RegisterContext(context.Background(), Registration{Name: "A", Endpoint: "http://a"})
	d1.setDown(true)
	// First lookup hits d1 (fails, failover to d2); after that d2 ranks
	// first and d1 is no longer consulted, so its failure count stays put.
	for i := 0; i < 3; i++ {
		if _, ok, err := md.LookupContext(context.Background(), "A"); err != nil || !ok {
			t.Fatalf("lookup %d: %v, %v", i, ok, err)
		}
	}
	hs := md.ReplicaHealth()
	if len(hs) != 2 {
		t.Fatalf("health entries = %d", len(hs))
	}
	if hs[0].Healthy || hs[0].ConsecutiveFailures != 1 || hs[0].LastError == "" {
		t.Errorf("failing replica health = %+v", hs[0])
	}
	if !hs[1].Healthy || hs[1].LastOK.IsZero() {
		t.Errorf("healthy replica health = %+v", hs[1])
	}
	// The healthy replica is now ranked first.
	if ranked := md.ranked(); ranked[0].name != "replica-1" {
		t.Errorf("ranked first = %s, want replica-1", ranked[0].name)
	}
	// Recovery resets the failure count.
	d1.setDown(false)
	_, _, _ = md.LookupContext(context.Background(), "A")
	// d2 is tried first now; make it fail once so d1 gets exercised too.
	d2.setDown(true)
	_, _, _ = md.LookupContext(context.Background(), "A")
	if hs := md.ReplicaHealth(); !hs[0].Healthy {
		t.Errorf("recovered replica still unhealthy: %+v", hs[0])
	}
}

func TestMultiDirectorySitesFailsOver(t *testing.T) {
	d1, d2 := newFlakyDir(), newFlakyDir()
	md := NewMultiDirectory(d1, d2)
	_ = md.RegisterContext(context.Background(), Registration{Name: "A", Endpoint: "http://a"})
	d1.setDown(true)
	sites, err := md.SitesContext(context.Background())
	if err != nil || len(sites) != 1 || sites[0] != "A" {
		t.Errorf("failover Sites = %v, %v", sites, err)
	}
	d2.setDown(true)
	if _, err := md.SitesContext(context.Background()); err == nil {
		t.Error("Sites with all replicas down succeeded")
	}

	// A replica that accepts the connection and then never answers must
	// not hold SitesContext past the caller's context.
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hung.Close()
	defer close(release)
	md = NewMultiDirectory(&DirectoryClient{BaseURL: hung.URL, Timeout: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := md.SitesContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Sites against a hung replica = %v, want the context's deadline", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("hung replica held SitesContext for %v", took)
	}
}

func TestMultiDirectoryDeregisterFansOut(t *testing.T) {
	d1, d2 := newFlakyDir(), newFlakyDir()
	md := NewMultiDirectory(d1, d2)
	_ = md.RegisterContext(context.Background(), Registration{Name: "A", Endpoint: "http://a"})
	if err := md.DeregisterContext(context.Background(), "A"); err != nil {
		t.Fatal(err)
	}
	for i, d := range []*flakyDir{d1, d2} {
		if _, ok, _ := d.Directory.LookupContext(context.Background(), "A"); ok {
			t.Errorf("replica %d still holds the record", i)
		}
	}
}

func TestMultiDirectoryNeedsReplicas(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty MultiDirectory did not panic")
		}
	}()
	NewMultiDirectory()
}
