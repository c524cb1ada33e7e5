package gma

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"
)

// TestDirectoryClientEscaping: site names with URL metacharacters must
// round-trip through lookup and deregister — pre-fix, an unescaped site like
// "A&B" leaked into the query string and matched nothing.
func TestDirectoryClientEscaping(t *testing.T) {
	d := NewDirectory(0, nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	c := &DirectoryClient{BaseURL: srv.URL}

	for _, site := range []string{"site A", "a&b=c", "x/y?z", "ü-site"} {
		if err := c.RegisterContext(context.Background(), Registration{Name: site, Endpoint: "http://e"}); err != nil {
			t.Fatalf("register %q: %v", site, err)
		}
		p, ok, err := c.LookupContext(context.Background(), site)
		if err != nil || !ok || p.Name != site {
			t.Errorf("lookup %q = %+v, %v, %v", site, p, ok, err)
		}
		if err := c.DeregisterContext(context.Background(), site); err != nil {
			t.Errorf("deregister %q: %v", site, err)
		}
		if _, ok, _ := c.LookupContext(context.Background(), site); ok {
			t.Errorf("%q still registered after deregister", site)
		}
	}
}

// TestDirectoryHTTPTTLExpiry exercises record expiry through the HTTP
// handler, not just the in-process API: an expired record must 404 on
// lookup and vanish from the sites list.
func TestDirectoryHTTPTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	d := NewDirectory(10*time.Second, func() time.Time { return now })
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	c := &DirectoryClient{BaseURL: srv.URL}

	if err := c.RegisterContext(context.Background(), Registration{Name: "A", Endpoint: "http://a"}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.LookupContext(context.Background(), "A"); err != nil || !ok {
		t.Fatalf("fresh lookup = %v, %v", ok, err)
	}
	now = now.Add(11 * time.Second)
	if _, ok, err := c.LookupContext(context.Background(), "A"); err != nil || ok {
		t.Errorf("expired lookup = %v, %v, want not-found without error", ok, err)
	}
	sites, err := c.SitesContext(context.Background())
	if err != nil || len(sites) != 0 {
		t.Errorf("expired Sites = %v, %v", sites, err)
	}
	// Refreshing the registration revives it over HTTP too.
	if err := c.RegisterContext(context.Background(), Registration{Name: "A", Endpoint: "http://a"}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.LookupContext(context.Background(), "A"); !ok {
		t.Error("refreshed record missing")
	}
}

// TestDirectoryPrune: Prune removes exactly the expired records and leaves
// live ones lookupable.
func TestDirectoryPrune(t *testing.T) {
	now := time.Unix(1000, 0)
	d := NewDirectory(10*time.Second, func() time.Time { return now })
	_ = d.RegisterContext(context.Background(), Registration{Name: "old", Endpoint: "http://old"})
	now = now.Add(8 * time.Second)
	_ = d.RegisterContext(context.Background(), Registration{Name: "new", Endpoint: "http://new"})
	now = now.Add(4 * time.Second) // "old" is 12s old, "new" 4s

	if n := d.Prune(); n != 1 {
		t.Errorf("Prune = %d, want 1", n)
	}
	if _, ok, _ := d.LookupContext(context.Background(), "old"); ok {
		t.Error("pruned record still found")
	}
	if _, ok, _ := d.LookupContext(context.Background(), "new"); !ok {
		t.Error("live record pruned")
	}
	if n := d.Prune(); n != 0 {
		t.Errorf("second Prune = %d, want 0", n)
	}
	// A TTL of zero means no expiry: nothing is ever pruned.
	forever := NewDirectory(0, nil)
	_ = forever.RegisterContext(context.Background(), Registration{Name: "A", Endpoint: "http://a"})
	if n := forever.Prune(); n != 0 {
		t.Errorf("Prune with no TTL = %d, want 0", n)
	}
}
