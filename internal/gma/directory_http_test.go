package gma

import (
	"bytes"
	"context"
	"net/http"
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

// FuzzRegistration feeds arbitrary bytes to POST /gma/register, the one
// decoder an unauthenticated peer reaches on the registry. Whatever arrives,
// the directory answers 204, 400 or 413; an accepted body leaves exactly one
// complete record, findable under its own name and stable when registered
// again, and a refused one leaves nothing.
func FuzzRegistration(f *testing.F) {
	for _, seed := range []string{
		`{"site":"V0","endpoint":"http://v0"}`,
		`{"name":"V1","endpoint":"http://v1"}`,
		`{"name":"repub-a","endpoint":"http://r","role":"republisher","owns":["A","B"],"generation":7}`,
		`{"name":"A","endpoint":"http://a","role":"warp"}`,
		`{"name":"A","endpoint":"http://a","registeredAt":"2003-06-01T10:30:00Z","groups":["Processor"]}`,
		`{"name":"A","endpoint":"http://a","generation":-1}`,
		`{}`, `null`, `[]`, `{not json`, ``,
	} {
		f.Add([]byte(seed))
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, body []byte) {
		d := NewDirectory(0, nil)
		post := func() int {
			rec := httptest.NewRecorder()
			d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/gma/register", bytes.NewReader(body)))
			return rec.Code
		}
		code := post()
		regs, err := d.ListContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		switch code {
		case http.StatusNoContent:
			if len(regs) != 1 {
				t.Fatalf("accepted %q, directory holds %d records", body, len(regs))
			}
			r := regs[0]
			if r.Name == "" || r.Endpoint == "" || !r.Role.valid() || r.Generation == 0 || r.RegisteredAt.IsZero() {
				t.Fatalf("accepted %q as incomplete record %+v", body, r)
			}
			if got, ok, _ := d.LookupContext(ctx, r.Name); !ok || got.Generation != r.Generation {
				t.Fatalf("record %+v not found under its own name (got %+v, %v)", r, got, ok)
			}
			if again := post(); again != http.StatusNoContent {
				t.Fatalf("re-registering %q -> %d", body, again)
			}
			if got, _, _ := d.LookupContext(ctx, r.Name); got.Generation != r.Generation {
				t.Fatalf("identical re-registration moved generation %d -> %d", r.Generation, got.Generation)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if len(regs) != 0 {
				t.Fatalf("refused %q (%d) but stored %+v", body, code, regs)
			}
		default:
			t.Fatalf("%q -> %d, want 204, 400 or 413", body, code)
		}
	})
}
