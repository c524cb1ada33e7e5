package gma

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridrm/internal/core"
)

func TestDirectoryRegisterLookup(t *testing.T) {
	d := NewDirectory(0, nil)
	if err := d.RegisterContext(context.Background(), Registration{Name: "A", Endpoint: "http://a"}); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterContext(context.Background(), Registration{}); err == nil {
		t.Error("empty producer accepted")
	}
	p, ok, err := d.LookupContext(context.Background(), "A")
	if err != nil || !ok || p.Endpoint != "http://a" {
		t.Errorf("Lookup = %+v, %v, %v", p, ok, err)
	}
	if p.RegisteredAt.IsZero() {
		t.Error("RegisteredAt not stamped")
	}
	if _, ok, _ := d.LookupContext(context.Background(), "B"); ok {
		t.Error("unknown site found")
	}
	regs, _ := d.ListContext(context.Background())
	if len(regs) != 1 || regs[0].Name != "A" {
		t.Errorf("List = %v", regs)
	}
	if err := d.DeregisterContext(context.Background(), "A"); err != nil {
		t.Fatal(err)
	}
	if err := d.DeregisterContext(context.Background(), "A"); err == nil {
		t.Error("double deregister accepted")
	}
}

func TestDirectoryTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	d := NewDirectory(10*time.Second, func() time.Time { return now })
	_ = d.RegisterContext(context.Background(), Registration{Name: "A", Endpoint: "http://a"})
	now = now.Add(5 * time.Second)
	if _, ok, _ := d.LookupContext(context.Background(), "A"); !ok {
		t.Error("fresh record expired")
	}
	now = now.Add(6 * time.Second)
	if _, ok, _ := d.LookupContext(context.Background(), "A"); ok {
		t.Error("stale record returned")
	}
	if regs, _ := d.ListContext(context.Background()); len(regs) != 0 {
		t.Errorf("stale registrations = %v", regs)
	}
	// Re-registration refreshes.
	_ = d.RegisterContext(context.Background(), Registration{Name: "A", Endpoint: "http://a"})
	if _, ok, _ := d.LookupContext(context.Background(), "A"); !ok {
		t.Error("re-registered record missing")
	}
}

func TestDirectoryListSorted(t *testing.T) {
	d := NewDirectory(0, nil)
	_ = d.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b"})
	_ = d.RegisterContext(context.Background(), Registration{Name: "A", Endpoint: "http://a"})
	regs, err := d.ListContext(context.Background())
	if err != nil || len(regs) != 2 || regs[0].Name != "A" || regs[1].Name != "B" {
		t.Errorf("registrations = %v, %v", regs, err)
	}
}

func TestDirectoryHTTP(t *testing.T) {
	d := NewDirectory(0, nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	c := &DirectoryClient{BaseURL: srv.URL}
	if err := c.RegisterContext(context.Background(), Registration{Name: "A", Endpoint: "http://a", Groups: []string{"Processor"}}); err != nil {
		t.Fatal(err)
	}
	p, ok, err := c.LookupContext(context.Background(), "A")
	if err != nil || !ok || p.Endpoint != "http://a" || len(p.Groups) != 1 {
		t.Errorf("Lookup = %+v, %v, %v", p, ok, err)
	}
	if _, ok, err := c.LookupContext(context.Background(), "nope"); err != nil || ok {
		t.Errorf("missing lookup = %v, %v", ok, err)
	}
	regs, err := c.ListContext(context.Background())
	if err != nil || len(regs) != 1 {
		t.Errorf("List = %v, %v", regs, err)
	}
	if err := c.DeregisterContext(context.Background(), "A"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeregisterContext(context.Background(), "A"); err == nil {
		t.Error("double deregister over HTTP accepted")
	}
	if err := c.RegisterContext(context.Background(), Registration{}); err == nil {
		t.Error("bad register over HTTP accepted")
	}

	// The wire form, in raw JSON: one name key, an explicit role; a body
	// that carries the name under the retired "site" key is nameless.
	resp, err := http.Post(srv.URL+"/gma/register", "application/json",
		strings.NewReader(`{"site":"V0","endpoint":"http://v0"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("site-only register status = %s, want 400", resp.Status)
	}
	if _, ok, err := c.LookupContext(context.Background(), "V0"); err != nil || ok {
		t.Errorf("nameless record registered: %v, %v", ok, err)
	}
	resp, err = http.Post(srv.URL+"/gma/register", "application/json",
		strings.NewReader(`{"name":"V1","endpoint":"http://v1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("role-less register status = %s", resp.Status)
	}
	resp, err = http.Get(srv.URL + "/gma/lookup?site=V1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, dup := raw["site"]; dup || raw["name"] != "V1" || raw["role"] != "site" || raw["endpoint"] != "http://v1" {
		t.Errorf("wire form = %v, want name, endpoint and the defaulted role, no site key", raw)
	}
}

func TestDirectoryClientConnectionErrors(t *testing.T) {
	c := &DirectoryClient{BaseURL: "http://127.0.0.1:1"}
	if err := c.RegisterContext(context.Background(), Registration{Name: "A", Endpoint: "x"}); err == nil {
		t.Error("register to dead directory succeeded")
	}
	if _, _, err := c.LookupContext(context.Background(), "A"); err == nil {
		t.Error("lookup to dead directory succeeded")
	}
	if _, err := c.ListContext(context.Background()); err == nil {
		t.Error("list to dead directory succeeded")
	}
}

func TestRegistrarLifecycle(t *testing.T) {
	d := NewDirectory(0, nil)
	r := NewRegistrar(d, Registration{Name: "A", Endpoint: "http://a"}, 10*time.Millisecond)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := d.LookupContext(context.Background(), "A"); !ok {
		t.Fatal("not registered after Start")
	}
	first, _, _ := d.LookupContext(context.Background(), "A")
	deadline := time.Now().Add(2 * time.Second)
	refreshed := false
	for time.Now().Before(deadline) {
		p, _, _ := d.LookupContext(context.Background(), "A")
		if p.RegisteredAt.After(first.RegisteredAt) {
			refreshed = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !refreshed {
		t.Error("record never refreshed")
	}
	r.Stop()
	if _, ok, _ := d.LookupContext(context.Background(), "A"); ok {
		t.Error("still registered after Stop")
	}
	r.Stop() // idempotent
}

func TestRegistrarStartFailure(t *testing.T) {
	d := NewDirectory(0, nil)
	r := NewRegistrar(d, Registration{}, time.Second)
	if err := r.Start(); err == nil {
		t.Error("start with bad info succeeded")
	}
}

func TestRouter(t *testing.T) {
	d := NewDirectory(0, nil)
	_ = d.RegisterContext(context.Background(), Registration{Name: "A", Endpoint: "http://a"})
	_ = d.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b"})
	_ = d.RegisterContext(context.Background(), Registration{Name: "R", Endpoint: "http://r", Role: RoleRepublisher})
	if err := d.RegisterContext(context.Background(), Registration{Name: "E", Endpoint: "http://e", Role: "entry"}); err == nil {
		t.Error(`the retired role "entry" was accepted`)
	}

	var gotEndpoint string
	exec := func(_ context.Context, endpoint string, req core.QueryOptions) (*core.Response, error) {
		gotEndpoint = endpoint
		return &core.Response{Site: req.Site}, nil
	}
	r := NewRouter(d, exec, "A", Config{})
	resp, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{Site: "B", SQL: "SELECT * FROM Processor", Mode: core.ModeRealTime})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Site != "B" || gotEndpoint != "http://b" {
		t.Errorf("routed to %q, resp %+v", gotEndpoint, resp)
	}
	if _, err := r.RemoteQueryContext(context.Background(), "C", core.QueryOptions{}); err == nil {
		t.Error("unknown site routed")
	}
	sites := r.Sites()
	if len(sites) != 1 || sites[0] != "B" {
		t.Errorf("Sites = %v (must exclude local and republishers)", sites)
	}
}

func TestRouterExecError(t *testing.T) {
	d := NewDirectory(0, nil)
	_ = d.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b"})
	exec := func(context.Context, string, core.QueryOptions) (*core.Response, error) {
		return nil, fmt.Errorf("boom")
	}
	r := NewRouter(d, exec, "A", Config{})
	if _, err := r.RemoteQueryContext(context.Background(), "B", core.QueryOptions{}); err == nil {
		t.Error("exec error swallowed")
	}
}
