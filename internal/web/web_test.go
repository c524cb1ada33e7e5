package web

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/driver"
	"gridrm/internal/drivers/memdrv"
	"gridrm/internal/event"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/schema"
	"gridrm/internal/security"
)

type fixture struct {
	gw      *core.Gateway
	backend *memdrv.Backend
	srv     *httptest.Server
	client  *Client
	url     string
}

func newFixture(t *testing.T, coarse *security.CoarsePolicy) *fixture {
	t.Helper()
	gw := core.New(core.Config{Name: "siteA", Coarse: coarse})
	t.Cleanup(gw.Close)
	backend := memdrv.NewBackend([]string{"a1", "a2"})
	d := memdrv.New("jdbc-mem", "mem", backend)
	if err := gw.RegisterDriver(d, d.Schema()); err != nil {
		t.Fatal(err)
	}
	url := "gridrm:mem://a:1"
	if err := gw.AddSource(core.SourceConfig{URL: url, Description: "test agent"}); err != nil {
		t.Fatal(err)
	}
	repo := map[string]DriverFactory{
		"jdbc-extra": func() (driver.Driver, *schema.DriverSchema) {
			ed := memdrv.New("jdbc-extra", "extra", backend)
			return ed, ed.Schema()
		},
	}
	server := NewServer(gw, repo, nil)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	client := &Client{BaseURL: srv.URL,
		Principal: security.Principal{Name: "admin", Roles: []string{"operator"}}}
	return &fixture{gw: gw, backend: backend, srv: srv, client: client, url: url}
}

func TestWireResultRoundTrip(t *testing.T) {
	meta, err := resultset.NewMetadata([]resultset.Column{
		{Name: "S", Kind: glue.String, Unit: "", Group: "G"},
		{Name: "I", Kind: glue.Int},
		{Name: "F", Kind: glue.Float},
		{Name: "B", Kind: glue.Bool},
		{Name: "T", Kind: glue.Time},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2003, 6, 1, 10, 30, 0, 123456000, time.UTC)
	rs, err := resultset.NewBuilder(meta).
		Append("x", int64(42), 1.5, true, ts).
		Append(nil, nil, nil, nil, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(WireResult{ResultSet: rs})
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeResult(body)
	if err != nil {
		t.Fatal(err)
	}
	back.Next()
	if v, _ := back.GetInt("I"); v != 42 {
		t.Errorf("int = %d", v)
	}
	if v, _ := back.GetTime("T"); !v.Equal(ts) {
		t.Errorf("time = %v", v)
	}
	back.Next()
	back.GetString("S")
	if !back.WasNull() {
		t.Error("NULL lost on the wire")
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]core.Mode{
		"": core.ModeCached, "cached": core.ModeCached,
		"real-time": core.ModeRealTime, "realtime": core.ModeRealTime,
		"historical": core.ModeHistorical, "history": core.ModeHistorical,
	} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMode("warp"); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestQueryOverHTTP(t *testing.T) {
	f := newFixture(t, nil)
	resp, err := f.client.Query(context.Background(), core.QueryOptions{
		SQL:  "SELECT HostName, LoadLast1Min FROM Processor ORDER BY HostName",
		Mode: core.ModeRealTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Site != "siteA" || resp.ResultSet.Len() != 2 {
		t.Fatalf("resp %+v", resp)
	}
	resp.ResultSet.Next()
	if h, _ := resp.ResultSet.GetString("HostName"); h != "a1" {
		t.Errorf("host = %q", h)
	}
	if v, _ := resp.ResultSet.GetFloat("LoadLast1Min"); v != 1.0 {
		t.Errorf("load = %v", v)
	}
	if len(resp.Sources) != 1 || resp.Sources[0].Driver != "jdbc-mem" {
		t.Errorf("sources %+v", resp.Sources)
	}
	// Bad SQL → 400 with message.
	if _, err := f.client.Query(context.Background(), core.QueryOptions{SQL: "junk"}); err == nil {
		t.Error("bad SQL accepted over HTTP")
	}
}

// TestSiteGatewaySendsNoValidator: a site gateway's answers carry no
// validator, so its /query never writes an ETag or a 304, whatever the
// request brings.
func TestSiteGatewaySendsNoValidator(t *testing.T) {
	f := newFixture(t, nil)
	for _, v := range []string{"", "v1"} {
		resp, err := f.client.Query(context.Background(), core.QueryOptions{SQL: "SELECT HostName FROM Processor", Validator: v})
		if err != nil || resp.NotModified || resp.Validator != "" || resp.ResultSet.Len() != 2 {
			t.Errorf("site query with validator %q = %+v, %v; want a full answer without one", v, resp, err)
		}
	}
}

func TestQueryForbiddenOverHTTP(t *testing.T) {
	coarse := security.NewCoarsePolicy(security.Deny)
	coarse.Add(security.CoarseRule{Principal: "admin", Decision: security.Allow})
	f := newFixture(t, coarse)
	evil := &Client{BaseURL: f.srv.URL, Principal: security.Principal{Name: "mallory"}}
	_, err := evil.Query(context.Background(), core.QueryOptions{SQL: "SELECT * FROM Processor"})
	if err == nil || !strings.Contains(err.Error(), "403") {
		t.Errorf("expected 403, got %v", err)
	}
}

func TestPollOverHTTP(t *testing.T) {
	f := newFixture(t, nil)
	resp, err := f.client.Poll(context.Background(), f.url, glue.GroupMemory)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultSet.Len() != 2 {
		t.Errorf("rows = %d", resp.ResultSet.Len())
	}
	if f.backend.Queries() != 1 {
		t.Errorf("backend queries = %d", f.backend.Queries())
	}
}

func TestSourceManagementOverHTTP(t *testing.T) {
	f := newFixture(t, nil)
	srcs, err := f.client.Sources(context.Background())
	if err != nil || len(srcs) != 1 {
		t.Fatalf("sources %v, %v", srcs, err)
	}
	if err := f.client.AddSource(context.Background(), core.SourceConfig{URL: "gridrm:mem://b:1"}); err != nil {
		t.Fatal(err)
	}
	srcs, _ = f.client.Sources(context.Background())
	if len(srcs) != 2 {
		t.Errorf("sources after add = %d", len(srcs))
	}
	if err := f.client.RemoveSource(context.Background(), "gridrm:mem://b:1"); err != nil {
		t.Fatal(err)
	}
	if err := f.client.RemoveSource(context.Background(), "gridrm:mem://b:1"); err == nil {
		t.Error("double remove accepted")
	}
	if err := f.client.AddSource(context.Background(), core.SourceConfig{URL: "junk"}); err == nil {
		t.Error("bad URL accepted")
	}
}

func TestDriverManagementOverHTTP(t *testing.T) {
	f := newFixture(t, nil)
	list, err := f.client.Drivers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// jdbc-extra (inactive, from repository) + jdbc-mem (active).
	if len(list) != 2 {
		t.Fatalf("drivers = %v", list)
	}
	if list[0].Name != "jdbc-extra" || list[0].Active {
		t.Errorf("repo driver %+v", list[0])
	}
	if list[1].Name != "jdbc-mem" || !list[1].Active {
		t.Errorf("active driver %+v", list[1])
	}
	// Runtime activation from the repository (Fig 8).
	if err := f.client.ActivateDriver(context.Background(), "jdbc-extra"); err != nil {
		t.Fatal(err)
	}
	list, _ = f.client.Drivers(context.Background())
	if !list[0].Active {
		t.Error("activated driver not active")
	}
	if err := f.client.ActivateDriver(context.Background(), "jdbc-extra"); err == nil {
		t.Error("double activation accepted")
	}
	if err := f.client.ActivateDriver(context.Background(), "ghost"); err == nil {
		t.Error("unknown driver activated")
	}
	// Preferences.
	if err := f.client.SetPreferences(context.Background(), f.url, []string{"jdbc-extra", "jdbc-mem"}); err != nil {
		t.Fatal(err)
	}
	if got := f.gw.DriverManager().Preferences(f.url); len(got) != 2 || got[0] != "jdbc-extra" {
		t.Errorf("prefs = %v", got)
	}
	if err := f.client.SetPreferences(context.Background(), f.url, []string{"ghost"}); err == nil {
		t.Error("unknown preference accepted")
	}
	// Deactivation.
	if err := f.client.DeactivateDriver(context.Background(), "jdbc-extra"); err != nil {
		t.Fatal(err)
	}
	if err := f.client.DeactivateDriver(context.Background(), "jdbc-extra"); err == nil {
		t.Error("double deactivation accepted")
	}
}

func TestManagementRequiresPermission(t *testing.T) {
	coarse := security.NewCoarsePolicy(security.Deny)
	coarse.Add(security.CoarseRule{Principal: "admin", Decision: security.Allow})
	coarse.Add(security.CoarseRule{Op: security.OpQueryRealTime, Decision: security.Allow})
	f := newFixture(t, coarse)
	guest := &Client{BaseURL: f.srv.URL, Principal: security.Principal{Name: "guest"}}
	if err := guest.AddSource(context.Background(), core.SourceConfig{URL: "gridrm:mem://c:1"}); err == nil {
		t.Error("guest added source")
	}
	if err := guest.ActivateDriver(context.Background(), "jdbc-extra"); err == nil {
		t.Error("guest activated driver")
	}
	if err := guest.SetPreferences(context.Background(), f.url, nil); err == nil {
		t.Error("guest set preferences")
	}
	if _, err := guest.Events(context.Background(), event.Filter{}, time.Time{}); err == nil {
		t.Error("guest read events")
	}
}

func TestTreeOverHTTP(t *testing.T) {
	f := newFixture(t, nil)
	// Populate the cache with a query.
	if _, err := f.client.Query(context.Background(), core.QueryOptions{SQL: "SELECT * FROM Processor", Mode: core.ModeCached}); err != nil {
		t.Fatal(err)
	}
	tree, err := f.client.Tree(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tree) != 1 || tree[0].Source.URL != f.url {
		t.Fatalf("tree %+v", tree)
	}
	if len(tree[0].Cached) != 1 || tree[0].Cached[0].Rows != 2 {
		t.Errorf("cached entries %+v", tree[0].Cached)
	}
	if tree[0].Source.LastDriver != "jdbc-mem" {
		t.Errorf("health %+v", tree[0].Source)
	}
}

func TestEventsOverHTTP(t *testing.T) {
	f := newFixture(t, nil)
	f.gw.Events().Publish(event.Event{Name: "load-high", Host: "a1",
		Severity: event.SeverityAlert, Value: 9, Time: time.Now()})
	f.gw.Events().Publish(event.Event{Name: "cpu.util", Host: "a1",
		Severity: event.SeverityUsage, Value: 50, Time: time.Now()})
	evs, err := f.client.Events(context.Background(), event.Filter{Severity: event.SeverityAlert}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Name != "load-high" {
		t.Errorf("events %v", evs)
	}
}

func TestStatusOverHTTP(t *testing.T) {
	f := newFixture(t, nil)
	if _, err := f.client.Query(context.Background(), core.QueryOptions{SQL: "SELECT * FROM Processor", Mode: core.ModeRealTime}); err != nil {
		t.Fatal(err)
	}
	st, err := f.client.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Site != "siteA" || st.Gateway.Queries != 1 || st.Gateway.Harvests != 1 {
		t.Errorf("status %+v", st)
	}
	if st.Pool.Opens != 1 {
		t.Errorf("pool %+v", st.Pool)
	}
}
