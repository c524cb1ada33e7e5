package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/driver"
	"gridrm/internal/event"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/schema"
	"gridrm/internal/security"
	"gridrm/internal/sqlparse"
)

// memDriver is an in-memory driver serving Processor and Memory rows for a
// fixed host list; per-URL failure can be injected.
type memDriver struct {
	name     string
	proto    string
	hosts    []string
	load     float64
	fail     atomic.Bool
	harvests atomic.Int64
}

func (d *memDriver) Name() string { return d.name }

func (d *memDriver) Version() string { return "1.0-test" }

func (d *memDriver) AcceptsURL(url string) bool {
	u, err := driver.ParseURL(url)
	if err != nil {
		return false
	}
	return u.Protocol == "" || u.Protocol == d.proto
}

func (d *memDriver) Connect(url string, props driver.Properties) (driver.Conn, error) {
	if d.fail.Load() {
		return nil, fmt.Errorf("%s: unreachable", d.name)
	}
	return &memConn{d: d, url: url}, nil
}

func (d *memDriver) schema() *schema.DriverSchema {
	return &schema.DriverSchema{
		Driver: d.name,
		Groups: map[string]*schema.GroupMapping{
			glue.GroupProcessor: {Group: glue.GroupProcessor, Fields: []schema.FieldMapping{
				{GLUEField: "HostName", Native: "host"},
				{GLUEField: "LoadLast1Min", Native: "load"},
			}},
			glue.GroupMemory: {Group: glue.GroupMemory, Fields: []schema.FieldMapping{
				{GLUEField: "HostName", Native: "host"},
				{GLUEField: "RAMSize", Native: "ram"},
			}},
		},
	}
}

type memConn struct {
	driver.UnimplementedConn
	d   *memDriver
	url string
}

func (c *memConn) URL() string    { return c.url }
func (c *memConn) Driver() string { return c.d.name }
func (c *memConn) Ping() error {
	if c.d.fail.Load() {
		return errors.New("gone")
	}
	return nil
}
func (c *memConn) CreateStatement() (driver.Stmt, error) { return &memStmt{c: c}, nil }

type memStmt struct {
	driver.UnimplementedStmt
	c *memConn
}

func (s *memStmt) ExecuteQuery(sql string) (*resultset.ResultSet, error) {
	if s.c.d.fail.Load() {
		return nil, errors.New("agent died mid-query")
	}
	s.c.d.harvests.Add(1)
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	g, ok := glue.Lookup(q.Table)
	if !ok {
		return nil, fmt.Errorf("memdrv: unsupported table %q", q.Table)
	}
	meta, err := resultset.MetadataForGroup(g, nil)
	if err != nil {
		return nil, err
	}
	b := resultset.NewBuilder(meta)
	for _, h := range s.c.d.hosts {
		row := make([]any, len(g.Fields))
		switch g.Name {
		case glue.GroupProcessor:
			row[g.FieldIndex("HostName")] = h
			row[g.FieldIndex("LoadLast1Min")] = s.c.d.load
		case glue.GroupMemory:
			row[g.FieldIndex("HostName")] = h
			row[g.FieldIndex("RAMSize")] = int64(1024)
		default:
			return nil, fmt.Errorf("memdrv: unsupported table %q", q.Table)
		}
		b.Append(row...)
	}
	full, err := b.Build()
	if err != nil {
		return nil, err
	}
	return sqlparse.ApplyToResultSet(q, full)
}

type fixture struct {
	g     *Gateway
	drv   *memDriver
	drv2  *memDriver
	now   *time.Time
	urlA  string
	urlB  string
	admin security.Principal
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	now := time.Unix(50000, 0)
	f := &fixture{
		now:   &now,
		urlA:  "gridrm:mem://a:1",
		urlB:  "gridrm:mem2://b:1",
		admin: security.Principal{Name: "admin", Roles: []string{"operator"}},
	}
	f.g = New(Config{Name: "siteA", Clock: func() time.Time { return *f.now }})
	t.Cleanup(f.g.Close)
	f.drv = &memDriver{name: "jdbc-mem", proto: "mem", hosts: []string{"a1", "a2"}, load: 1.0}
	f.drv2 = &memDriver{name: "jdbc-mem2", proto: "mem2", hosts: []string{"b1"}, load: 5.0}
	if err := f.g.RegisterDriver(f.drv, f.drv.schema()); err != nil {
		t.Fatal(err)
	}
	if err := f.g.RegisterDriver(f.drv2, f.drv2.schema()); err != nil {
		t.Fatal(err)
	}
	if err := f.g.AddSource(SourceConfig{URL: f.urlA, Description: "site A agent"}); err != nil {
		t.Fatal(err)
	}
	if err := f.g.AddSource(SourceConfig{URL: f.urlB}); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *fixture) query(t *testing.T, sql string, mode Mode) *Response {
	t.Helper()
	resp, err := f.g.QueryContext(context.Background(), QueryOptions{Principal: f.admin, SQL: sql, Mode: mode})
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return resp
}

func TestQueryConsolidatesSources(t *testing.T) {
	f := newFixture(t)
	resp := f.query(t, "SELECT HostName, LoadLast1Min FROM Processor ORDER BY HostName", ModeRealTime)
	rs := resp.ResultSet
	if rs.Len() != 3 {
		t.Fatalf("rows = %d, want 3 (2 from A, 1 from B)", rs.Len())
	}
	var hosts []string
	for rs.Next() {
		h, _ := rs.GetString("HostName")
		hosts = append(hosts, h)
	}
	if strings.Join(hosts, ",") != "a1,a2,b1" {
		t.Errorf("hosts = %v", hosts)
	}
	if len(resp.Sources) != 2 {
		t.Fatalf("source statuses = %d", len(resp.Sources))
	}
	for _, s := range resp.Sources {
		if s.Err != "" || s.Cached {
			t.Errorf("status %+v", s)
		}
	}
}

func TestQueryAppliesWhereOrderLimit(t *testing.T) {
	f := newFixture(t)
	resp := f.query(t, "SELECT HostName FROM Processor WHERE LoadLast1Min > 2 LIMIT 1", ModeRealTime)
	if resp.ResultSet.Len() != 1 {
		t.Fatalf("rows = %d", resp.ResultSet.Len())
	}
	resp.ResultSet.Next()
	if h, _ := resp.ResultSet.GetString("HostName"); h != "b1" {
		t.Errorf("host = %q", h)
	}
	// NULL rule: unmapped Model column is NULL on every row.
	resp = f.query(t, "SELECT HostName FROM Processor WHERE Model IS NULL", ModeRealTime)
	if resp.ResultSet.Len() != 3 {
		t.Errorf("NULL-model rows = %d", resp.ResultSet.Len())
	}
}

// TestCachedModeLimitsIntrusion: cached queries with different SQL over one
// group share one harvest; real-time and an expired entry harvest again.
func TestCachedModeLimitsIntrusion(t *testing.T) {
	f := newFixture(t)
	f.query(t, "SELECT * FROM Processor", ModeCached)
	if f.drv.harvests.Load() != 1 {
		t.Fatalf("first query harvests = %d", f.drv.harvests.Load())
	}
	// Different client SQL on the same group shares the harvest cache.
	f.query(t, "SELECT HostName FROM Processor WHERE LoadLast1Min < 99", ModeCached)
	if f.drv.harvests.Load() != 1 {
		t.Errorf("cached query re-harvested (%d)", f.drv.harvests.Load())
	}
	if f.g.Stats().CacheServed != 2 { // both sources served from cache
		t.Errorf("cache served = %d", f.g.Stats().CacheServed)
	}
	// Real-time forces a refresh.
	f.query(t, "SELECT * FROM Processor", ModeRealTime)
	if f.drv.harvests.Load() != 2 {
		t.Errorf("real-time did not re-harvest (%d)", f.drv.harvests.Load())
	}
	// Cache expiry forces a refresh.
	*f.now = f.now.Add(time.Minute)
	f.query(t, "SELECT * FROM Processor", ModeCached)
	if f.drv.harvests.Load() != 3 {
		t.Errorf("expired cache not refreshed (%d)", f.drv.harvests.Load())
	}
}

// TestCachedStatusReportsAge: a source served from cache reports the time
// its rows were harvested and the driver that harvested them.
func TestCachedStatusReportsAge(t *testing.T) {
	f := newFixture(t)
	f.query(t, "SELECT * FROM Memory", ModeRealTime)
	harvestTime := *f.now
	*f.now = f.now.Add(time.Second)
	resp := f.query(t, "SELECT * FROM Memory", ModeCached)
	for _, s := range resp.Sources {
		if !s.Cached {
			t.Errorf("source %s not served from cache", s.Source)
		}
		if !s.HarvestedAt.Equal(harvestTime) {
			t.Errorf("harvested at %v, want %v", s.HarvestedAt, harvestTime)
		}
		if s.Driver == "" {
			t.Errorf("cached status lost driver name")
		}
	}
}

func TestSourceFailureIsPartial(t *testing.T) {
	f := newFixture(t)
	f.drv2.fail.Store(true)
	resp := f.query(t, "SELECT * FROM Processor", ModeRealTime)
	if resp.ResultSet.Len() != 2 {
		t.Errorf("rows = %d, want 2 from healthy source", resp.ResultSet.Len())
	}
	var failed *SourceStatus
	for i := range resp.Sources {
		if resp.Sources[i].Source == f.urlB {
			failed = &resp.Sources[i]
		}
	}
	if failed == nil || failed.Err == "" {
		t.Fatalf("failing source not reported: %+v", resp.Sources)
	}
	// Health is visible in the management view.
	info, _ := f.g.Source(f.urlB)
	if info.LastError == "" {
		t.Error("source info missing LastError")
	}
	// A poll-failed status event was published.
	evs := f.g.Events().History(event.Filter{Name: "poll-failed"}, time.Time{})
	if len(evs) != 1 || evs[0].Source != f.urlB {
		t.Errorf("poll-failed events = %v", evs)
	}
	if f.g.Stats().HarvestErrors != 1 {
		t.Errorf("harvest errors = %d", f.g.Stats().HarvestErrors)
	}
}

func TestExplicitSourcesAndUnknownSource(t *testing.T) {
	f := newFixture(t)
	resp, err := f.g.QueryContext(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Processor",
		Sources: []string{f.urlA}, Mode: ModeRealTime})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultSet.Len() != 2 {
		t.Errorf("restricted rows = %d", resp.ResultSet.Len())
	}
	_, err = f.g.QueryContext(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Processor",
		Sources: []string{"gridrm:mem://ghost:1"}})
	if err == nil {
		t.Error("unknown source accepted")
	}
}

func TestUnknownGroupAndBadSQL(t *testing.T) {
	f := newFixture(t)
	if _, err := f.g.QueryContext(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Nope"}); err == nil {
		t.Error("unknown group accepted")
	}
	if _, err := f.g.QueryContext(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELEC nonsense"}); err == nil {
		t.Error("bad SQL accepted")
	}
	if f.g.Stats().QueryErrors != 2 {
		t.Errorf("query errors = %d", f.g.Stats().QueryErrors)
	}
}

func TestNoSourceSupportsGroup(t *testing.T) {
	f := newFixture(t)
	_, err := f.g.QueryContext(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELECT * FROM NetworkElement"})
	if err == nil {
		t.Error("group with no sources accepted")
	}
}

func TestHistoricalQuery(t *testing.T) {
	f := newFixture(t)
	f.query(t, "SELECT * FROM Processor", ModeRealTime)
	*f.now = f.now.Add(10 * time.Second)
	f.query(t, "SELECT * FROM Processor", ModeRealTime)
	resp := f.query(t, "SELECT * FROM Processor", ModeHistorical)
	// 2 harvests × 3 rows.
	if resp.ResultSet.Len() != 6 {
		t.Fatalf("historical rows = %d", resp.ResultSet.Len())
	}
	meta := resp.ResultSet.Metadata()
	if meta.ColumnIndex("SourceURL") < 0 || meta.ColumnIndex("SampledAt") < 0 {
		t.Error("provenance columns missing")
	}
	// Window filtering via Since.
	resp2, err := f.g.QueryContext(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Processor",
		Mode: ModeHistorical, Since: f.now.Add(-5 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.ResultSet.Len() != 3 {
		t.Errorf("windowed rows = %d", resp2.ResultSet.Len())
	}
	// Source-filtered history.
	resp3, err := f.g.QueryContext(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Processor",
		Mode: ModeHistorical, Sources: []string{f.urlA}})
	if err != nil {
		t.Fatal(err)
	}
	if resp3.ResultSet.Len() != 4 {
		t.Errorf("source history rows = %d", resp3.ResultSet.Len())
	}
}

func TestHistoryDisabled(t *testing.T) {
	now := time.Unix(1000, 0)
	g := New(Config{Name: "x", DisableHistory: true, Clock: func() time.Time { return now }})
	defer g.Close()
	d := &memDriver{name: "jdbc-mem", proto: "mem", hosts: []string{"h"}}
	_ = g.RegisterDriver(d, d.schema())
	_ = g.AddSource(SourceConfig{URL: "gridrm:mem://a:1"})
	if _, err := g.QueryContext(context.Background(), QueryOptions{SQL: "SELECT * FROM Processor", Mode: ModeRealTime}); err != nil {
		t.Fatal(err)
	}
	resp, err := g.QueryContext(context.Background(), QueryOptions{SQL: "SELECT * FROM Processor", Mode: ModeHistorical})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultSet.Len() != 0 {
		t.Error("history recorded despite DisableHistory")
	}
}

func TestCoarseSecurity(t *testing.T) {
	coarse := security.NewCoarsePolicy(security.Deny)
	coarse.Add(security.CoarseRule{Principal: "admin", Decision: security.Allow})
	now := time.Unix(1000, 0)
	g := New(Config{Name: "x", Coarse: coarse, Clock: func() time.Time { return now }})
	defer g.Close()
	d := &memDriver{name: "jdbc-mem", proto: "mem", hosts: []string{"h"}}
	_ = g.RegisterDriver(d, d.schema())
	_ = g.AddSource(SourceConfig{URL: "gridrm:mem://a:1"})
	_, err := g.QueryContext(context.Background(), QueryOptions{Principal: security.Principal{Name: "mallory"}, SQL: "SELECT * FROM Processor"})
	var pe *PermissionError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PermissionError", err)
	}
	if _, err := g.QueryContext(context.Background(), QueryOptions{Principal: security.Principal{Name: "admin"}, SQL: "SELECT * FROM Processor"}); err != nil {
		t.Errorf("admin denied: %v", err)
	}
	if g.Stats().Denied != 1 {
		t.Errorf("denied = %d", g.Stats().Denied)
	}
}

func TestFineSecurityPerSource(t *testing.T) {
	fine := security.NewFinePolicy(security.Allow)
	fine.Add(security.FineRule{Principal: "guest", Source: "gridrm:mem2://%", Decision: security.Deny})
	now := time.Unix(1000, 0)
	f := &fixture{now: &now, urlA: "gridrm:mem://a:1", urlB: "gridrm:mem2://b:1",
		admin: security.Principal{Name: "admin"}}
	f.g = New(Config{Name: "x", Fine: fine, Clock: func() time.Time { return *f.now }})
	defer f.g.Close()
	f.drv = &memDriver{name: "jdbc-mem", proto: "mem", hosts: []string{"a1"}}
	f.drv2 = &memDriver{name: "jdbc-mem2", proto: "mem2", hosts: []string{"b1"}}
	_ = f.g.RegisterDriver(f.drv, f.drv.schema())
	_ = f.g.RegisterDriver(f.drv2, f.drv2.schema())
	_ = f.g.AddSource(SourceConfig{URL: f.urlA})
	_ = f.g.AddSource(SourceConfig{URL: f.urlB})

	resp, err := f.g.QueryContext(context.Background(), QueryOptions{Principal: security.Principal{Name: "guest"},
		SQL: "SELECT * FROM Processor", Mode: ModeRealTime})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultSet.Len() != 1 {
		t.Errorf("guest rows = %d, want only source A", resp.ResultSet.Len())
	}
	denied := 0
	for _, s := range resp.Sources {
		if strings.Contains(s.Err, "denied") {
			denied++
		}
	}
	if denied != 1 {
		t.Errorf("denied statuses = %d", denied)
	}
}

func TestDriverManagement(t *testing.T) {
	f := newFixture(t)
	infos := f.g.Drivers()
	if len(infos) != 2 {
		t.Fatalf("drivers = %v", infos)
	}
	if infos[0].Name != "jdbc-mem" || infos[0].Version != "1.0-test" {
		t.Errorf("info %+v", infos[0])
	}
	if len(infos[0].Groups) != 2 {
		t.Errorf("groups %v", infos[0].Groups)
	}
	if err := f.g.DeregisterDriver("jdbc-mem2"); err != nil {
		t.Fatal(err)
	}
	if err := f.g.DeregisterDriver("jdbc-mem2"); err == nil {
		t.Error("double deregister succeeded")
	}
	// Source B is now unservable; queries still work against A.
	resp := f.query(t, "SELECT * FROM Processor", ModeRealTime)
	if resp.ResultSet.Len() != 2 {
		t.Errorf("rows after deregistration = %d", resp.ResultSet.Len())
	}
	// Registration events were published.
	if evs := f.g.Events().History(event.Filter{Name: "driver-%"}, time.Time{}); len(evs) != 3 {
		t.Errorf("driver events = %d", len(evs))
	}
}

func TestRegisterDriverValidation(t *testing.T) {
	f := newFixture(t)
	d := &memDriver{name: "jdbc-x", proto: "x", hosts: []string{"h"}}
	if err := f.g.RegisterDriver(d, nil); err == nil {
		t.Error("nil schema accepted")
	}
	wrong := d.schema()
	wrong.Driver = "other-name"
	if err := f.g.RegisterDriver(d, wrong); err == nil {
		t.Error("mismatched schema accepted")
	}
	// Duplicate driver registration must roll the schema back.
	dup := &memDriver{name: "jdbc-mem", proto: "mem", hosts: []string{"h"}}
	if err := f.g.RegisterDriver(dup, dup.schema()); err == nil {
		t.Error("duplicate driver accepted")
	}
}

func TestSourceManagement(t *testing.T) {
	f := newFixture(t)
	if err := f.g.AddSource(SourceConfig{URL: f.urlA}); err == nil {
		t.Error("duplicate source accepted")
	}
	if err := f.g.AddSource(SourceConfig{URL: "junk"}); err == nil {
		t.Error("bad URL accepted")
	}
	if err := f.g.AddSource(SourceConfig{URL: "gridrm:mem://c:1", Drivers: []string{"ghost"}}); err == nil {
		t.Error("unknown preferred driver accepted")
	}
	srcs := f.g.Sources()
	// Sorted by URL: "gridrm:mem2://..." < "gridrm:mem://..." ('2' < ':').
	if len(srcs) != 2 || srcs[0].URL != f.urlB || srcs[1].URL != f.urlA {
		t.Errorf("sources %v", srcs)
	}
	if err := f.g.RemoveSource(f.urlB); err != nil {
		t.Fatal(err)
	}
	if err := f.g.RemoveSource(f.urlB); err == nil {
		t.Error("double remove accepted")
	}
	if _, ok := f.g.Source(f.urlB); ok {
		t.Error("removed source still visible")
	}
}

func TestStaticPreferenceUsed(t *testing.T) {
	f := newFixture(t)
	// Register a source whose URL has no protocol hint; prefer drv2.
	url := "gridrm://any:1"
	if err := f.g.AddSource(SourceConfig{URL: url, Drivers: []string{"jdbc-mem2"}}); err != nil {
		t.Fatal(err)
	}
	resp, err := f.g.QueryContext(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Processor",
		Sources: []string{url}, Mode: ModeRealTime})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Sources[0].Driver != "jdbc-mem2" {
		t.Errorf("driver = %q", resp.Sources[0].Driver)
	}
}

func TestPoll(t *testing.T) {
	f := newFixture(t)
	resp, err := f.g.PollContext(context.Background(), f.admin, f.urlA, glue.GroupMemory)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultSet.Len() != 2 || resp.Sources[0].Cached {
		t.Errorf("poll resp %+v", resp.Sources)
	}
	if f.drv.harvests.Load() != 1 {
		t.Errorf("poll harvests = %d", f.drv.harvests.Load())
	}
}

type fakeRouter struct {
	lastSite string
	resp     *Response
}

func (r *fakeRouter) RemoteQueryContext(_ context.Context, site string, req QueryOptions) (*Response, error) {
	r.lastSite = site
	return r.resp, nil
}

func (r *fakeRouter) FanoutPlan(context.Context) ([]FanoutLeg, error) {
	return []FanoutLeg{{Target: "siteB"}}, nil
}

func TestRemoteRouting(t *testing.T) {
	f := newFixture(t)
	if _, err := f.g.QueryContext(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Processor", Site: "siteB"}); err == nil {
		t.Error("remote query without router succeeded")
	}
	router := &fakeRouter{resp: &Response{Site: "siteB"}}
	f.g.SetGlobalRouter(router)
	resp, err := f.g.QueryContext(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Processor", Site: "siteB"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Site != "siteB" || router.lastSite != "siteB" {
		t.Errorf("routed to %q, resp site %q", router.lastSite, resp.Site)
	}
	// Local site name short-circuits routing.
	resp, err = f.g.QueryContext(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELECT * FROM Processor", Site: "siteA"})
	if err != nil || resp.Site != "siteA" {
		t.Errorf("local-site query: %v, %v", resp, err)
	}
	if f.g.Stats().Routed != 1 {
		t.Errorf("routed = %d", f.g.Stats().Routed)
	}
}

func TestModeString(t *testing.T) {
	if ModeCached.String() != "cached" || ModeRealTime.String() != "real-time" ||
		ModeHistorical.String() != "historical" || Mode(9).String() != "mode(9)" {
		t.Error("mode names")
	}
}

func TestResponseElapsedAndSQLCanonical(t *testing.T) {
	f := newFixture(t)
	resp := f.query(t, "select   HostName from Processor", ModeRealTime)
	if resp.SQL != "SELECT HostName FROM Processor" {
		t.Errorf("canonical SQL = %q", resp.SQL)
	}
	if resp.Mode != ModeRealTime || resp.Site != "siteA" {
		t.Errorf("resp %+v", resp)
	}
}
