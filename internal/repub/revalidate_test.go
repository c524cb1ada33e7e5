package repub

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unicode"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/gma"
	"gridrm/internal/metrics"
	"gridrm/internal/security"
	"gridrm/internal/web"
)

// This file holds the revalidated route: the entry's gma.Router holds each
// republisher answer and sends its validator back, over real HTTP, and a
// republisher whose covered views have not changed answers 304.

var revalAdmin = security.Principal{Name: "admin", Roles: []string{"operator"}}

// revalFixture is TestRouteEquivalence's four-site fleet with the
// republisher behind its own servlet and the entry s0 routing through a
// gma.Router that lists the directory on every decision. The sites'
// registered endpoints are dead, so their feeds stay down and a failed
// republisher leg cannot fall through to an answer: every answer is the
// republisher's.
type revalFixture struct {
	t      *testing.T
	fleet  *eqFleet
	all    []eqRow
	remote []eqRow
	sites  map[string]*core.Gateway
	dir    *gma.Directory
	opts   Options
	rp     *Gateway
	front  atomic.Pointer[web.Front] // what the servlet's address serves
	srv    *httptest.Server
	router *gma.Router
	// gate, when set, holds every scrape of a site it names until it is
	// closed.
	mu   sync.Mutex
	gate map[string]chan struct{}
}

func newRevalFixture(t *testing.T) *revalFixture {
	t.Helper()
	f := &revalFixture{t: t, fleet: newEqFleet(rand.New(rand.NewSource(20030901))),
		sites: map[string]*core.Gateway{}, dir: gma.NewDirectory(0, nil)}
	f.all, f.remote = f.fleet.siteRows(f.fleet.sites...), f.fleet.siteRows("s1", "s2", "s3")
	dead := deadEndpoint(t)
	for _, s := range f.fleet.sites {
		gw := core.New(core.Config{Name: s})
		t.Cleanup(gw.Close)
		drv := tabDriver{f.fleet}
		if err := gw.RegisterDriver(drv, drv.schema()); err != nil {
			t.Fatal(err)
		}
		for _, url := range f.fleet.sources[s] {
			if err := gw.AddSource(core.SourceConfig{URL: url}); err != nil {
				t.Fatal(err)
			}
		}
		f.sites[s] = gw
		if s != "s0" {
			if err := f.dir.RegisterContext(context.Background(), gma.Registration{Name: s, Endpoint: dead, Groups: []string{glue.GroupProcessor}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { f.front.Load().ServeHTTP(w, r) }))
	t.Cleanup(f.srv.Close)
	f.opts = Options{Name: "repub-0", Endpoint: f.srv.URL, Directory: f.dir, Query: f.scrape,
		RefreshInterval: time.Hour, ScrapeInterval: time.Hour}
	f.start()
	f.router = gma.NewRouter(f.dir, web.RemoteQueryContext, "s0", gma.Config{LookupTTL: -1})
	f.sites["s0"].SetGlobalRouter(f.router)
	return f
}

func (f *revalFixture) scrape(ctx context.Context, site string, req core.QueryOptions) (*core.Response, error) {
	f.mu.Lock()
	gate := f.gate[site]
	f.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	req.Principal = revalAdmin
	return f.sites[site].QueryContext(ctx, req)
}

// start runs a republisher from f.opts behind the servlet's address and
// waits until it has scraped the remote sites.
func (f *revalFixture) start() {
	f.t.Helper()
	rp, err := New(f.opts)
	if err != nil {
		f.t.Fatal(err)
	}
	if err := rp.Start(context.Background()); err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { rp.Stop() })
	f.rp = rp
	f.front.Store(rp.Handler())
	waitFor(f.t, "scrapes", func() bool { return rp.store.Rows() == len(f.remote) })
}

// ask sends req to target through the entry's router, failing the test on
// an error or a failed source; it returns the answer and how many answers
// the router served from a held one as it did.
func (f *revalFixture) ask(target string, req core.QueryOptions) (*core.Response, int64) {
	f.t.Helper()
	before := f.router.Stats().NotModified
	req.Principal = revalAdmin
	var resp *core.Response
	var err error
	if target == "" {
		resp, err = f.sites["s0"].QueryContext(context.Background(), req)
	} else {
		resp, err = f.router.RemoteQueryContext(context.Background(), target, req)
	}
	if err != nil {
		f.t.Fatalf("%s %+v: %v", target, req, err)
	}
	for _, st := range resp.Sources {
		if st.Err != "" {
			f.t.Fatalf("%s %+v: source %s: %s", target, req, st.Source, st.Err)
		}
	}
	return resp, f.router.Stats().NotModified - before
}

// fresh is the republisher's own answer to req, evaluated in process with
// no validator: what a full re-fetch returns.
func (f *revalFixture) fresh(req core.QueryOptions) *core.Response {
	f.t.Helper()
	resp, err := f.rp.QueryContext(context.Background(), req)
	if err != nil {
		f.t.Fatal(err)
	}
	return resp
}

// TestRevalidatedRoutes reads each republisher route twice through the
// entry's router over HTTP — a remote site, a region leg over snapshot views
// and over live views, and the entry's all-sites aggregate with its partial
// pushed down to the region — and the second read of each is a 304 served
// from the held answer. Both reads equal the reference, and the second is
// the first cell for cell and kind-exactly.
func TestRevalidatedRoutes(t *testing.T) {
	const queries = 60
	f := newRevalFixture(t)
	rng := rand.New(rand.NewSource(1))
	generated := make([]*eqQuery, queries)
	for i := range generated {
		generated[i] = genQuery(rng)
	}
	type route struct {
		name   string
		target string
		rows   []eqRow
		req    core.QueryOptions
		agg    bool // aggregate queries only
	}
	routes := func(views string) []route {
		return []route{
			{"remote site", "s1", f.fleet.siteRows("s1"), core.QueryOptions{Site: "s1"}, false},
			{"region leg over " + views + " views", "repub-0", f.remote, core.QueryOptions{Site: "repub-0", Region: []string{"s1", "s2", "s3"}}, false},
			{"all-sites aggregate over " + views + " views", "", f.all, core.QueryOptions{Site: core.AllSites}, true},
		}
	}
	run := func(routes []route) {
		for _, q := range generated {
			sql := q.SQL()
			for _, r := range routes {
				if r.agg && !q.aggregate() {
					continue
				}
				ref := reference(q, r.rows)
				req := r.req
				req.SQL = sql
				first, _ := f.ask(r.target, req)
				second, revalidated := f.ask(r.target, req)
				if revalidated != 1 {
					t.Fatalf("%s: %s: the second read served %d held answers, want 1", r.name, sql, revalidated)
				}
				for i, resp := range []*core.Response{first, second} {
					if err := checkAnswer(q, ref, resp.ResultSet, sortKeyOf(q, f.all)); err != nil {
						t.Errorf("%s: %s: read %d: %v", r.name, sql, i+1, err)
					}
				}
				if err := sameOnTheWire(ref, first.ResultSet, second.ResultSet); err != nil {
					t.Errorf("%s: %s: the revalidated read: %v", r.name, sql, err)
				}
			}
		}
	}
	run(routes("snapshot"))
	for _, s := range []string{"s1", "s2", "s3"} {
		for _, url := range f.fleet.sources[s] {
			for _, r := range f.fleet.rows[url] {
				f.rp.store.Upsert(s, glue.GroupProcessor, url, eqCols, []any(r), time.Now())
			}
		}
	}
	run(routes("live")[1:])
	if st := f.rp.Stats(); st.NotModified != f.router.Stats().NotModified {
		t.Errorf("the republisher answered %d 304s and the router served %d held answers", st.NotModified, f.router.Stats().NotModified)
	}
}

// sameAnswer fails the test unless got is want, cell for cell and
// kind-exactly.
func sameAnswer(t *testing.T, what string, want, got *core.Response) {
	t.Helper()
	if err := sameOnTheWire(eqAnswer{}, want.ResultSet, got.ResultSet); err != nil {
		t.Errorf("%s: %v", what, err)
	}
}

// TestRevalidationSeesEveryChange: a push, a snapshot, a removed site or a
// rebalance between two reads makes the second a full answer — the one a
// re-fetch returns — never the held one. The rebalance that gives the
// republisher sites it has no view of yet changes only its coverage, and is
// seen all the same.
func TestRevalidationSeesEveryChange(t *testing.T) {
	f := newRevalFixture(t)
	region := core.QueryOptions{SQL: "SELECT HostName, LoadLast1Min FROM Processor", Site: "repub-0", Region: []string{"s1", "s2", "s3"}}
	shard := core.QueryOptions{SQL: region.SQL, Site: "repub-0"} // the whole owned shard
	url := f.fleet.sources["s1"][0]
	for _, c := range []struct {
		name    string
		changed string // the site whose view changes
		change  func()
	}{
		{"push", "s1", func() {
			f.rp.store.Upsert("s1", glue.GroupProcessor, url, eqCols, []any{"s1-0-h0", "alpha", int64(2), 96.5}, time.Now())
		}},
		{"snapshot", "s2", func() {
			f.rp.store.SetSnapshot("s2", glue.GroupProcessor, procRows(t, [2]any{"s2-new", 9.0}), time.Now())
		}},
		{"removed site", "s3", func() { f.rp.store.RemoveSite("s3") }},
	} {
		// A site read of the changed site sees the change; one of another
		// site is still revalidated, unless the change was a removal.
		site := core.QueryOptions{SQL: region.SQL, Site: c.changed}
		untouched := core.QueryOptions{SQL: region.SQL, Site: "s1"}
		if c.changed == "s1" {
			untouched.Site = "s2"
		}
		for _, q := range []core.QueryOptions{region, shard, site, untouched} {
			f.ask(q.Site, q)
			if _, n := f.ask(q.Site, q); n != 1 {
				t.Fatalf("%s: an unchanged %+v was not revalidated", c.name, q)
			}
		}
		c.change()
		for _, q := range []core.QueryOptions{region, shard, site} {
			got, n := f.ask(q.Site, q)
			if n != 0 {
				t.Errorf("after a %s %+v was served from the held answer", c.name, q)
			}
			sameAnswer(t, c.name+" "+q.Site, f.fresh(q), got)
		}
		if _, n := f.ask(untouched.Site, untouched); n != 1 && c.changed != "s3" {
			t.Errorf("after a %s of %s a read of %s was not revalidated", c.name, c.changed, untouched.Site)
		}
	}

	// A second republisher takes a share of the sites: the shard the
	// first answers for shrinks.
	ring := gma.NewRing([]string{"repub-0", "repub-1"}, gma.DefaultVNodes)
	var moved []string
	for _, s := range []string{"s1", "s2", "s3"} {
		if ring.Owner(s) == "repub-1" {
			moved = append(moved, s)
		}
	}
	if len(moved) == 0 || len(moved) == 3 {
		t.Fatalf("the ring moves %v to repub-1; the test needs some but not all", moved)
	}
	f.ask("repub-0", shard)
	other := f.opts
	other.Name, other.Endpoint = "repub-1", deadEndpoint(t)
	second, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { second.Stop() })
	waitFor(t, "the rebalance", func() bool { return len(f.rp.Owns()) == 3-len(moved) })
	got, n := f.ask("repub-0", shard)
	if n != 0 {
		t.Error("after a rebalance the shrunken shard was served from the held answer")
	}
	sameAnswer(t, "after a rebalance", f.fresh(shard), got)

	// The second leaves and its sites come back before any scrape of them
	// lands: no view changed, the coverage did.
	f.mu.Lock()
	f.gate = map[string]chan struct{}{}
	for _, s := range moved {
		f.gate[s] = make(chan struct{})
	}
	f.mu.Unlock()
	f.ask("repub-0", shard)
	second.Stop()
	waitFor(t, "the take-over", func() bool { return len(f.rp.Owns()) == 3 })
	got, n = f.ask("repub-0", shard)
	if n != 0 {
		t.Error("after a take-over the grown shard was served from the held answer")
	}
	if len(got.Sources) != 3 {
		t.Errorf("after a take-over the shard's answer names %d sites, want 3: %+v", len(got.Sources), got.Sources)
	}
	f.mu.Lock()
	for _, gate := range f.gate {
		close(gate)
	}
	f.mu.Unlock()
}

// TestRestartedRepublisherNeverMatches: a republisher restarted at the same
// endpoint, with the same views, still answers the old validator in full.
func TestRestartedRepublisherNeverMatches(t *testing.T) {
	f := newRevalFixture(t)
	region := core.QueryOptions{SQL: "SELECT HostName FROM Processor", Site: "repub-0", Region: []string{"s1", "s2", "s3"}}
	f.ask("repub-0", region)
	if _, n := f.ask("repub-0", region); n != 1 {
		t.Fatal("an unchanged region was not revalidated")
	}
	f.rp.Stop()
	f.start()
	got, n := f.ask("repub-0", region)
	if n != 0 || f.rp.Stats().NotModified != 0 {
		t.Errorf("the restarted republisher matched its predecessor's validator")
	}
	sameAnswer(t, "after a restart", f.fresh(region), got)
}

// TestRegionChecksPrecedeRevalidation: a region that names a site the
// republisher does not own, or a site twice, is refused even when the
// validator it brings is the current one for what it covers.
func TestRegionChecksPrecedeRevalidation(t *testing.T) {
	f := newRevalFixture(t)
	c := &web.Client{BaseURL: f.srv.URL, Principal: revalAdmin}
	ctx := context.Background()
	held, err := c.Query(ctx, core.QueryOptions{SQL: "SELECT HostName FROM Processor", Site: "repub-0", Region: []string{"s1"}})
	if err != nil || held.Validator == "" {
		t.Fatalf("region answer = %+v, %v; want one with a validator", held, err)
	}
	for _, region := range [][]string{{"s1", "s9"}, {"s1", "s1"}} {
		resp, err := c.Query(ctx, core.QueryOptions{SQL: "SELECT HostName FROM Processor", Site: "repub-0", Region: region, Validator: held.Validator})
		if err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("region %v with a current validator = %+v, %v; want a 400", region, resp, err)
		}
	}
	if n := f.rp.Stats().NotModified; n != 0 {
		t.Errorf("%d refused regions were answered 304", n)
	}
}

// TestValidatorNamesItsRequest: a validator is current only for the request
// that was answered with it. Brought back with other SQL over the same
// views, another region, another mode, or another group that has no views
// either, it is answered in full; only the same request gets a 304.
func TestValidatorNamesItsRequest(t *testing.T) {
	f := newRevalFixture(t)
	c := &web.Client{BaseURL: f.srv.URL, Principal: revalAdmin}
	ctx := context.Background()
	tag := func(req core.QueryOptions) string {
		t.Helper()
		resp, err := c.Query(ctx, req)
		if err != nil || resp.Validator == "" {
			t.Fatalf("%+v = %+v, %v; want an answer with a validator", req, resp, err)
		}
		return resp.Validator
	}
	hosts := core.QueryOptions{SQL: "SELECT HostName FROM Processor", Site: "repub-0", Region: []string{"s1"}}
	memory := core.QueryOptions{SQL: "SELECT * FROM Memory", Site: "repub-0", Region: []string{"s1"}}
	for _, tc := range []struct {
		name       string
		from, sent core.QueryOptions
	}{
		{"other SQL", hosts, core.QueryOptions{SQL: "SELECT HostName FROM Processor WHERE HostName <> 'x'", Site: "repub-0", Region: []string{"s1"}}},
		{"other region", hosts, core.QueryOptions{SQL: hosts.SQL, Site: "repub-0", Region: []string{"s2"}}},
		{"whole shard", hosts, core.QueryOptions{SQL: hosts.SQL, Site: "repub-0"}},
		{"other mode", hosts, core.QueryOptions{SQL: hosts.SQL, Site: "repub-0", Region: []string{"s1"}, Mode: core.ModeRealTime}},
		{"other empty group", memory, core.QueryOptions{SQL: "SELECT * FROM Disk", Site: "repub-0", Region: []string{"s1"}}},
	} {
		tc.sent.Validator = tag(tc.from)
		resp, err := web.RemoteQueryContext(ctx, f.srv.URL, withAdmin(tc.sent))
		if err != nil || resp.NotModified || resp.ResultSet == nil {
			t.Errorf("%s: a validator of another request was answered %+v, %v; want a full answer", tc.name, resp, err)
		}
	}
	if n := f.rp.Stats().NotModified; n != 0 {
		t.Errorf("%d answers to other requests were 304", n)
	}
	same := hosts
	same.Validator = tag(hosts)
	if resp, err := web.RemoteQueryContext(ctx, f.srv.URL, withAdmin(same)); err != nil || !resp.NotModified {
		t.Errorf("the same request with its validator = %+v, %v; want a 304", resp, err)
	}
}

func withAdmin(req core.QueryOptions) core.QueryOptions {
	req.Principal = revalAdmin
	return req
}

// TestConcurrentReadersShareAHeldAnswer: readers revalidate one held answer
// while pushes change its views. Every answer is whole, and once the pushes
// stop the next read is the re-fetched answer, not a held one from before.
func TestConcurrentReadersShareAHeldAnswer(t *testing.T) {
	f := newRevalFixture(t)
	region := core.QueryOptions{SQL: "SELECT HostName, LoadLast1Min FROM Processor", Site: "repub-0", Region: []string{"s1", "s2", "s3"}}
	readers, reads := 6, 40
	if raceEnabled {
		reads = 15
	}
	url := f.fleet.sources["s2"][0]
	host := f.fleet.rows[url][0][0]
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4*reads; i++ {
			f.rp.store.Upsert("s2", glue.GroupProcessor, url, eqCols, []any{host, "alpha", int64(2), float64(i)}, time.Now())
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				req := region
				req.Principal = revalAdmin
				resp, err := f.router.RemoteQueryContext(context.Background(), "repub-0", req)
				if err != nil {
					t.Error(err)
					return
				}
				rows := 0
				for resp.ResultSet.Next() {
					rows++
				}
				if rows != len(f.remote) {
					t.Errorf("an answer holds %d rows, want %d", rows, len(f.remote))
				}
			}
		}()
	}
	wg.Wait()
	<-done
	got, _ := f.ask("repub-0", region)
	sameAnswer(t, "after the pushes", f.fresh(region), got)
	if f.router.Stats().NotModified == 0 {
		t.Error("no read was revalidated")
	}
}

// TestRegionNamingASiteTwiceIsRefused: a region that lists a site twice
// would count the site twice; it is refused, and over HTTP that is a 400.
func TestRegionNamingASiteTwiceIsRefused(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	sites, query, _ := fakeSites(t, dir, 2)
	g := startRepub(t, dir, "repub-0", query)
	waitFor(t, "scrapes", func() bool { return g.store.Rows() == len(sites) })
	count := func(region ...string) (int64, error) {
		resp, err := g.QueryContext(context.Background(), core.QueryOptions{SQL: "SELECT count(*) FROM Processor", Site: "repub-0", Region: region})
		if err != nil {
			return 0, err
		}
		return resp.ResultSet.Cell(0, 0).Value().(int64), nil
	}
	if n, err := count(sites[0]); n != 1 || err != nil {
		t.Fatalf("count over one site = %d, %v", n, err)
	}
	if n, err := count(sites[0], sites[0], sites[0]); err == nil {
		t.Errorf("a region naming %s three times counted %d rows", sites[0], n)
	}
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	body := fmt.Sprintf(`{"sql":"SELECT count(*) FROM Processor","site":"repub-0","region":[%q,%q]}`, sites[1], sites[1])
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("a region naming a site twice -> %d, want 400", resp.StatusCode)
	}
}

// metricName is the one rule from a Stats field to its metric: Foo is the
// counter gridrm_repub_foo_total, and the int gauge StoredRows is
// gridrm_repub_stored_rows.
func metricName(field reflect.StructField) string {
	var b strings.Builder
	b.WriteString("gridrm_repub_")
	for i, r := range field.Name {
		if unicode.IsUpper(r) && i > 0 {
			b.WriteByte('_')
		}
		b.WriteRune(unicode.ToLower(r))
	}
	if field.Type.Kind() == reflect.Int64 {
		b.WriteString("_total")
	}
	return b.String()
}

// TestMetricsServeEveryStatsField scrapes the republisher's GET /metrics:
// every field of Stats has its metric, by one naming rule, and reads what
// Stats reads.
func TestMetricsServeEveryStatsField(t *testing.T) {
	f := newRevalFixture(t)
	region := core.QueryOptions{SQL: "SELECT HostName FROM Processor", Site: "repub-0", Region: []string{"s1"}}
	f.ask("repub-0", region)
	f.ask("repub-0", region)
	resp, err := http.Get(f.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := metrics.Parse(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	st := reflect.ValueOf(f.rp.Stats())
	for i := 0; i < st.NumField(); i++ {
		field := st.Type().Field(i)
		name := metricName(field)
		if got, ok := ex.Samples[name]; !ok || got != float64(st.Field(i).Int()) {
			t.Errorf("Stats.%s = %d: /metrics has %s = %v (present %v)", field.Name, st.Field(i).Int(), name, got, ok)
		}
	}
	if f.rp.Stats().NotModified != 1 {
		t.Errorf("NotModified = %d, want 1", f.rp.Stats().NotModified)
	}
}
