package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"gridrm/internal/breaker"
	"gridrm/internal/drivers/memdrv"
	"gridrm/internal/qcache"
	"gridrm/internal/security"
	"gridrm/internal/trace"
)

// cachedFixture is the dashboard query in miniature: eight one-host sources,
// each behind its own driver so a test can fail or block exactly one, on a
// fake clock with a 10 s cache TTL, a stale-grace window and a one-failure
// breaker.
type cachedFixture struct {
	g     *Gateway
	drvs  []*memDriver
	urls  []string
	now   *time.Time
	admin security.Principal
	// onClock, when set, runs on every read of the gateway's clock: a hook
	// on the query's own path.
	onClock func()
}

const cachedSources = 8

func newCachedFixture(t *testing.T, cfg Config) *cachedFixture {
	t.Helper()
	now := time.Unix(300000, 0)
	fx := &cachedFixture{now: &now, admin: security.Principal{Name: "admin", Roles: []string{"operator"}}}
	cfg.Name = "cachedsite"
	cfg.Clock = func() time.Time {
		if fx.onClock != nil {
			fx.onClock()
		}
		return now
	}
	cfg.Cache = qcache.Options{TTL: 10 * time.Second}
	cfg.StaleGrace = 10 * time.Minute
	cfg.Breaker = breaker.Options{Threshold: 1, Cooldown: time.Hour}
	fx.g = New(cfg)
	t.Cleanup(fx.g.Close)
	for i := 0; i < cachedSources; i++ {
		proto := fmt.Sprintf("c%d", i)
		d := &memDriver{name: "jdbc-" + proto, proto: proto, hosts: []string{proto + "-host"}, load: float64(i)}
		if err := fx.g.RegisterDriver(d, d.schema()); err != nil {
			t.Fatal(err)
		}
		url := "gridrm:" + proto + "://agent:1"
		if err := fx.g.AddSource(SourceConfig{URL: url}); err != nil {
			t.Fatal(err)
		}
		fx.drvs = append(fx.drvs, d)
		fx.urls = append(fx.urls, url)
	}
	return fx
}

const dashboardSQL = "SELECT HostName, LoadLast1Min FROM Processor"

func (fx *cachedFixture) query(t *testing.T, opts QueryOptions) *Response {
	t.Helper()
	if opts.Principal.Name == "" {
		opts.Principal = fx.admin
	}
	if opts.SQL == "" {
		opts.SQL = dashboardSQL
	}
	resp, err := fx.g.QueryContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func hostsOf(resp *Response) []string {
	var hosts []string
	for i := 0; i < resp.ResultSet.Len(); i++ {
		hosts = append(hosts, resp.ResultSet.RowAt(i)[0].(string))
	}
	return hosts
}

// TestCachedAllHitStartsNoGoroutine: a query every source of which is fresh
// in the cache is answered on the caller's goroutine. The gateway's clock is
// read between the per-source lookups, so a goroutine started for any source
// is alive at one of those reads and shows in the count taken there.
func TestCachedAllHitStartsNoGoroutine(t *testing.T) {
	fx := newCachedFixture(t, Config{})
	fx.query(t, QueryOptions{}) // warm: eight harvests
	harvests := fx.g.Stats().Harvests
	runtime.Gosched()
	baseline, peak := runtime.NumGoroutine(), 0
	fx.onClock = func() { peak = max(peak, runtime.NumGoroutine()) }
	for i := 0; i < 1000; i++ {
		if resp := fx.query(t, QueryOptions{}); resp.ResultSet.Len() != cachedSources {
			t.Fatalf("query %d: %d rows", i, resp.ResultSet.Len())
		}
	}
	fx.onClock = nil
	if peak > baseline {
		t.Errorf("goroutines peaked at %d during all-hit queries, %d before them", peak, baseline)
	}
	if st := fx.g.Stats(); st.Harvests != harvests || st.CacheServed < 1000*cachedSources {
		t.Errorf("harvests %d → %d, cache served %d", harvests, st.Harvests, st.CacheServed)
	}
}

// TestCachedAllHitAllocBudget holds the engine's own share of the dashboard
// query: QueryContext naming eight fresh sources, SELECT * so that nothing is
// projected, traced (the default sample rate is 1). Measured at 13
// allocations (14 while the harvest SQL was built for every query): the
// target list, the status and result slices, the answer set, its column
// headers and one array for each of the two columns that hold values (the
// cached sets are the parts it is evaluated over, copied once), the
// response, and the trace (recorder, second chunk, two ID strings, the span's
// context).
func TestCachedAllHitAllocBudget(t *testing.T) {
	const measured = 13
	fx := newCachedFixture(t, Config{})
	opts := QueryOptions{Principal: fx.admin, SQL: "SELECT * FROM Processor", Sources: fx.urls}
	fx.query(t, opts)
	got := testing.AllocsPerRun(200, func() {
		if _, err := fx.g.QueryContext(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("all-hit cached query: %.0f allocs", got)
	if got > measured+2 {
		t.Errorf("all-hit cached query allocates %.0f times, budget %d + 2 (the race runtime's own)", got, measured)
	}
}

// TestHarvestAllocBudget holds the miss path's share: one real-time
// QueryContext naming eight sources of one memdrv driver, every connection
// pooled, traced, history on. Measured at 133 allocations, 16.6 a harvest,
// where 170e241 measured 177 and 22.1: a harvest no longer makes a statement
// (the pooled connection keeps one) or a deadline of its own (4; the query
// derives one harvest budget for all its sources), and starting its goroutine
// allocates once, not twice. What is left, a harvest: memdrv's boxed rows (7),
// the source's goroutine, and one each for the span's context, the pooled
// handle, the flight and the cache's copy of the set header.
func TestHarvestAllocBudget(t *testing.T) {
	const measured = 133
	g := New(Config{Name: "harvestsite"})
	t.Cleanup(g.Close)
	d := memdrv.New("jdbc-mem", "mem", memdrv.NewBackend([]string{"h1"}))
	if err := g.RegisterDriver(d, d.Schema()); err != nil {
		t.Fatal(err)
	}
	opts := QueryOptions{Principal: security.Principal{Name: "admin", Roles: []string{"operator"}},
		SQL: "SELECT * FROM Processor", Mode: ModeRealTime}
	for i := 0; i < cachedSources; i++ {
		url := fmt.Sprintf("gridrm:mem://agent%d:1", i)
		if err := g.AddSource(SourceConfig{URL: url}); err != nil {
			t.Fatal(err)
		}
		opts.Sources = append(opts.Sources, url)
	}
	poll := func() {
		resp, err := g.QueryContext(context.Background(), opts)
		if err != nil || resp.ResultSet.Len() != cachedSources {
			t.Fatalf("poll: %v, %+v", err, resp)
		}
	}
	poll() // dial the eight connections
	got := testing.AllocsPerRun(200, poll)
	if ps := g.Pool().Stats(); ps.Opens != cachedSources || ps.PingFailures != 0 {
		t.Fatalf("harvests were not pooled: %+v", ps)
	}
	t.Logf("real-time query over %d pooled sources: %.0f allocs, %.1f a harvest", cachedSources, got, got/cachedSources)
	budget := float64(measured + 2)
	if raceEnabled {
		budget += 2 * cachedSources // the race runtime allocates for each goroutine
	}
	if got > budget {
		t.Errorf("real-time query over %d pooled sources allocates %.0f times, budget %.0f", cachedSources, got, budget)
	}
}

// TestCachedMixedQuery: one query whose eight sources end on different rungs
// — five fresh hits, one FGSL-denied source whose rows are in the cache, one
// breaker-open source with a stale entry, one miss — reports them in target
// order with the statuses and counter deltas the one-goroutine-per-source
// engine gave (the table was written by running this test at the parent
// commit, 4403b6b).
func TestCachedMixedQuery(t *testing.T) {
	fine := security.OpenFinePolicy()
	fx := newCachedFixture(t, Config{Fine: fine})
	guest := security.Principal{Name: "guest"}
	fine.Add(security.FineRule{Principal: "guest", Source: fx.urls[5], Decision: security.Deny})

	fx.query(t, QueryOptions{}) // every source cached at t0
	*fx.now = fx.now.Add(30 * time.Second)
	fx.drvs[6].fail.Store(true)
	fx.query(t, QueryOptions{Sources: fx.urls[6:7]}) // c6 fails: breaker opens, its t0 entry is stale
	fx.query(t, QueryOptions{Sources: fx.urls[:6]})  // c0..c5 fresh again at t0+30s
	fx.g.Cache().InvalidateSource(fx.urls[7])        // c7 will miss

	before := fx.g.Stats()
	resp := fx.query(t, QueryOptions{Principal: guest})
	after := fx.g.Stats()

	t0 := time.Unix(300000, 0)
	t30 := t0.Add(30 * time.Second)
	want := []SourceStatus{
		{Source: fx.urls[0], Driver: "jdbc-c0", Cached: true, HarvestedAt: t30, Rows: 1},
		{Source: fx.urls[1], Driver: "jdbc-c1", Cached: true, HarvestedAt: t30, Rows: 1},
		{Source: fx.urls[2], Driver: "jdbc-c2", Cached: true, HarvestedAt: t30, Rows: 1},
		{Source: fx.urls[3], Driver: "jdbc-c3", Cached: true, HarvestedAt: t30, Rows: 1},
		{Source: fx.urls[4], Driver: "jdbc-c4", Cached: true, HarvestedAt: t30, Rows: 1},
		{Source: fx.urls[5], Err: "permission denied"},
		{Source: fx.urls[6], Driver: "jdbc-c6", HarvestedAt: t0, Rows: 1, Err: ErrCircuitOpen,
			Degraded: DegradedStaleCache, Age: 30 * time.Second},
		{Source: fx.urls[7], Driver: "jdbc-c7", HarvestedAt: t30, Rows: 1},
	}
	if len(resp.Sources) != len(want) {
		t.Fatalf("%d statuses, want %d: %+v", len(resp.Sources), len(want), resp.Sources)
	}
	for i, w := range want {
		if got := resp.Sources[i]; got != w {
			t.Errorf("Sources[%d]\n got %+v\nwant %+v", i, got, w)
		}
	}
	wantHosts := []string{"c0-host", "c1-host", "c2-host", "c3-host", "c4-host", "c6-host", "c7-host"}
	if got := hostsOf(resp); fmt.Sprint(got) != fmt.Sprint(wantHosts) {
		t.Errorf("rows %v, want %v", got, wantHosts)
	}
	delta := Stats{
		CacheServed:      after.CacheServed - before.CacheServed,
		Denied:           after.Denied - before.Denied,
		Timeouts:         after.Timeouts - before.Timeouts,
		Coalesced:        after.Coalesced - before.Coalesced,
		BreakerSkipped:   after.BreakerSkipped - before.BreakerSkipped,
		StaleServes:      after.StaleServes - before.StaleServes,
		HistoryFallbacks: after.HistoryFallbacks - before.HistoryFallbacks,
		Harvests:         after.Harvests - before.Harvests,
	}
	if wantDelta := (Stats{CacheServed: 5, Denied: 1, BreakerSkipped: 1, StaleServes: 1, Harvests: 1}); delta != wantDelta {
		t.Errorf("counter deltas %+v, want %+v", delta, wantDelta)
	}
}

// TestCachedDeniedSourceNotServedFromCache: the inline rung is not a route
// around the FGSL. A source whose rows are fresh in the cache is still denied
// to a principal a rule denies: no rows, "permission denied", Denied +1, and
// nothing counted as served from cache.
func TestCachedDeniedSourceNotServedFromCache(t *testing.T) {
	fine := security.OpenFinePolicy()
	fx := newCachedFixture(t, Config{Fine: fine})
	fine.Add(security.FineRule{Principal: "guest", Source: fx.urls[2], Decision: security.Deny})
	fx.query(t, QueryOptions{}) // admin fills the cache, c2 included
	before := fx.g.Stats()
	resp := fx.query(t, QueryOptions{Principal: security.Principal{Name: "guest"}, Sources: fx.urls[2:3]})
	after := fx.g.Stats()
	if st := resp.Sources[0]; st.Err != "permission denied" || st.Cached || st.Rows != 0 || resp.ResultSet.Len() != 0 {
		t.Errorf("denied source answered: %+v, %d rows", st, resp.ResultSet.Len())
	}
	if d, c := after.Denied-before.Denied, after.CacheServed-before.CacheServed; d != 1 || c != 0 {
		t.Errorf("Denied +%d, CacheServed +%d; want +1, +0", d, c)
	}
}

// TestCachedDeadlineMarksOnlyTheMiss: seven sources hit, the eighth misses
// and its harvest blocks past the request's Timeout. The seven are returned,
// the eighth is marked ErrTimedOut, Timeouts moves by one.
func TestCachedDeadlineMarksOnlyTheMiss(t *testing.T) {
	fx := newCachedFixture(t, Config{})
	gate := &gateDriver{name: "jdbc-gate", proto: "gate", hosts: []string{"gated"}, gate: make(chan struct{})}
	t.Cleanup(func() { close(gate.gate) }) // runs before the gateway's Close
	if err := fx.g.RegisterDriver(gate, gate.schema()); err != nil {
		t.Fatal(err)
	}
	fx.query(t, QueryOptions{Sources: fx.urls[:7]})
	slow := "gridrm:gate://agent:1"
	if err := fx.g.AddSource(SourceConfig{URL: slow, Drivers: []string{gate.name}}); err != nil {
		t.Fatal(err)
	}
	before := fx.g.Stats()
	resp := fx.query(t, QueryOptions{Sources: append(fx.urls[:7:7], slow), Timeout: 50 * time.Millisecond})
	if got := hostsOf(resp); len(got) != 7 {
		t.Errorf("rows %v, want the seven cached hosts", got)
	}
	for i, st := range resp.Sources[:7] {
		if !st.Cached || st.Err != "" {
			t.Errorf("Sources[%d] = %+v, want a cache hit", i, st)
		}
	}
	if st := resp.Sources[7]; st.Source != slow || st.Err != ErrTimedOut || st.Rows != 0 {
		t.Errorf("Sources[7] = %+v, want %s timed out", st, slow)
	}
	if d := fx.g.Stats().Timeouts - before.Timeouts; d != 1 {
		t.Errorf("Timeouts +%d, want +1", d)
	}
}

// TestCachedSpanShape: a hit is one "source" span carrying url and cached and
// nothing below it; a miss is the same one span with harvest → driver-execute
// below; and every span the query started is ended and in the stored trace.
func TestCachedSpanShape(t *testing.T) {
	fx := newCachedFixture(t, Config{})
	fx.query(t, QueryOptions{})
	fx.g.Cache().InvalidateSource(fx.urls[3])
	resp := fx.query(t, QueryOptions{Trace: trace.DecideOn})
	td, ok := fx.g.Tracer().Trace(resp.TraceID)
	if !ok {
		t.Fatalf("trace %q not stored", resp.TraceID)
	}
	if len(td.Roots) != 1 || td.Roots[0].Name != "query" {
		t.Fatalf("roots %+v, want one query span", td.Roots)
	}
	childNames := func(n *trace.Node) string {
		var names []string
		for _, c := range n.Children {
			names = append(names, c.Name)
		}
		sort.Strings(names)
		return fmt.Sprint(names)
	}
	sources := 0
	for _, s := range td.Roots[0].Children {
		if s.Name != "source" {
			continue
		}
		sources++
		switch {
		case s.Attrs["url"] != fx.urls[3]: // a hit
			if s.Attrs["cached"] != "true" || s.Attrs["url"] == "" || len(s.Children) != 0 {
				t.Errorf("hit span %+v has children %s, want url, cached=true and none", s.SpanData, childNames(s))
			}
		case s.Attrs["cached"] != "" || childNames(s) != "[harvest]":
			t.Errorf("miss span %+v has children %s, want one harvest", s.SpanData, childNames(s))
		case childNames(s.Children[0]) != "[driver-execute pool-checkout]":
			t.Errorf("harvest children %s, want pool-checkout and driver-execute", childNames(s.Children[0]))
		}
	}
	if sources != cachedSources || len(td.Roots[0].Children) != cachedSources+2 {
		t.Errorf("spans under the query: %s", childNames(td.Roots[0]))
	}
	// query, parse, consolidate, one span a source, three more under the miss:
	// everything started, so nothing was started and left open.
	if want := 3 + cachedSources + 3; td.Spans != want {
		t.Errorf("%d spans stored, want %d", td.Spans, want)
	}
}

// TestSharedResultAliasing is the shared-result contract seen from the
// query API, for -race: eight clients read the same cached sources while a
// poller keeps replacing or dropping the entries. A source's rows in any
// response are one harvest's rows exactly (the driver stamps each harvest
// with its call number), in harvest order — although every client sorts the
// response it was handed, which shares its rows with the cache, with a
// coalesced flight's other callers and with the next answer.
func TestSharedResultAliasing(t *testing.T) {
	hosts := []string{"h-a", "h-b", "h-c"}
	d := &gateDriver{name: "jdbc-gen", proto: "gen", hosts: hosts}
	g := newGateFixture(t, d, Config{Cache: qcache.Options{TTL: time.Hour}}, 4)
	opts := QueryOptions{Principal: coalescePrincipal, SQL: "SELECT * FROM Processor"}
	if _, err := g.QueryContext(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var poller, clients sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			url := fmt.Sprintf("gridrm:gen://h%d:1", i%4)
			if i/4%2 == 1 {
				// The clients miss, and share one harvest's rows as the
				// leader and followers of a coalesced flight.
				g.Cache().InvalidateSource(url)
			} else if _, err := g.PollContext(context.Background(), coalescePrincipal, url, "Processor"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for c := 0; c < 8; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := 0; i < 100; i++ {
				resp, err := g.QueryContext(context.Background(), opts)
				if err != nil {
					t.Error(err)
					return
				}
				rs := resp.ResultSet
				if rs.Len() != 4*len(hosts) {
					t.Errorf("%d rows, want %d", rs.Len(), 4*len(hosts))
					return
				}
				hostCol, loadCol := rs.Metadata().ColumnIndex("HostName"), rs.Metadata().ColumnIndex("LoadLast1Min")
				for r := 0; r < rs.Len(); r++ {
					first, row := rs.RowAt(r-r%len(hosts)), rs.RowAt(r)
					if row[hostCol] != hosts[r%len(hosts)] || row[loadCol] != first[loadCol] {
						t.Errorf("row %d = %v/%v: not row %d of the harvest stamped %v",
							r, row[hostCol], row[loadCol], r%len(hosts), first[loadCol])
						return
					}
				}
				if err := rs.SortBy("HostName", true); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	clients.Wait()
	close(stop)
	poller.Wait()
}
