package repub

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/gma"
	"gridrm/internal/httpjson"
	"gridrm/internal/resultset"
	"gridrm/internal/router"
	"gridrm/internal/web"
)

// procRows builds a Processor ResultSet with one row per (host, load).
func procRows(t *testing.T, rows ...[2]any) *resultset.ResultSet {
	t.Helper()
	g, ok := glue.Lookup(glue.GroupProcessor)
	if !ok {
		t.Fatal("Processor group missing")
	}
	meta, err := resultset.MetadataForGroup(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := resultset.NewBuilder(meta)
	for _, r := range rows {
		row := make([]any, meta.ColumnCount())
		row[meta.ColumnIndex("HostName")] = r[0]
		row[meta.ColumnIndex("LoadLast1Min")] = r[1]
		b.Append(row...)
	}
	rs, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestStoreSnapshotThenLiveTransition(t *testing.T) {
	s := NewStore()
	now := time.Now()
	s.SetSnapshot("A", glue.GroupProcessor, procRows(t, [2]any{"h1", 1.0}, [2]any{"h2", 2.0}), now)
	rs, fresh, ok := s.Merged(glue.GroupProcessor, []string{"A"})
	if !ok || rs.Len() != 2 || fresh[0].Live {
		t.Fatalf("snapshot view: ok=%v len=%d fresh=%+v", ok, rs.Len(), fresh)
	}
	// The first live row clears the snapshot: no double counting.
	cols := []string{"HostName", "LoadLast1Min"}
	s.Upsert("A", glue.GroupProcessor, "src1", cols, []any{"h1", 5.0}, now.Add(time.Second))
	rs, fresh, ok = s.Merged(glue.GroupProcessor, []string{"A"})
	if !ok || rs.Len() != 1 || !fresh[0].Live {
		t.Fatalf("live view: ok=%v len=%d fresh=%+v", ok, rs.Len(), fresh)
	}
	load, err := rs.GetFloat("LoadLast1Min")
	rs.Next()
	if load, err = rs.GetFloat("LoadLast1Min"); err != nil || load != 5.0 {
		t.Fatalf("live row load = %v, %v", load, err)
	}
	// Later rows upsert by source: same source replaces, new source adds.
	s.Upsert("A", glue.GroupProcessor, "src1", cols, []any{"h1", 6.0}, now)
	s.Upsert("A", glue.GroupProcessor, "src2", cols, []any{"h2", 7.0}, now)
	rs, _, _ = s.Merged(glue.GroupProcessor, []string{"A"})
	if rs.Len() != 2 {
		t.Fatalf("after upserts len = %d, want 2", rs.Len())
	}
	s.RemoveSite("A")
	if _, _, ok := s.Merged(glue.GroupProcessor, []string{"A"}); ok {
		t.Fatal("removed site still answers")
	}
}

// A source that reports several hosts keeps one live row per host: rows are
// keyed by source plus the GLUE key cells, not by source alone.
func TestUpsertKeepsEveryHostOfASource(t *testing.T) {
	s := NewStore()
	now := time.Now()
	cols := []string{"HostName", "LoadLast1Min"}
	s.Upsert("A", glue.GroupProcessor, "src", cols, []any{"h1", 1.0}, now)
	s.Upsert("A", glue.GroupProcessor, "src", cols, []any{"h2", 2.0}, now)
	loads := func() map[string]float64 {
		rs, _, ok := s.Merged(glue.GroupProcessor, []string{"A"})
		if !ok {
			t.Fatal("no merged view")
		}
		out := make(map[string]float64)
		for rs.Next() {
			host, _ := rs.GetString("HostName")
			out[host], _ = rs.GetFloat("LoadLast1Min")
		}
		return out
	}
	if got := loads(); len(got) != 2 || got["h1"] != 1.0 || got["h2"] != 2.0 {
		t.Fatalf("two-host source: view = %v, want both hosts", got)
	}
	s.Upsert("A", glue.GroupProcessor, "src", cols, []any{"h1", 5.0}, now.Add(time.Second))
	if got := loads(); len(got) != 2 || got["h1"] != 5.0 || got["h2"] != 2.0 {
		t.Fatalf("after re-push of h1: view = %v, want h1 replaced, h2 kept", got)
	}
}

// A region answer shares the stored rows instead of copying them, so it
// must be a snapshot all the same: upserts that land while the answer is
// being read (run under -race) replace stored rows and never write into
// the ones the answer holds.
func TestMergedAnswerSurvivesLaterUpserts(t *testing.T) {
	s := NewStore()
	now := time.Now()
	cols := []string{"HostName", "LoadLast1Min"}
	s.SetSnapshot("A", glue.GroupProcessor, procRows(t, [2]any{"a1", 1.0}), now)
	for i := 0; i < 8; i++ {
		s.Upsert("B", glue.GroupProcessor, fmt.Sprint("src", i), cols, []any{fmt.Sprint("b", i), float64(i)}, now)
	}
	rs, _, ok := s.Merged(glue.GroupProcessor, []string{"A", "B"})
	if !ok || rs.Len() != 9 {
		t.Fatalf("merged view: ok=%v len=%d", ok, rs.Len())
	}
	before := rs.String()

	snaps := []*resultset.ResultSet{
		procRows(t, [2]any{"a1", 9.0}, [2]any{"a2", 0.5}),
		procRows(t, [2]any{"a1", 8.0}, [2]any{"a2", 0.25}),
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 1; round <= 50; round++ {
			for i := 0; i < 8; i++ {
				s.Upsert("B", glue.GroupProcessor, fmt.Sprint("src", i), cols, []any{fmt.Sprint("b", i), float64(100 * round)}, now)
			}
			s.SetSnapshot("A", glue.GroupProcessor, snaps[round%2], now)
		}
	}()
	for i := 0; i < 50; i++ {
		if got := rs.String(); got != before {
			t.Fatalf("answer changed under a later upsert:\n%s\nwas\n%s", got, before)
		}
	}
	<-done
	if got := rs.String(); got != before {
		t.Fatalf("answer changed after later upserts:\n%s\nwas\n%s", got, before)
	}
	if again, _, _ := s.Merged(glue.GroupProcessor, []string{"A", "B"}); again.Len() != 10 {
		t.Fatalf("fresh answer has %d rows, want 10", again.Len())
	}
}

// fakeSites registers n role-site records and returns a Query hook that
// serves a distinct Processor row per site.
func fakeSites(t *testing.T, dir *gma.Directory, n int) (sites []string, query QueryFunc, calls *atomic.Int64) {
	t.Helper()
	calls = &atomic.Int64{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("site-%d", i)
		sites = append(sites, name)
		if err := dir.RegisterContext(context.Background(), gma.Registration{Name: name, Endpoint: "http://" + name}); err != nil {
			t.Fatal(err)
		}
	}
	query = func(ctx context.Context, site string, req core.QueryOptions) (*core.Response, error) {
		calls.Add(1)
		if !strings.Contains(req.SQL, glue.GroupProcessor) {
			return &core.Response{ResultSet: procRows(t)}, nil
		}
		return &core.Response{ResultSet: procRows(t, [2]any{"host-" + site, float64(len(site))})}, nil
	}
	return sites, query, calls
}

func TestGatewayScrapesAndAnswersRegionQueries(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	sites, query, _ := fakeSites(t, dir, 3)
	g, err := New(Options{
		Name: "repub-0", Endpoint: "http://repub-0", Directory: dir,
		Groups: []string{glue.GroupProcessor}, Query: query,
		RefreshInterval: time.Hour, ScrapeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Stop(context.Background())
	if owns := g.Owns(); len(owns) != len(sites) {
		t.Fatalf("sole republisher owns %v, want all of %v", owns, sites)
	}
	// Self-registration carries the role and the shard.
	reg, ok, _ := dir.LookupContext(context.Background(), "repub-0")
	if !ok || reg.Role != gma.RoleRepublisher || len(reg.Owns) != 3 {
		t.Fatalf("self-registration = %+v, %v", reg, ok)
	}
	waitFor(t, "scrapes", func() bool { return g.store.Rows() == 3 })

	// Region query (Site == republisher name): merged rows of every site.
	resp, err := g.QueryContext(context.Background(), core.QueryOptions{
		SQL: "SELECT HostName FROM Processor", Site: "repub-0",
	})
	if err != nil || resp.ResultSet.Len() != 3 {
		t.Fatalf("region query = %v, %v", resp, err)
	}
	if resp.Site != "repub-0" || len(resp.Sources) != 3 {
		t.Fatalf("region response meta = %+v", resp)
	}
	// Aggregates work over the merged region view (the entry gateway
	// sends the partial-aggregate rewrite through this same path).
	resp, err = g.QueryContext(context.Background(), core.QueryOptions{
		SQL: "SELECT count(*) FROM Processor",
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.ResultSet.Next()
	if n, err := resp.ResultSet.GetInt("count(*)"); err != nil || n != 3 {
		t.Fatalf("region count = %d, %v", n, err)
	}

	// Owned-site query answers just that slice.
	resp, err = g.QueryContext(context.Background(), core.QueryOptions{
		SQL: "SELECT HostName FROM Processor", Site: "site-1",
	})
	if err != nil || resp.ResultSet.Len() != 1 {
		t.Fatalf("site query = %v, %v", resp, err)
	}
	// Unowned site and historical mode are refused (entry falls through).
	if _, err := g.QueryContext(context.Background(), core.QueryOptions{
		SQL: "SELECT HostName FROM Processor", Site: "elsewhere",
	}); err == nil {
		t.Fatal("unowned site did not error")
	}
	if _, err := g.QueryContext(context.Background(), core.QueryOptions{
		SQL: "SELECT HostName FROM Processor", Mode: core.ModeHistorical,
	}); err == nil {
		t.Fatal("historical query did not error")
	}
	st := g.Stats()
	if st.RegionQueries != 2 || st.SiteQueries != 1 || st.NotOwned != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGatewayRebalanceOnMembershipChange(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	sites, query, _ := fakeSites(t, dir, 8)
	g, err := New(Options{
		Name: "repub-0", Endpoint: "http://repub-0", Directory: dir,
		Groups: []string{glue.GroupProcessor}, Query: query,
		RefreshInterval: time.Hour, ScrapeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Stop(context.Background())
	if len(g.Owns()) != 8 {
		t.Fatalf("sole republisher owns %v", g.Owns())
	}
	// A second republisher joins: this one must shed the sites the ring
	// now places elsewhere, and drop their views.
	if err := dir.RegisterContext(context.Background(), gma.Registration{
		Name: "repub-1", Endpoint: "http://repub-1", Role: gma.RoleRepublisher,
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	owns := g.Owns()
	if len(owns) == 0 || len(owns) == len(sites) {
		t.Fatalf("after join owns %d of %d sites, want a strict subset", len(owns), len(sites))
	}
	if g.Stats().Rebalances == 0 {
		t.Fatal("rebalance not counted")
	}
	ring := gma.NewRing([]string{"repub-0", "repub-1"}, gma.DefaultVNodes)
	for _, s := range owns {
		if ring.Owner(s) != "repub-0" {
			t.Fatalf("owns %s which the ring places at %s", s, ring.Owner(s))
		}
	}
	// Shed sites are refused and their rows are gone from the view.
	var shed string
	ownSet := map[string]bool{}
	for _, s := range owns {
		ownSet[s] = true
	}
	for _, s := range sites {
		if !ownSet[s] {
			shed = s
			break
		}
	}
	if _, err := g.QueryContext(context.Background(), core.QueryOptions{
		SQL: "SELECT HostName FROM Processor", Site: shed,
	}); err == nil {
		t.Fatalf("shed site %s still answered", shed)
	}
}

func TestGatewaySubscriptionFeedsView(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	_, query, _ := fakeSites(t, dir, 1)
	push := router.New(router.Options{})
	subscribe := func(ctx context.Context, site, sql string) (*router.Subscription, error) {
		return push.Subscribe(router.SubscribeOptions{Name: site + ": " + sql})
	}
	g, err := New(Options{
		Name: "repub-0", Endpoint: "http://repub-0", Directory: dir,
		Groups: []string{glue.GroupProcessor}, Query: query, Subscribe: subscribe,
		RefreshInterval: time.Hour, ScrapeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Stop(context.Background())
	waitFor(t, "subscription", func() bool { return g.Stats().Subscriptions == 1 })
	rs := procRows(t, [2]any{"pushed-host", 9.0})
	rows := make([][]any, rs.Len())
	for i := range rows {
		rows[i] = rs.RowAt(i)
	}
	waitFor(t, "live row", func() bool {
		push.Publish("src1", glue.GroupProcessor, rs.Metadata().ColumnNames(), rows, time.Now())
		return g.Stats().LiveRows > 0
	})
	waitFor(t, "live view", func() bool {
		resp, err := g.QueryContext(context.Background(), core.QueryOptions{
			SQL: "SELECT HostName FROM Processor WHERE HostName = 'pushed-host'",
		})
		return err == nil && resp.ResultSet.Len() == 1
	})
}

// TestPartialScrapeIsRepeatedBeforeSubscribing: a scrape that came back
// short (one source timed out with no rows) is installed but must not
// become the base of the subscription hold — live rows only update what the
// view already has, so with a quiet feed the missing row would never
// arrive. The worker re-scrapes until the answer is complete, then
// subscribes.
func TestPartialScrapeIsRepeatedBeforeSubscribing(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	if err := dir.RegisterContext(context.Background(), gma.Registration{Name: "site-0", Endpoint: "http://site-0"}); err != nil {
		t.Fatal(err)
	}
	var scrapes atomic.Int64
	query := func(ctx context.Context, site string, req core.QueryOptions) (*core.Response, error) {
		if scrapes.Add(1) == 1 {
			return &core.Response{
				ResultSet: procRows(t, [2]any{"h1", 1.0}),
				Sources: []core.SourceStatus{
					{Source: "src1", Rows: 1},
					{Source: "src2", Err: core.ErrTimedOut},
				},
			}, nil
		}
		return &core.Response{
			ResultSet: procRows(t, [2]any{"h1", 1.0}, [2]any{"h2", 2.0}),
			Sources:   []core.SourceStatus{{Source: "src1", Rows: 1}, {Source: "src2", Rows: 1}},
		}, nil
	}
	push := router.New(router.Options{}) // a feed that never publishes
	g, err := New(Options{
		Name: "repub-0", Endpoint: "http://repub-0", Directory: dir,
		Groups: []string{glue.GroupProcessor}, Query: query,
		Subscribe: func(ctx context.Context, site, sql string) (*router.Subscription, error) {
			return push.Subscribe(router.SubscribeOptions{Name: site})
		},
		RefreshInterval: time.Hour, ScrapeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Stop(context.Background())
	waitFor(t, "complete view", func() bool { return g.store.Rows() == 2 })
	waitFor(t, "subscription after the complete scrape", func() bool { return g.Stats().Subscriptions == 1 })
	if n := scrapes.Load(); n != 2 {
		t.Errorf("scrapes = %d, want 2 (partial, then complete, then hold)", n)
	}
}

func TestHandlerSpeaksServletWireProtocol(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	_, query, _ := fakeSites(t, dir, 2)
	g, err := New(Options{
		Name: "repub-0", Endpoint: "http://repub-0", Directory: dir,
		Groups: []string{glue.GroupProcessor}, Query: query,
		RefreshInterval: time.Hour, ScrapeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Stop(context.Background())
	waitFor(t, "scrapes", func() bool { return g.store.Rows() == 2 })
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	// The same client call the resilient router makes against a site.
	resp, err := web.RemoteQueryContext(context.Background(), srv.URL, core.QueryOptions{
		SQL: "SELECT HostName FROM Processor", Site: "repub-0",
	})
	if err != nil || resp.ResultSet.Len() != 2 {
		t.Fatalf("wire query = %v, %v", resp, err)
	}
	// Errors surface as HTTP errors the client maps to Go errors.
	if _, err := web.RemoteQueryContext(context.Background(), srv.URL, core.QueryOptions{
		SQL: "SELECT HostName FROM Processor", Site: "not-owned",
	}); err == nil {
		t.Fatal("unowned wire query did not error")
	}
	// A non-finite load in a view is a NULL cell, not an empty 200.
	g.store.SetSnapshot("site-0", glue.GroupProcessor, procRows(t, [2]any{"h0", math.NaN()}), time.Now())
	resp, err = web.RemoteQueryContext(context.Background(), srv.URL, core.QueryOptions{
		SQL: "SELECT HostName, LoadLast1Min FROM Processor", Site: "site-0",
	})
	if err != nil || resp.ResultSet.Len() != 1 || resp.ResultSet.RowAt(0)[0] != "h0" || resp.ResultSet.RowAt(0)[1] != nil {
		t.Fatalf("NaN view over the wire = %v, %v", resp, err)
	}
	// An oversized request is refused by the same rule as on a site servlet.
	big, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(`{"sql":"`+strings.Repeat("x", httpjson.MaxRequestBody)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	big.Body.Close()
	if big.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized request -> %d, want 413", big.StatusCode)
	}
}

// A caller that pins the region (the entry gateway's fan-out legs) gets
// exactly those sites — never the republisher's full shard, which may also
// mirror the caller's own site — and a refusal when the shard drifted.
func TestRegionPinnedToCallerCoverage(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	sites, query, _ := fakeSites(t, dir, 3)
	g, err := New(Options{
		Name: "repub-0", Endpoint: "http://repub-0", Directory: dir,
		Groups: []string{glue.GroupProcessor}, Query: query,
		RefreshInterval: time.Hour, ScrapeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Stop(context.Background())
	waitFor(t, "scrapes", func() bool { return g.store.Rows() == len(sites) })

	resp, err := g.QueryContext(context.Background(), core.QueryOptions{
		SQL: "SELECT HostName FROM Processor", Site: "repub-0",
		Region: sites[:2],
	})
	if err != nil || resp.ResultSet.Len() != 2 {
		t.Fatalf("pinned region query = %v, %v (want 2 rows)", resp, err)
	}
	if _, err := g.QueryContext(context.Background(), core.QueryOptions{
		SQL: "SELECT HostName FROM Processor", Site: "repub-0",
		Region: []string{sites[0], "site-not-owned"},
	}); err == nil {
		t.Fatal("drifted region coverage did not refuse")
	}
}

// TestRegionAnswerAllocations: a region answer — Store.Merged, then the wire
// encoding — costs the same allocations for a view of 20 rows and one of 400:
// the stored rows' cells are copied into the answer's columns, one array a
// column and site, and nothing is allocated a row. Measured at 11 for two
// sites when written.
func TestRegionAnswerAllocations(t *testing.T) {
	answer := func(hosts int) float64 {
		s := NewStore()
		now := time.Now()
		for _, site := range []string{"A", "B"} {
			for i := 0; i < hosts; i++ {
				s.Upsert(site, glue.GroupProcessor, fmt.Sprint(site, "-src", i/2), []string{"HostName", "LoadLast1Min"},
					[]any{fmt.Sprint(site, "-host", i), float64(i)}, now)
			}
		}
		var buf []byte
		return testing.AllocsPerRun(50, func() {
			rs, _, ok := s.Merged(glue.GroupProcessor, []string{"A", "B"})
			if !ok || rs.Len() != 2*hosts {
				t.Fatalf("merged %d rows, want %d", rs.Len(), 2*hosts)
			}
			var err error
			if buf, err = web.EncodeResponse(&core.Response{ResultSet: rs}).AppendJSON(buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := answer(10), answer(200)
	t.Logf("region answer: %.0f allocations for 20 rows, %.0f for 400", small, large)
	if (small != large || large > 13) && !raceEnabled {
		t.Errorf("a region answer of 20 rows took %.0f allocations and one of 400 took %.0f, want the same and ≤ 13", small, large)
	}
}
