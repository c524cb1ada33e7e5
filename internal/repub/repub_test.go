package repub

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/gma"
	"gridrm/internal/httpjson"
	"gridrm/internal/metrics"
	"gridrm/internal/resultset"
	"gridrm/internal/sqlparse"
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

var selectAll = &sqlparse.Query{Table: glue.GroupProcessor, Limit: -1}

// merged is the region answer to SELECT * over the sites' views, evaluated
// as QueryContext evaluates it; ok is false when no site has a view.
func merged(t *testing.T, s *Store, group string, sites []string) (*resultset.ResultSet, []SiteFreshness, bool) {
	t.Helper()
	meta, parts, fresh, _ := s.Parts(group, sites)
	if meta == nil {
		return nil, fresh, false
	}
	rs, err := sqlparse.ApplyToParts(selectAll, meta, parts)
	if err != nil {
		t.Fatal(err)
	}
	return rs, fresh, true
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
	rs, fresh, ok := merged(t, s, glue.GroupProcessor, []string{"A"})
	if !ok || rs.Len() != 2 || fresh[0].Live {
		t.Fatalf("snapshot view: ok=%v len=%d fresh=%+v", ok, rs.Len(), fresh)
	}
	// The first live row replaces its own host's snapshot row and keeps the
	// rest: h1 is counted once, from the push, and h2 stays.
	cols := []string{"HostName", "LoadLast1Min"}
	s.Upsert("A", glue.GroupProcessor, "src1", cols, []any{"h1", 5.0}, now.Add(time.Second))
	rs, fresh, ok = merged(t, s, glue.GroupProcessor, []string{"A"})
	if !ok || rs.Len() != 2 || !fresh[0].Live {
		t.Fatalf("live view: ok=%v len=%d fresh=%+v", ok, rs.Len(), fresh)
	}
	loads := map[string]float64{}
	for rs.Next() {
		host, _ := rs.GetString("HostName")
		loads[host], _ = rs.GetFloat("LoadLast1Min")
	}
	if loads["h1"] != 5.0 || loads["h2"] != 2.0 {
		t.Fatalf("live view loads = %v, want h1 pushed (5) and h2 scraped (2)", loads)
	}
	// Later rows upsert by source: same source replaces, new source adds.
	s.Upsert("A", glue.GroupProcessor, "src1", cols, []any{"h1", 6.0}, now)
	s.Upsert("A", glue.GroupProcessor, "src2", cols, []any{"h2", 7.0}, now)
	rs, _, _ = merged(t, s, glue.GroupProcessor, []string{"A"})
	if rs.Len() != 2 {
		t.Fatalf("after upserts len = %d, want 2", rs.Len())
	}
	s.RemoveSite("A")
	if _, _, ok := merged(t, s, glue.GroupProcessor, []string{"A"}); ok {
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
		rs, _, ok := merged(t, s, glue.GroupProcessor, []string{"A"})
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

// A region answer shares a stored snapshot instead of copying it, so it must
// be a snapshot all the same: upserts and new snapshots that land while
// answers are being read and built (run under -race) replace what the store
// holds and never write into what an answer holds.
func TestMergedAnswerSurvivesLaterUpserts(t *testing.T) {
	s := NewStore()
	now := time.Now()
	cols := []string{"HostName", "LoadLast1Min"}
	s.SetSnapshot("A", glue.GroupProcessor, procRows(t, [2]any{"a1", 1.0}), now)
	for i := 0; i < 8; i++ {
		s.Upsert("B", glue.GroupProcessor, fmt.Sprint("src", i), cols, []any{fmt.Sprint("b", i), float64(i)}, now)
	}
	var answers []*resultset.ResultSet
	for _, sites := range [][]string{{"A", "B"}, {"A"}, {"B"}} {
		rs, _, ok := merged(t, s, glue.GroupProcessor, sites)
		if !ok {
			t.Fatalf("no view of %v", sites)
		}
		answers = append(answers, rs)
	}
	if n := answers[0].Len(); n != 9 {
		t.Fatalf("merged view has %d rows, want 9", n)
	}
	before := make([]string, len(answers))
	for i, rs := range answers {
		before[i] = rs.String()
	}
	check := func(when string) {
		for i, rs := range answers {
			if got := rs.String(); got != before[i] {
				t.Fatalf("answer changed %s:\n%s\nwas\n%s", when, got, before[i])
			}
		}
	}

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
			s.Upsert("A", glue.GroupProcessor, "srcA", cols, []any{"a2", float64(round)}, now) // holds the snapshot's other rows
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() { // readers building the live set while it is written
			defer readers.Done()
			for i := 0; i < 50; i++ {
				if rs, _, _ := merged(t, s, glue.GroupProcessor, []string{"B"}); rs.Len() != 8 {
					t.Errorf("live view has %d rows, want 8", rs.Len())
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		check("under a later upsert")
	}
	<-done
	readers.Wait()
	check("after later upserts")
	if again, _, _ := merged(t, s, glue.GroupProcessor, []string{"A", "B"}); again.Len() != 10 {
		t.Fatalf("fresh answer has %d rows, want 10", again.Len())
	}
}

// deadEndpoint is a local address nothing listens on: a feed opened to it
// is refused at once.
func deadEndpoint(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	return "http://" + ln.Addr().String()
}

// fakeSites registers n role-site records and returns a Query hook that
// serves a distinct Processor row per site. The records name an endpoint
// nothing listens on, so the sites' feeds stay down; childSite gives a site
// a servlet to feed from.
func fakeSites(t *testing.T, dir *gma.Directory, n int) (sites []string, query QueryFunc, calls *atomic.Int64) {
	t.Helper()
	calls = &atomic.Int64{}
	dead := deadEndpoint(t)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("site-%d", i)
		sites = append(sites, name)
		if err := dir.RegisterContext(context.Background(), gma.Registration{Name: name, Endpoint: dead, Groups: []string{glue.GroupProcessor}}); err != nil {
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
		Query:           query,
		RefreshInterval: time.Hour, ScrapeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	if owns := g.Owns(); len(owns) != len(sites) {
		t.Fatalf("sole republisher owns %v, want all of %v", owns, sites)
	}
	// Self-registration carries the role and the endpoint, and the
	// registrar that keeps it reports on the republisher's /metrics.
	reg, ok, _ := dir.LookupContext(context.Background(), "repub-0")
	if !ok || reg.Role != gma.RoleRepublisher || reg.Endpoint != "http://repub-0" {
		t.Fatalf("self-registration = %+v, %v", reg, ok)
	}
	ex, err := metrics.Scrape(g.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	if ex.Samples["gridrm_directory_reachable"] != 1 || ex.Samples["gridrm_directory_registrations_total"] < 1 {
		t.Fatalf("registrar series = reachable %v, registrations %v", ex.Samples["gridrm_directory_reachable"], ex.Samples["gridrm_directory_registrations_total"])
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

// startRepub starts a republisher over dir with no refresh tick to speak
// of: whatever it does after Start, a directory change made it do.
func startRepub(t *testing.T, dir gma.DirectoryService, name string, query QueryFunc) *Gateway {
	t.Helper()
	g, err := New(Options{
		Name: name, Endpoint: "http://" + name, Directory: dir,
		Query:           query,
		RefreshInterval: time.Hour, ScrapeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Stop() })
	return g
}

// ownedByRing reports whether g owns exactly what the ring over repubs
// places on it.
func ownedByRing(g *Gateway, sites, repubs []string) bool {
	ring := gma.NewRing(repubs, gma.DefaultVNodes)
	var want []string
	for _, s := range sites {
		if ring.Owner(s) == g.Name() {
			want = append(want, s)
		}
	}
	return slices.Equal(g.Owns(), want)
}

// TestGatewayRebalanceOnMembershipChange: a republisher sheds the sites the
// ring gives a joining peer, and drops their views, with no refresh tick.
func TestGatewayRebalanceOnMembershipChange(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	sites, query, _ := fakeSites(t, dir, 8)
	g := startRepub(t, dir, "repub-0", query)
	if len(g.Owns()) != 8 {
		t.Fatalf("sole republisher owns %v", g.Owns())
	}
	// A second republisher joins: with no tick due for an hour, this one
	// must shed the sites the ring now places elsewhere, and drop their
	// views.
	if err := dir.RegisterContext(context.Background(), gma.Registration{
		Name: "repub-1", Endpoint: "http://repub-1", Role: gma.RoleRepublisher,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the shed", func() bool { return ownedByRing(g, sites, []string{"repub-0", "repub-1"}) })
	owns := g.Owns()
	if len(owns) == 0 || len(owns) == len(sites) {
		t.Fatalf("after join owns %d of %d sites, want a strict subset", len(owns), len(sites))
	}
	if st := g.Stats(); st.Rebalances == 0 || st.MembershipChanges == 0 {
		t.Fatalf("rebalance not counted: %+v", st)
	}
	// Shed sites are refused and their rows are gone from the view.
	shed := slices.DeleteFunc(slices.Clone(sites), func(s string) bool { return slices.Contains(owns, s) })[0]
	if _, err := g.QueryContext(context.Background(), core.QueryOptions{
		SQL: "SELECT HostName FROM Processor", Site: shed,
	}); err == nil {
		t.Fatalf("shed site %s still answered", shed)
	}
}

// TestUnchangedDigestKeepsTheShard: a republisher watching an HTTP
// directory whose membership does not change gets a 304 for every watch,
// and keeps its shard as it stands: the same workers, no rebalance, and no
// membership change.
func TestUnchangedDigestKeepsTheShard(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	sites, query, _ := fakeSites(t, dir, 4)
	var notModified atomic.Int64
	h := dir.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code == http.StatusNotModified && r.URL.Query().Has("wait") {
			notModified.Add(1)
		}
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(srv.Close)
	g, err := New(Options{
		Name: "repub-0", Endpoint: "http://repub-0", Directory: &gma.DirectoryClient{BaseURL: srv.URL},
		Query: query, RefreshInterval: 20 * time.Millisecond, ScrapeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	// Settled once the republisher's own record is in the membership.
	waitFor(t, "the shard", func() bool {
		return ownedByRing(g, sites, []string{"repub-0"}) && g.Membership().Members == len(sites)+1
	})
	workers := func() map[string]*siteWorker {
		g.mu.Lock()
		defer g.mu.Unlock()
		return maps.Clone(g.workers)
	}
	before, stats, membership := workers(), g.Stats(), g.Membership()
	waitFor(t, "five revalidated watches", func() bool { return notModified.Load() >= 5 })
	if after := workers(); !maps.Equal(after, before) {
		t.Errorf("workers replaced on an unchanged digest: %v, were %v", after, before)
	}
	if st := g.Stats(); st.Rebalances != stats.Rebalances || st.MembershipChanges != stats.MembershipChanges {
		t.Errorf("unchanged digest counted: rebalances %d -> %d, membership changes %d -> %d",
			stats.Rebalances, st.Rebalances, stats.MembershipChanges, st.MembershipChanges)
	}
	if m := g.Membership(); m != membership {
		t.Errorf("membership %+v, was %+v", m, membership)
	}
}

// TestSurvivorTakesOverADrainedPeer: when a peer drains, the survivor takes
// over every site and mirrors their views, with no refresh tick.
func TestSurvivorTakesOverADrainedPeer(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	sites, query, _ := fakeSites(t, dir, 8)
	a := startRepub(t, dir, "repub-0", query)
	b := startRepub(t, dir, "repub-1", query)
	both := []string{"repub-0", "repub-1"}
	waitFor(t, "the split", func() bool { return ownedByRing(a, sites, both) && ownedByRing(b, sites, both) })
	b.Stop() // drain: deregister, workers wound down
	waitFor(t, "the takeover", func() bool { return len(a.Owns()) == len(sites) })
	waitFor(t, "the taken-over views", func() bool { return a.store.Rows() == len(sites) })
}

// lateDirectory is a directory across a network: a registration its caller
// abandons may still be applied after the call returns, as a request already
// on the wire is. While hold is set, registrations wait for release, and each
// held one is announced on pending.
type lateDirectory struct {
	*gma.Directory
	hold    atomic.Bool
	release chan struct{}
	pending chan struct{}
	applied sync.WaitGroup
}

func (d *lateDirectory) RegisterContext(ctx context.Context, r gma.Registration) error {
	if !d.hold.Load() {
		return d.Directory.RegisterContext(ctx, r)
	}
	done := make(chan error, 1)
	d.applied.Add(1)
	go func() {
		defer d.applied.Done()
		<-d.release
		done <- d.Directory.RegisterContext(context.Background(), r)
	}()
	d.pending <- struct{}{}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestDrainOutlastsARegistrationInFlight: a republisher drained while its
// registrar's heartbeat is still on its way to the directory ends unlisted.
// Stop waits for that heartbeat's answer before it deregisters, so the
// directory cannot apply the heartbeat after the deregistration.
func TestDrainOutlastsARegistrationInFlight(t *testing.T) {
	dir := &lateDirectory{Directory: gma.NewDirectory(0, nil),
		release: make(chan struct{}), pending: make(chan struct{}, 8)}
	_, query, _ := fakeSites(t, dir.Directory, 4)
	g, err := New(Options{
		Name: "repub-0", Endpoint: "http://repub-0", Directory: dir,
		Query:           query,
		RefreshInterval: 10 * time.Millisecond, ScrapeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	dir.hold.Store(true)
	select {
	case <-dir.pending:
	case <-time.After(5 * time.Second):
		t.Fatal("no heartbeat reached the directory")
	}
	stopped := make(chan struct{})
	go func() {
		g.Stop()
		close(stopped)
	}()
	time.Sleep(20 * time.Millisecond) // let a Stop that cancels it go on to deregister
	close(dir.release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop never returned")
	}
	dir.applied.Wait()
	if _, listed, _ := dir.LookupContext(context.Background(), "repub-0"); listed {
		t.Fatal("the drained republisher is listed again: its registration landed after its deregistration")
	}
}

// TestStatusDigestAgreesAfterAJoin: after a join settles, two republishers
// on one directory show the same membership digest on /status.
func TestStatusDigestAgreesAfterAJoin(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	_, query, _ := fakeSites(t, dir, 4)
	a := startRepub(t, dir, "repub-0", query)
	b := startRepub(t, dir, "repub-1", query)
	status := func(g *Gateway) Membership {
		front := httptest.NewServer(g.Handler())
		defer front.Close()
		resp, err := http.Get(front.URL + "/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct{ Membership Membership }
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Membership
	}
	regs, _ := dir.ListContext(context.Background())
	want := gma.Digest(regs)
	waitFor(t, "both digests", func() bool { return a.Membership().Digest == want && b.Membership().Digest == want })
	ma, mb := status(a), status(b)
	if ma.Digest != want || mb.Digest != want || ma.Members != 6 || mb.Members != 6 || ma.ChangedAt.IsZero() {
		t.Fatalf("/status membership %+v and %+v, want digest %s over 6 members", ma, mb, want)
	}
	if a.Stats().MembershipChanges == 0 {
		t.Fatal("repub-0 saw repub-1 join without counting a membership change")
	}
}

// groupRows is one row of group for host, in the group's full shape.
func groupRows(t *testing.T, group, host string) *resultset.ResultSet {
	t.Helper()
	g, ok := glue.Lookup(group)
	if !ok {
		t.Fatalf("group %s missing", group)
	}
	meta, err := resultset.MetadataForGroup(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]any, meta.ColumnCount())
	row[meta.ColumnIndex("HostName")] = host
	b := resultset.NewBuilder(meta)
	b.Append(row...)
	rs, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestChangedGroupsAreMirrored: a site that re-registers with other groups
// is re-mirrored over them with no refresh tick, and its old views go.
func TestChangedGroupsAreMirrored(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	dead := deadEndpoint(t)
	register := func(groups ...string) {
		t.Helper()
		if err := dir.RegisterContext(context.Background(), gma.Registration{Name: "site-0", Endpoint: dead, Groups: groups}); err != nil {
			t.Fatal(err)
		}
	}
	register(glue.GroupProcessor)
	query := func(ctx context.Context, site string, req core.QueryOptions) (*core.Response, error) {
		group := strings.TrimPrefix(req.SQL, "SELECT * FROM ")
		return &core.Response{ResultSet: groupRows(t, group, "h-"+group)}, nil
	}
	g := startRepub(t, dir, "repub-0", query)
	hosts := func(group string) int {
		resp, err := g.QueryContext(context.Background(), core.QueryOptions{SQL: "SELECT HostName FROM " + group})
		if err != nil {
			t.Fatal(err)
		}
		return resp.ResultSet.Len()
	}
	waitFor(t, "the Processor view", func() bool { return hosts(glue.GroupProcessor) == 1 })
	register(glue.GroupProcessor, glue.GroupMemory)
	waitFor(t, "the Memory view", func() bool { return hosts(glue.GroupMemory) == 1 && hosts(glue.GroupProcessor) == 1 })
	register(glue.GroupMemory)
	waitFor(t, "Processor dropped", func() bool { return hosts(glue.GroupProcessor) == 0 && hosts(glue.GroupMemory) == 1 })
}

// childSite starts a site gateway with no sources behind its own servlet
// under httptest, wrapped by wrap when it is set, and registers the site in
// dir at the server: the republisher's feed reaches it over /subscribe.
func childSite(t *testing.T, dir *gma.Directory, name string, wrap func(http.Handler) http.Handler) (*core.Gateway, *httptest.Server) {
	t.Helper()
	gw := core.New(core.Config{Name: name})
	t.Cleanup(gw.Close)
	var h http.Handler = web.NewServer(gw, nil, nil)
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	if err := dir.RegisterContext(context.Background(), gma.Registration{Name: name, Endpoint: srv.URL, Groups: []string{glue.GroupProcessor}}); err != nil {
		t.Fatal(err)
	}
	return gw, srv
}

// publish pushes one Processor row for host through the site's router, as a
// harvest of it would.
func publish(gw *core.Gateway, host string, load float64) {
	gw.PushRouter().Publish("src-"+host, glue.GroupProcessor, []string{"HostName", "LoadLast1Min"}, [][]any{{host, load}}, time.Now())
}

// viewHosts is the set of Processor hosts the republisher's view answers.
func viewHosts(g *Gateway) map[string]bool {
	resp, err := g.QueryContext(context.Background(), core.QueryOptions{SQL: "SELECT HostName FROM Processor"})
	hosts := map[string]bool{}
	for err == nil && resp.ResultSet.Next() {
		h, _ := resp.ResultSet.GetString("HostName")
		hosts[h] = true
	}
	return hosts
}

// TestGatewaySubscriptionFeedsView: a republisher follows a child's
// /subscribe, and a row the child pushes reaches the view between scrapes.
func TestGatewaySubscriptionFeedsView(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	_, query, _ := fakeSites(t, dir, 1)
	child, _ := childSite(t, dir, "site-0", nil)
	g, err := New(Options{
		Name: "repub-0", Endpoint: "http://repub-0", Directory: dir,
		Query:           query,
		RefreshInterval: time.Hour, ScrapeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	waitFor(t, "subscription", func() bool { return g.Stats().Subscriptions == 1 })
	waitFor(t, "live row", func() bool {
		publish(child, "pushed-host", 9.0)
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
// become the base of the feed — live rows only update what the view
// already has, so with a quiet feed the missing row would never arrive.
// The worker re-scrapes until the answer is complete, and only then counts
// its feed as open.
func TestPartialScrapeIsRepeatedBeforeSubscribing(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	childSite(t, dir, "site-0", nil) // a feed that never publishes
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
	g, err := New(Options{
		Name: "repub-0", Endpoint: "http://repub-0", Directory: dir,
		Query:           query,
		RefreshInterval: time.Hour, ScrapeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	waitFor(t, "complete view", func() bool { return g.store.Rows() == 2 })
	waitFor(t, "subscription after the complete scrape", func() bool { return g.Stats().Subscriptions == 1 })
	if n := scrapes.Load(); n != 2 {
		t.Errorf("scrapes = %d, want 2 (partial, then complete, then hold)", n)
	}
}

// TestPushKeepsTheRestOfTheView: a row pushed over /subscribe replaces its
// own host's row and leaves every other host the seeding scrape brought, so
// a harvest of part of a site (some of its sources, or one another source
// timed out of) hides none of the rest.
func TestPushKeepsTheRestOfTheView(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	child, _ := childSite(t, dir, "site-0", nil)
	query := func(ctx context.Context, site string, req core.QueryOptions) (*core.Response, error) {
		return &core.Response{ResultSet: procRows(t, [2]any{"h1", 1.0}, [2]any{"h2", 2.0}, [2]any{"h3", 3.0}, [2]any{"h4", 4.0})}, nil
	}
	g, err := New(Options{
		Name: "repub-0", Endpoint: "http://repub-0", Directory: dir,
		Query:           query,
		RefreshInterval: time.Hour, ScrapeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	waitFor(t, "subscription", func() bool { return g.Stats().Subscriptions == 1 })
	publish(child, "h2", 9.0)
	waitFor(t, "the pushed row", func() bool { return g.Stats().LiveRows == 1 })
	resp, err := g.QueryContext(context.Background(), core.QueryOptions{SQL: "SELECT HostName, LoadLast1Min FROM Processor"})
	if err != nil {
		t.Fatal(err)
	}
	loads := map[string]float64{}
	for resp.ResultSet.Next() {
		host, _ := resp.ResultSet.GetString("HostName")
		loads[host], _ = resp.ResultSet.GetFloat("LoadLast1Min")
	}
	if want := map[string]float64{"h1": 1, "h2": 9, "h3": 3, "h4": 4}; resp.ResultSet.Len() != 4 || !maps.Equal(loads, want) {
		t.Errorf("after one host's push the view answers %d rows %v, want %v", resp.ResultSet.Len(), loads, want)
	}
}

// subscribeLog wraps a child's servlet to record the resume point of every
// /subscribe request it gets ("" for a fresh feed), and to keep every request
// after the first waiting until release is closed.
type subscribeLog struct {
	mu      sync.Mutex
	froms   []string
	release chan struct{}
}

func (l *subscribeLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/subscribe" {
			l.mu.Lock()
			l.froms = append(l.froms, r.URL.Query().Get("from"))
			reconnect := len(l.froms) > 1
			l.mu.Unlock()
			if reconnect {
				<-l.release
			}
		}
		h.ServeHTTP(w, r)
	})
}

func (l *subscribeLog) log() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.froms...)
}

// TestCutFeedReseeds: any end of a feed ends it, and the next is a fresh one:
// a /subscribe with no resume point, seeded by one scrape of each mirrored
// group. The child publishes three rows before the reconnect gets through —
// after a network cut, into the numbering the feed left; after a restart
// behind the same URL, into a new numbering that has passed the seq the feed
// applied last, where a resume would go on silently.
func TestCutFeedReseeds(t *testing.T) {
	for _, tc := range []struct {
		name    string
		restart bool
	}{
		{"network cut", false},
		{"child restarted", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := gma.NewDirectory(0, nil)
			_, query, _ := fakeSites(t, dir, 1)
			subs := &subscribeLog{release: make(chan struct{})}
			var release sync.Once
			t.Cleanup(func() { release.Do(func() { close(subs.release) }) })
			var servlet atomic.Pointer[http.Handler] // swapped on the child's restart
			child, srv := childSite(t, dir, "site-0", func(h http.Handler) http.Handler {
				servlet.Store(&h)
				return subs.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					(*servlet.Load()).ServeHTTP(w, r)
				}))
			})
			g, err := New(Options{
				Name: "repub-0", Endpoint: "http://repub-0", Directory: dir,
				Query:           query,
				RefreshInterval: time.Hour, ScrapeInterval: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer g.Stop()
			waitFor(t, "subscription", func() bool { return g.Stats().Subscriptions == 1 })
			publish(child, "h1", 1.0)
			publish(child, "h2", 2.0)
			waitFor(t, "the live rows", func() bool { return g.Stats().LiveRows == 2 })
			scrapes := g.Stats().Scrapes

			if tc.restart {
				child = core.New(core.Config{Name: "site-0"})
				t.Cleanup(child.Close)
				var h http.Handler = web.NewServer(child, nil, nil)
				servlet.Store(&h)
			}
			srv.CloseClientConnections()
			waitFor(t, "the reconnect", func() bool { return len(subs.log()) == 2 })
			publish(child, "h3", 3.0)
			publish(child, "h4", 4.0)
			publish(child, "h5", 5.0)
			release.Do(func() { close(subs.release) })
			waitFor(t, "the fresh feed", func() bool { return g.Stats().Subscriptions == 2 })
			publish(child, "h6", 6.0)
			waitFor(t, "a row on the fresh feed", func() bool { return viewHosts(g)["h6"] })

			if got := subs.log(); !slices.Equal(got, []string{"", ""}) {
				t.Errorf("subscribe requests resumed from %q, want two fresh feeds", got)
			}
			if st := g.Stats(); st.Scrapes != scrapes+1 || st.Subscriptions != 2 {
				t.Errorf("after the reconnect: %d scrapes (want %d, one seeding scrape of the one mirrored group), %d feeds opened (want 2)",
					st.Scrapes, scrapes+1, st.Subscriptions)
			}
			if f, seq := g.Feeds()[0], child.PushRouter().Seq(); f.Mode != "stream" || f.LastSeq != seq {
				t.Errorf("the fresh feed shows as %+v, want streaming with the child's seq %d applied", f, seq)
			}
		})
	}
}

// TestStatusNamesFeedMode: /status shows each owned site's feed — a stream
// while it is open and applying rows, scrapes once the site cannot be
// reached — with the view's age and the seq last applied.
func TestStatusNamesFeedMode(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	_, query, _ := fakeSites(t, dir, 1)
	child, srv := childSite(t, dir, "site-0", nil)
	g, err := New(Options{
		Name: "repub-0", Endpoint: "http://repub-0", Directory: dir,
		Query:           query,
		RefreshInterval: time.Hour, ScrapeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	front := httptest.NewServer(g.Handler())
	defer front.Close()
	feed := func() Feed {
		resp, err := http.Get(front.URL + "/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct{ Feeds []Feed }
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || len(st.Feeds) != 1 {
			t.Fatalf("/status feeds = %+v, %v", st.Feeds, err)
		}
		return st.Feeds[0]
	}
	waitFor(t, "subscription", func() bool { return g.Stats().Subscriptions == 1 })
	publish(child, "h1", 1.0)
	waitFor(t, "the live row", func() bool { return g.Stats().LiveRows == 1 })
	if f := feed(); f.Site != "site-0" || f.Mode != "stream" || f.LastSeq != 1 || f.AgeSeconds < 0 || f.AgeSeconds > 5 {
		t.Errorf("an open feed shows as %+v, want site-0 streaming, seq 1 applied, a fresh view", f)
	}

	srv.Listener.Close() // the site is gone: its stream is cut and no resume gets through
	srv.CloseClientConnections()
	waitFor(t, "the scrape fallback", func() bool { return g.Stats().SubscribeFallbacks > 0 })
	if f := feed(); f.Mode != "scrape" || f.LastSeq != 1 {
		t.Errorf("a feed that cannot reach its site shows as %+v, want scrape mode, seq 1 still the last applied", f)
	}
}

func TestHandlerSpeaksServletWireProtocol(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	_, query, _ := fakeSites(t, dir, 2)
	g, err := New(Options{
		Name: "repub-0", Endpoint: "http://repub-0", Directory: dir,
		Query:           query,
		RefreshInterval: time.Hour, ScrapeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
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
		Query:           query,
		RefreshInterval: time.Hour, ScrapeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
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

// allocated returns the objects and bytes f allocates a run, as
// testing.AllocsPerRun measures objects.
func allocated(runs int, f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestRegionAnswerAllocations: a region answer is its query evaluated over
// the store's sets as they are held (Store.Parts, sqlparse.ApplyToParts).
//   - A SELECT * answer over two live views, then its wire encoding, costs
//     the same allocations for 20 rows as for 400: each view's rows are built
//     into a set once after a push and the reads until the next push share
//     it, the answer holds those sets as its parts and the encoding writes
//     them where they are; nothing is allocated a row. Bound at 6, what a
//     read over two snapshot views costs.
//   - A two-site SELECT * answer over snapshot views and its encoding into a
//     reused buffer cost the same objects and bytes for 20 rows as for 400:
//     the answer is a concatenation of the snapshots, never copied.
//   - An aggregate answer over two snapshot views of 20 rows allocates the
//     same objects and bytes as one over 400: it reads the cells where the
//     snapshots hold them.
//   - A one-site SELECT * answer shares the snapshot's arrays, and costs the
//     same objects and bytes for 20 rows as for 400.
func TestRegionAnswerAllocations(t *testing.T) {
	sites := []string{"A", "B"}
	live := func(hosts int) float64 {
		s := NewStore()
		now := time.Now()
		for _, site := range sites {
			for i := 0; i < hosts; i++ {
				s.Upsert(site, glue.GroupProcessor, fmt.Sprint(site, "-src", i/2), []string{"HostName", "LoadLast1Min"},
					[]any{fmt.Sprint(site, "-host", i), float64(i)}, now)
			}
		}
		var buf []byte
		return testing.AllocsPerRun(50, func() {
			rs, _, ok := merged(t, s, glue.GroupProcessor, sites)
			if !ok || rs.Len() != 2*hosts {
				t.Fatalf("merged %d rows, want %d", rs.Len(), 2*hosts)
			}
			var err error
			if buf, err = web.EncodeResponse(&core.Response{ResultSet: rs}).AppendJSON(buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := live(10), live(200)
	t.Logf("SELECT * over live views: %.0f allocations for 20 rows, %.0f for 400", small, large)
	if (small != large || large > 6) && !raceEnabled {
		t.Errorf("a region answer of 20 rows took %.0f allocations and one of 400 took %.0f, want the same and ≤ 6", small, large)
	}

	agg, err := sqlparse.Parse("SELECT count(*), avg(LoadLast1Min) FROM Processor")
	if err != nil {
		t.Fatal(err)
	}
	partial := agg.PartialQuery()
	snapshots := func(hosts int) *Store {
		s := NewStore()
		for _, site := range sites {
			rows := make([][2]any, hosts)
			for i := range rows {
				rows[i] = [2]any{fmt.Sprint(site, "-host", i), float64(i)}
			}
			s.SetSnapshot(site, glue.GroupProcessor, procRows(t, rows...), time.Now())
		}
		return s
	}
	answer := func(s *Store, q *sqlparse.Query, sites ...string) *resultset.ResultSet {
		meta, parts, _, _ := s.Parts(glue.GroupProcessor, sites)
		rs, err := sqlparse.ApplyToParts(q, meta, parts)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	type cost struct{ objects, bytes uint64 }
	measure := func(q *sqlparse.Query, sites ...string) (few, many cost) {
		s10, s200 := snapshots(10), snapshots(200)
		few.objects, few.bytes = allocated(50, func() { answer(s10, q, sites...) })
		many.objects, many.bytes = allocated(50, func() { answer(s200, q, sites...) })
		return few, many
	}
	few, many := measure(partial, sites...)
	t.Logf("aggregate over snapshot views: %+v for 20 rows, %+v for 400", few, many)
	if few != many && !raceEnabled {
		t.Errorf("an aggregate region answer over 20 view rows cost %+v and over 400 cost %+v, want the same", few, many)
	}
	few, many = measure(selectAll, "A")
	t.Logf("one-site SELECT * over a snapshot view: %+v for 10 rows, %+v for 200", few, many)
	if few != many && !raceEnabled {
		t.Errorf("a one-site SELECT * region answer over 10 rows cost %+v and over 200 cost %+v, want the same", few, many)
	}
	// Two sites' SELECT * is a concatenation of the snapshots, written to
	// the wire from them: with the output buffer reused, nothing grows with
	// the rows.
	encoded := func(hosts int) cost {
		s := snapshots(hosts)
		var buf []byte
		var c cost
		c.objects, c.bytes = allocated(50, func() {
			var err error
			rs := answer(s, selectAll, sites...)
			if buf, err = web.EncodeResponse(&core.Response{ResultSet: rs}).AppendJSON(buf[:0]); err != nil || rs.Len() != 2*hosts {
				t.Fatalf("%d rows, %v", rs.Len(), err)
			}
		})
		return c
	}
	few, many = encoded(10), encoded(200)
	t.Logf("two-site SELECT * over snapshot views, encoded: %+v for 20 rows, %+v for 400", few, many)
	if few != many && !raceEnabled {
		t.Errorf("a two-site SELECT * region answer and its encoding cost %+v for 20 rows and %+v for 400, want the same", few, many)
	}
	s := snapshots(10)
	snap := s.sites["A"][glue.GroupProcessor].snap
	rs := answer(s, selectAll, "A")
	for _, c := range []int{snap.Metadata().ColumnIndex("HostName"), snap.Metadata().ColumnIndex("LoadLast1Min")} {
		held, got := snap.Column(c), rs.Column(c)
		if got == nil || unsafe.SliceData(got.Strs) != unsafe.SliceData(held.Strs) || unsafe.SliceData(got.Nums) != unsafe.SliceData(held.Nums) {
			t.Errorf("a one-site SELECT * answer's column %d does not share the snapshot's arrays", c)
		}
	}
}
