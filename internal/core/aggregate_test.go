package core

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
)

// captureRouter wraps multiRouter, recording the SQL of every remote
// request and the row count of every remote response.
type captureRouter struct {
	multiRouter
	mu       sync.Mutex
	sqls     []string
	respRows []int
}

func (r *captureRouter) RemoteQueryContext(ctx context.Context, site string, req QueryOptions) (*Response, error) {
	resp, err := r.multiRouter.RemoteQueryContext(ctx, site, req)
	r.mu.Lock()
	r.sqls = append(r.sqls, req.SQL)
	if resp != nil {
		r.respRows = append(r.respRows, resp.ResultSet.Len())
	}
	r.mu.Unlock()
	return resp, err
}

// buildAggVO wires a heterogeneous two-site VO: siteA has hosts a1, a2
// (load 1.0) and b1 (load 5.0); siteZ has z1, z2 (load 9.0).
func buildAggVO(t *testing.T) (*fixture, *captureRouter) {
	t.Helper()
	f := newFixture(t)
	remote := New(Config{Name: "siteZ"})
	t.Cleanup(remote.Close)
	zdrv := &memDriver{name: "jdbc-mem", proto: "mem", hosts: []string{"z1", "z2"}, load: 9.0}
	if err := remote.RegisterDriver(zdrv, zdrv.schema()); err != nil {
		t.Fatal(err)
	}
	if err := remote.AddSource(SourceConfig{URL: "gridrm:mem://z:1"}); err != nil {
		t.Fatal(err)
	}
	router := &captureRouter{multiRouter: multiRouter{gateways: map[string]*Gateway{"siteZ": remote}}}
	f.g.SetGlobalRouter(router)
	return f, router
}

// TestAllSitesAggregatePushdown is the acceptance check: a federated
// GROUP BY avg matches client-side aggregation of the raw rows, while the
// wire carried only partial aggregates.
func TestAllSitesAggregatePushdown(t *testing.T) {
	f, router := buildAggVO(t)

	// Client-side reference: fetch every raw row and aggregate by hand.
	raw, err := f.g.QueryContext(context.Background(), QueryOptions{
		Principal: f.admin,
		SQL:       "SELECT HostName, LoadLast1Min FROM Processor",
		Site:      AllSites,
		Mode:      ModeRealTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	var sum, min, max float64
	for raw.ResultSet.Next() {
		v, _ := raw.ResultSet.GetFloat("LoadLast1Min")
		if n == 0 || v < min {
			min = v
		}
		if n == 0 || v > max {
			max = v
		}
		sum += v
		n++
	}

	resp, err := f.g.QueryContext(context.Background(), QueryOptions{
		Principal: f.admin,
		SQL:       "SELECT count(*), avg(LoadLast1Min), min(LoadLast1Min), max(LoadLast1Min), sum(LoadLast1Min) FROM Processor",
		Site:      AllSites,
		Mode:      ModeRealTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultSet.Len() != 1 {
		t.Fatalf("rows = %d, want 1", resp.ResultSet.Len())
	}
	resp.ResultSet.Next()
	if got, _ := resp.ResultSet.GetInt("count(*)"); got != n {
		t.Errorf("count = %d, want %d", got, n)
	}
	if got, _ := resp.ResultSet.GetFloat("avg(LoadLast1Min)"); math.Abs(got-sum/float64(n)) > 1e-9 {
		t.Errorf("avg = %v, want %v", got, sum/float64(n))
	}
	if got, _ := resp.ResultSet.GetFloat("min(LoadLast1Min)"); got != min {
		t.Errorf("min = %v, want %v", got, min)
	}
	if got, _ := resp.ResultSet.GetFloat("max(LoadLast1Min)"); got != max {
		t.Errorf("max = %v, want %v", got, max)
	}
	if got, _ := resp.ResultSet.GetFloat("sum(LoadLast1Min)"); math.Abs(got-sum) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, sum)
	}

	// The remote site must have been asked for the partial rewrite and
	// must have answered with one partial row, not its two raw rows.
	var aggSQL string
	router.mu.Lock()
	for _, sql := range router.sqls {
		if strings.Contains(sql, "sum(") {
			aggSQL = sql
		}
	}
	rows := append([]int(nil), router.respRows...)
	router.mu.Unlock()
	if aggSQL == "" {
		t.Fatalf("no partial-aggregate SQL crossed the router: %v", router.sqls)
	}
	for _, frag := range []string{"sum(LoadLast1Min)", "count(LoadLast1Min)", "count(*)"} {
		if !strings.Contains(aggSQL, frag) {
			t.Errorf("partial SQL %q missing %q", aggSQL, frag)
		}
	}
	if strings.Contains(aggSQL, "avg(") {
		t.Errorf("partial SQL %q still contains avg — it must ship sum+count", aggSQL)
	}
	// respRows: raw fan-out leg returned 2 rows, aggregate leg 1.
	found := false
	for _, r := range rows {
		if r == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("remote aggregate leg response rows = %v, want a 1-row partial", rows)
	}
}

// TestAllSitesGroupByAcrossSites groups by a column whose values span
// sites, so per-group partials from different sites must merge.
func TestAllSitesGroupByAcrossSites(t *testing.T) {
	f, _ := buildAggVO(t)
	resp, err := f.g.QueryContext(context.Background(), QueryOptions{
		Principal: f.admin,
		// Every host reports Model NULL in the fixtures, so the whole VO
		// collapses into one NULL group — proving partial groups from
		// different sites merge rather than duplicate.
		SQL:  "SELECT Model, count(*), avg(LoadLast1Min) FROM Processor GROUP BY Model",
		Site: AllSites,
		Mode: ModeRealTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultSet.Len() != 1 {
		t.Fatalf("groups = %d, want 1 merged NULL group", resp.ResultSet.Len())
	}
	resp.ResultSet.Next()
	if n, _ := resp.ResultSet.GetInt("count(*)"); n != 5 {
		t.Errorf("count = %d, want 5", n)
	}
	// (1+1+5+9+9)/5 = 5.0
	if avg, _ := resp.ResultSet.GetFloat("avg(LoadLast1Min)"); math.Abs(avg-5.0) > 1e-9 {
		t.Errorf("avg = %v, want 5.0", avg)
	}
}

// TestAllSitesAggregateOrderLimit: ORDER BY/LIMIT over aggregate output
// apply at the entry gateway, after finalization.
func TestAllSitesAggregateOrderLimit(t *testing.T) {
	f, _ := buildAggVO(t)
	resp, err := f.g.QueryContext(context.Background(), QueryOptions{
		Principal: f.admin,
		SQL:       "SELECT HostName, max(LoadLast1Min) FROM Processor GROUP BY HostName ORDER BY max(LoadLast1Min) DESC LIMIT 2",
		Site:      AllSites,
		Mode:      ModeRealTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultSet.Len() != 2 {
		t.Fatalf("rows = %d", resp.ResultSet.Len())
	}
	for resp.ResultSet.Next() {
		h, _ := resp.ResultSet.GetString("HostName")
		if !strings.HasPrefix(h, "z") {
			t.Errorf("global top-2 max load includes %q, want siteZ hosts", h)
		}
	}
}

// TestAllSitesAggregateSurvivesSiteFailure: a dead site degrades the
// aggregate to the answering sites, mirroring raw-row behaviour.
func TestAllSitesAggregateSurvivesSiteFailure(t *testing.T) {
	f, router := buildAggVO(t)
	for _, gw := range router.gateways {
		gw.Close() // siteZ gone
	}
	resp, err := f.g.QueryContext(context.Background(), QueryOptions{
		Principal: f.admin,
		SQL:       "SELECT count(*), sum(LoadLast1Min) FROM Processor",
		Site:      AllSites,
		Mode:      ModeRealTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.ResultSet.Next()
	if n, _ := resp.ResultSet.GetInt("count(*)"); n != 3 {
		t.Errorf("count = %d, want siteA's 3", n)
	}
	if s, _ := resp.ResultSet.GetFloat("sum(LoadLast1Min)"); s != 7.0 {
		t.Errorf("sum = %v, want 7.0", s)
	}
}

// TestSingleSiteAggregate: a plain (non-federated) aggregate runs at the
// site's consolidate stage over the harvested snapshot.
func TestSingleSiteAggregate(t *testing.T) {
	f := newFixture(t)
	resp, err := f.g.QueryContext(context.Background(), QueryOptions{
		Principal: f.admin,
		SQL:       "SELECT HostName, avg(LoadLast1Min) FROM Processor GROUP BY HostName ORDER BY HostName",
		Mode:      ModeRealTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultSet.Len() != 3 {
		t.Fatalf("groups = %d", resp.ResultSet.Len())
	}
	resp.ResultSet.Next()
	if h, _ := resp.ResultSet.GetString("HostName"); h != "a1" {
		t.Errorf("first group = %q", h)
	}
}

// TestPlanCacheCounters: repeating a query must hit the plan cache, and the
// counters must show in Stats.
func TestPlanCacheCounters(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 3; i++ {
		if _, err := f.g.QueryContext(context.Background(), QueryOptions{
			Principal: f.admin,
			SQL:       "SELECT HostName FROM Processor",
			Mode:      ModeRealTime,
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := f.g.Stats()
	if st.PlanCacheMisses == 0 {
		t.Error("no plan cache misses recorded")
	}
	if st.PlanCacheHits < 2 {
		t.Errorf("plan cache hits = %d, want >= 2", st.PlanCacheHits)
	}
}
