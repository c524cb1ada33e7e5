package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"gridrm/internal/resultset"
	"gridrm/internal/security"
)

// multiRouter serves RemoteQueryContext from a map of in-process gateways.
// Its plan is a direct leg for each of them, in name order, unless plan or
// planErr says otherwise; a target in fail answers with that error; a target
// queried for a region answers as a republisher would, with the rows of the
// sites it covers.
type multiRouter struct {
	gateways map[string]*Gateway
	plan     []FanoutLeg
	planErr  error
	fail     map[string]error

	mu    sync.Mutex
	calls []string // the targets queried, in order
}

func (r *multiRouter) RemoteQueryContext(_ context.Context, site string, req QueryOptions) (*Response, error) {
	r.mu.Lock()
	r.calls = append(r.calls, site)
	r.mu.Unlock()
	if err := r.fail[site]; err != nil {
		return nil, err
	}
	if req.Region != nil {
		var merged *resultset.ResultSet
		for _, covered := range req.Region {
			sub := req
			sub.Site, sub.Region = covered, nil
			resp, err := r.gateways[covered].QueryContext(context.Background(), sub)
			if err != nil {
				return nil, err
			}
			if merged == nil {
				merged = resultset.New(resp.ResultSet.Metadata())
			}
			if err := merged.Merge(resp.ResultSet); err != nil {
				return nil, err
			}
		}
		return &Response{Site: site, ResultSet: merged}, nil
	}
	gw, ok := r.gateways[site]
	if !ok {
		return nil, fmt.Errorf("no such site %q", site)
	}
	return gw.QueryContext(context.Background(), req)
}

func (r *multiRouter) FanoutPlan(context.Context) ([]FanoutLeg, error) {
	if r.plan != nil || r.planErr != nil {
		return r.plan, r.planErr
	}
	var legs []FanoutLeg
	for s := range r.gateways {
		legs = append(legs, FanoutLeg{Target: s})
	}
	sort.Slice(legs, func(i, j int) bool { return legs[i].Target < legs[j].Target })
	return legs, nil
}

func buildVO(t *testing.T) (*fixture, *memDriver) {
	t.Helper()
	f := newFixture(t) // siteA: hosts a1, a2 (load 1.0) and b1 (load 5.0)
	remote := New(Config{Name: "siteZ"})
	t.Cleanup(remote.Close)
	zdrv := &memDriver{name: "jdbc-mem", proto: "mem", hosts: []string{"z1", "z2"}, load: 9.0}
	if err := remote.RegisterDriver(zdrv, zdrv.schema()); err != nil {
		t.Fatal(err)
	}
	if err := remote.AddSource(SourceConfig{URL: "gridrm:mem://z:1"}); err != nil {
		t.Fatal(err)
	}
	f.g.SetGlobalRouter(&multiRouter{gateways: map[string]*Gateway{"siteZ": remote}})
	return f, zdrv
}

func TestAllSitesConsolidation(t *testing.T) {
	f, _ := buildVO(t)
	resp, err := f.g.QueryContext(context.Background(), QueryOptions{
		Principal: f.admin,
		SQL:       "SELECT HostName, LoadLast1Min FROM Processor ORDER BY HostName",
		Site:      AllSites,
		Mode:      ModeRealTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Site != AllSites {
		t.Errorf("site = %q", resp.Site)
	}
	// siteA: a1, a2, b1; siteZ: z1, z2.
	if resp.ResultSet.Len() != 5 {
		t.Fatalf("rows = %d; %+v", resp.ResultSet.Len(), resp.Sources)
	}
	var hosts []string
	for resp.ResultSet.Next() {
		h, _ := resp.ResultSet.GetString("HostName")
		hosts = append(hosts, h)
	}
	if strings.Join(hosts, ",") != "a1,a2,b1,z1,z2" {
		t.Errorf("hosts = %v (ORDER BY must apply across sites)", hosts)
	}
	// Source statuses carry their site.
	siteTags := map[string]bool{}
	for _, s := range resp.Sources {
		if !strings.HasPrefix(s.Source, "site:") {
			t.Errorf("status source %q not site-tagged", s.Source)
		}
		siteTags[strings.Fields(s.Source)[0]] = true
	}
	if !siteTags["site:siteA"] || !siteTags["site:siteZ"] {
		t.Errorf("site tags %v", siteTags)
	}
}

func TestAllSitesLimitIsGlobal(t *testing.T) {
	f, _ := buildVO(t)
	resp, err := f.g.QueryContext(context.Background(), QueryOptions{
		Principal: f.admin,
		SQL:       "SELECT HostName, LoadLast1Min FROM Processor ORDER BY LoadLast1Min DESC LIMIT 2",
		Site:      AllSites,
		Mode:      ModeRealTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultSet.Len() != 2 {
		t.Fatalf("rows = %d", resp.ResultSet.Len())
	}
	// The two busiest hosts in the whole VO are both at siteZ (load 9).
	for resp.ResultSet.Next() {
		h, _ := resp.ResultSet.GetString("HostName")
		if !strings.HasPrefix(h, "z") {
			t.Errorf("global top-2 includes %q", h)
		}
	}
}

func TestAllSitesSurvivesSiteFailure(t *testing.T) {
	f, zdrv := buildVO(t)
	zdrv.fail.Store(true) // siteZ's agent dies; the site still answers with a failed source
	resp, err := f.g.QueryContext(context.Background(), QueryOptions{
		Principal: f.admin,
		SQL:       "SELECT HostName FROM Processor",
		Site:      AllSites,
		Mode:      ModeRealTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultSet.Len() != 3 {
		t.Errorf("rows = %d, want siteA's 3", resp.ResultSet.Len())
	}
	// And if the whole router target vanishes, the site is reported.
	f.g.SetGlobalRouter(&multiRouter{gateways: map[string]*Gateway{}})
	resp, err = f.g.QueryContext(context.Background(), QueryOptions{Principal: f.admin, SQL: "SELECT HostName FROM Processor",
		Site: AllSites, Mode: ModeRealTime})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultSet.Len() != 3 {
		t.Errorf("local-only rows = %d", resp.ResultSet.Len())
	}
}

func TestAllSitesWithoutRouterIsLocal(t *testing.T) {
	f := newFixture(t)
	resp, err := f.g.QueryContext(context.Background(), QueryOptions{Principal: f.admin,
		SQL: "SELECT HostName FROM Processor", Site: AllSites, Mode: ModeRealTime})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultSet.Len() != 3 {
		t.Errorf("rows = %d", resp.ResultSet.Len())
	}
}

func TestAllSitesSecurity(t *testing.T) {
	coarse := security.NewCoarsePolicy(security.Deny)
	coarse.Add(security.CoarseRule{Principal: "admin", Op: security.OpQueryRealTime, Decision: security.Allow})
	// No OpGlobalQuery grant: all-sites queries must be refused.
	g := New(Config{Name: "locked", Coarse: coarse})
	defer g.Close()
	_, err := g.QueryContext(context.Background(), QueryOptions{Principal: security.Principal{Name: "admin"},
		SQL: "SELECT * FROM Processor", Site: AllSites})
	if err == nil {
		t.Error("all-sites query without global grant succeeded")
	}
}

func TestAllSitesBadSQL(t *testing.T) {
	f, _ := buildVO(t)
	if _, err := f.g.QueryContext(context.Background(), QueryOptions{Principal: f.admin, SQL: "junk", Site: AllSites}); err == nil {
		t.Error("bad SQL accepted")
	}
}

// TestAllSitesFanoutPlan drives queryAllSites with a plan that has a region
// leg in it — siteA is the entry (a1, a2, b1), repub-1 answers for siteY (y1)
// and siteZ (z1, z2) — and with no plan at all. Whatever fails, each site's
// rows are merged once, and whatever could not be asked is named.
func TestAllSitesFanoutPlan(t *testing.T) {
	down := errors.New("republisher down")
	region := []FanoutLeg{{Target: "repub-1", Republisher: true, Covers: []string{"siteY", "siteZ"}}}
	for _, c := range []struct {
		name    string
		plan    []FanoutLeg
		planErr error
		fail    map[string]error
		hosts   string   // the answer's hosts, sorted
		calls   string   // the targets the entry queried, sorted
		errs    []string // source → error text, for every status that carries one, in order
	}{
		{name: "region leg answers", plan: region,
			hosts: "a1,a2,b1,y1,z1,z2", calls: "repub-1"},
		{name: "region leg fails, its sites are asked directly", plan: region,
			fail:  map[string]error{"repub-1": down},
			hosts: "a1,a2,b1,y1,z1,z2", calls: "repub-1,siteY,siteZ",
			errs: []string{"repub:repub-1", "republisher down"}},
		{name: "region leg and one covered site fail", plan: region,
			fail:  map[string]error{"repub-1": down, "siteY": errors.New("siteY unreachable")},
			hosts: "a1,a2,b1,z1,z2", calls: "repub-1,siteY,siteZ",
			errs: []string{"repub:repub-1", "republisher down", "site:siteY", "siteY unreachable"}},
		{name: "no plan", planErr: errors.New("directory unreachable"),
			hosts: "a1,a2,b1", calls: "",
			errs: []string{"plan", "directory unreachable"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t)
			router := &multiRouter{gateways: map[string]*Gateway{}, plan: c.plan, planErr: c.planErr, fail: c.fail}
			for site, hosts := range map[string][]string{"siteY": {"y1"}, "siteZ": {"z1", "z2"}} {
				gw := New(Config{Name: site})
				t.Cleanup(gw.Close)
				drv := &memDriver{name: "jdbc-mem", proto: "mem", hosts: hosts, load: 9.0}
				if err := gw.RegisterDriver(drv, drv.schema()); err != nil {
					t.Fatal(err)
				}
				if err := gw.AddSource(SourceConfig{URL: "gridrm:mem://" + site + ":1"}); err != nil {
					t.Fatal(err)
				}
				router.gateways[site] = gw
			}
			f.g.SetGlobalRouter(router)
			resp, err := f.g.QueryContext(context.Background(), QueryOptions{Principal: f.admin,
				SQL: "SELECT HostName FROM Processor ORDER BY HostName", Site: AllSites, Mode: ModeRealTime})
			if err != nil {
				t.Fatal(err)
			}
			var hosts []string
			for r := 0; r < resp.ResultSet.Len(); r++ {
				hosts = append(hosts, resp.ResultSet.Cell(r, 0).Str)
			}
			if got := strings.Join(hosts, ","); got != c.hosts {
				t.Errorf("hosts = %s, want %s: each site's rows once", got, c.hosts)
			}
			sort.Strings(router.calls)
			if got := strings.Join(router.calls, ","); got != c.calls {
				t.Errorf("entry queried %s, want %s", got, c.calls)
			}
			var errs []string
			repubAt, sitesFrom := -1, len(resp.Sources)
			for i, st := range resp.Sources {
				if st.Err != "" {
					errs = append(errs, st.Source, st.Err)
				}
				if strings.HasPrefix(st.Source, "repub:") {
					repubAt = i
				} else if strings.HasPrefix(st.Source, "site:siteY") || strings.HasPrefix(st.Source, "site:siteZ") {
					sitesFrom = min(sitesFrom, i)
				}
			}
			if strings.Join(errs, "|") != strings.Join(c.errs, "|") {
				t.Errorf("failed statuses = %q, want %q; all: %+v", errs, c.errs, resp.Sources)
			}
			if c.plan != nil && (repubAt < 0 || sitesFrom < repubAt) {
				t.Errorf("repub: status at %d, its sites' from %d; want the leg's first: %+v", repubAt, sitesFrom, resp.Sources)
			}
			if c.fail == nil && c.plan != nil && !strings.HasSuffix(resp.Sources[repubAt].Source, "sites:2") {
				t.Errorf("region status = %q, want its coverage", resp.Sources[repubAt].Source)
			}
		})
	}
}

// TestAllSitesOrderByUnprojectedColumn: an all-sites ORDER BY on a column the
// query does not project sorts the VO's rows by it. The sites' sub-query
// carries the column; the entry sorts, limits and then projects it away.
func TestAllSitesOrderByUnprojectedColumn(t *testing.T) {
	f, _ := buildVO(t)
	resp, err := f.g.QueryContext(context.Background(), QueryOptions{
		Principal: f.admin,
		SQL:       "SELECT HostName FROM Processor ORDER BY LoadLast1Min DESC LIMIT 2",
		Site:      AllSites,
		Mode:      ModeRealTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	if names := resp.ResultSet.Metadata().ColumnNames(); len(names) != 1 || names[0] != "HostName" {
		t.Errorf("columns = %v, want [HostName]", names)
	}
	var hosts []string
	for r := 0; r < resp.ResultSet.Len(); r++ {
		hosts = append(hosts, resp.ResultSet.Cell(r, 0).Str)
	}
	// The two busiest hosts in the VO are siteZ's (load 9); siteA's run 1 and 5.
	if got := strings.Join(hosts, ","); got != "z1,z2" {
		t.Errorf("hosts = %s, want z1,z2", got)
	}
}
