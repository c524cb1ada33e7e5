package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"gridrm/internal/security"
)

// multiRouter serves RemoteQueryContext from a map of in-process gateways.
type multiRouter struct {
	gateways map[string]*Gateway
}

func (r *multiRouter) RemoteQueryContext(_ context.Context, site string, req QueryOptions) (*Response, error) {
	gw, ok := r.gateways[site]
	if !ok {
		return nil, fmt.Errorf("no such site %q", site)
	}
	return gw.QueryContext(context.Background(), req)
}

func (r *multiRouter) Sites() []string {
	var out []string
	for s := range r.gateways {
		out = append(out, s)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
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
