package web_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"gridrm/internal/core"
	"gridrm/internal/drivers/memdrv"
	"gridrm/internal/gma"
	"gridrm/internal/security"
	"gridrm/internal/trace"
	"gridrm/internal/web"
)

// The servlet's tests that need the Global layer: gma's directory client is
// a web.Client, so they live outside package web.

var admin = security.Principal{Name: "admin", Roles: []string{"operator"}}

// memSite builds one gateway + servlet pair with a memdrv source; dir, when
// non-nil, is the directory the servlet mounts.
func memSite(t *testing.T, name string, hosts []string, dir http.Handler) (*core.Gateway, *httptest.Server) {
	t.Helper()
	gw := core.New(core.Config{Name: name})
	t.Cleanup(gw.Close)
	d := memdrv.New("jdbc-mem", "mem", memdrv.NewBackend(hosts))
	if err := gw.RegisterDriver(d, d.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := gw.AddSource(core.SourceConfig{URL: "gridrm:mem://" + name + ":1"}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(web.NewServer(gw, nil, dir))
	t.Cleanup(srv.Close)
	return gw, srv
}

func findSpans(n *trace.Node, name string, out *[]*trace.Node) {
	if n.Name == name {
		*out = append(*out, n)
	}
	for _, c := range n.Children {
		findSpans(c, name, out)
	}
}

// TestCrossGatewayTracePropagation drives a federated all-sites query over
// real HTTP and asserts that the entry gateway stores ONE stitched span
// tree covering both its own pipeline and the remote gateway's: the
// X-GridRM-Trace header carries the trace across the hop, and the child's
// spans return in the wire response for stitching.
func TestCrossGatewayTracePropagation(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	gwA, srvA := memSite(t, "siteA", []string{"a1", "a2"}, nil)
	gwB, srvB := memSite(t, "siteB", []string{"b1"}, nil)
	_ = gwB
	if err := dir.RegisterContext(context.Background(), gma.Registration{Name: "siteB", Endpoint: srvB.URL}); err != nil {
		t.Fatal(err)
	}
	gwA.SetGlobalRouter(gma.NewRouter(dir, web.RemoteQueryContext, "siteA", gma.Config{}))

	client := &web.Client{BaseURL: srvA.URL,
		Principal: security.Principal{Name: "admin", Roles: []string{"operator"}}}
	ctx := context.Background()

	resp, err := client.Query(ctx, core.QueryOptions{
		SQL:   "SELECT * FROM Processor",
		Site:  core.AllSites,
		Mode:  core.ModeRealTime,
		Trace: trace.DecideOn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == "" {
		t.Fatal("federated all-sites query returned no trace ID")
	}
	if resp.ResultSet.Len() != 3 {
		t.Fatalf("rows = %d, want 3", resp.ResultSet.Len())
	}

	td, err := client.Trace(ctx, resp.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Roots) != 1 {
		t.Fatalf("roots = %d, want one stitched tree", len(td.Roots))
	}
	root := td.Roots[0]
	if root.Name != "query" || root.Site != "siteA" {
		t.Errorf("root = %s@%s, want query@siteA", root.Name, root.Site)
	}

	// The local leg's full pipeline is present.
	for _, want := range []string{"parse", "fanout", "site", "harvest", "driver-execute", "pool-checkout", "consolidate", "remote-query"} {
		var got []*trace.Node
		findSpans(root, want, &got)
		if len(got) == 0 {
			t.Errorf("span %q missing from stitched tree", want)
		}
	}

	// The remote gateway's serving leg is stitched in under the
	// remote-query span: a "query" span recorded at siteB, marked remote.
	var remotes []*trace.Node
	findSpans(root, "remote-query", &remotes)
	if len(remotes) != 1 {
		t.Fatalf("remote-query spans = %d, want 1", len(remotes))
	}
	var remoteQuery *trace.Node
	for _, c := range remotes[0].Children {
		if c.Name == "query" && c.Site == "siteB" {
			remoteQuery = c
		}
	}
	if remoteQuery == nil {
		t.Fatal("siteB's query span not stitched under remote-query")
	}
	if !remoteQuery.Remote {
		t.Error("stitched span not marked remote")
	}
	// And the child's own pipeline came with it.
	var childHarvests []*trace.Node
	findSpans(remoteQuery, "driver-execute", &childHarvests)
	if len(childHarvests) == 0 {
		t.Error("remote gateway's driver-execute span missing")
	}

	// The child gateway also stored its own leg locally, findable by the
	// same trace ID through its own servlet.
	clientB := &web.Client{BaseURL: srvB.URL,
		Principal: security.Principal{Name: "admin", Roles: []string{"operator"}}}
	tdB, err := clientB.Trace(ctx, resp.TraceID)
	if err != nil {
		t.Fatalf("child gateway did not store its leg: %v", err)
	}
	if tdB.TraceID != resp.TraceID {
		t.Errorf("child trace ID = %s, want %s", tdB.TraceID, resp.TraceID)
	}
}

// TestTraceEndpoints exercises GET /traces and GET /traces/<id> plus the
// 404 path.

func TestSitesAndGMAMounted(t *testing.T) {
	_, srv := memSite(t, "siteA", []string{"a1", "a2"}, gma.NewDirectory(0, nil).Handler())
	client := &web.Client{BaseURL: srv.URL, Principal: admin}
	sites, err := client.Sites(context.Background())
	if err != nil || len(sites) != 1 || sites[0] != "siteA" {
		t.Errorf("sites %v, %v", sites, err)
	}
	// The mounted directory answers under /gma/.
	dc := &gma.DirectoryClient{BaseURL: srv.URL}
	if err := dc.RegisterContext(context.Background(), gma.Registration{Name: "X", Endpoint: "http://x"}); err != nil {
		t.Fatal(err)
	}
	got, err := dc.ListContext(context.Background())
	if err != nil || len(got) != 1 || got[0].Name != "X" {
		t.Errorf("gma registrations %v, %v", got, err)
	}
}

func TestTwoGatewayFederation(t *testing.T) {
	// Full Fig 1 path over real HTTP: client → gateway A → GMA directory
	// → gateway B → B's local sources.
	dir := gma.NewDirectory(0, nil)

	// Gateway B with its own data.
	gwB := core.New(core.Config{Name: "siteB"})
	defer gwB.Close()
	backendB := memdrv.NewBackend([]string{"b1", "b2", "b3"})
	dB := memdrv.New("jdbc-mem", "mem", backendB)
	if err := gwB.RegisterDriver(dB, dB.Schema()); err != nil {
		t.Fatal(err)
	}
	_ = gwB.AddSource(core.SourceConfig{URL: "gridrm:mem://b:1"})
	srvB := httptest.NewServer(web.NewServer(gwB, nil, nil))
	defer srvB.Close()

	// Gateway A routes via the directory.
	gwA, srvA := memSite(t, "siteA", []string{"a1", "a2"}, nil)
	client := &web.Client{BaseURL: srvA.URL, Principal: admin}
	_ = dir.RegisterContext(context.Background(), gma.Registration{Name: "siteB", Endpoint: srvB.URL})
	router := gma.NewRouter(dir, web.RemoteQueryContext, "siteA", gma.Config{})
	gwA.SetGlobalRouter(router)

	resp, err := client.Query(context.Background(), core.QueryOptions{
		SQL:  "SELECT * FROM Processor",
		Site: "siteB",
		Mode: core.ModeRealTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Site != "siteB" || resp.ResultSet.Len() != 3 {
		t.Errorf("federated resp: site %q, %d rows", resp.Site, resp.ResultSet.Len())
	}
	if backendB.Queries() != 1 {
		t.Errorf("remote backend queries = %d", backendB.Queries())
	}
	// Unknown remote site errors cleanly.
	if _, err := client.Query(context.Background(), core.QueryOptions{SQL: "SELECT * FROM Processor", Site: "siteC"}); err == nil {
		t.Error("unknown site accepted")
	}
}
