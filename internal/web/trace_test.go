package web

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/drivers/memdrv"
	"gridrm/internal/gma"
	"gridrm/internal/security"
	"gridrm/internal/trace"
)

// traceSite builds one gateway + servlet pair with a memdrv source.
func traceSite(t *testing.T, name string, hosts []string, cfg core.Config) (*core.Gateway, *httptest.Server) {
	t.Helper()
	cfg.Name = name
	gw := core.New(cfg)
	t.Cleanup(gw.Close)
	backend := memdrv.NewBackend(hosts)
	d := memdrv.New("jdbc-mem", "mem", backend)
	if err := gw.RegisterDriver(d, d.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := gw.AddSource(core.SourceConfig{URL: "gridrm:mem://" + name + ":1"}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(gw, nil, nil))
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
	gwA, srvA := traceSite(t, "siteA", []string{"a1", "a2"}, core.Config{})
	gwB, srvB := traceSite(t, "siteB", []string{"b1"}, core.Config{})
	_ = gwB
	if err := dir.RegisterContext(context.Background(), gma.Registration{Name: "siteB", Endpoint: srvB.URL}); err != nil {
		t.Fatal(err)
	}
	gwA.SetGlobalRouter(gma.NewRouter(dir, RemoteQueryContext, "siteA", gma.Config{}))

	client := &Client{BaseURL: srvA.URL,
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
	clientB := &Client{BaseURL: srvB.URL,
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
func TestTraceEndpoints(t *testing.T) {
	_, srv := traceSite(t, "siteA", []string{"a1"}, core.Config{})
	client := &Client{BaseURL: srv.URL,
		Principal: security.Principal{Name: "admin", Roles: []string{"operator"}}}
	ctx := context.Background()

	resp, err := client.Query(ctx, core.QueryOptions{
		SQL: "SELECT * FROM Processor", Mode: core.ModeRealTime, Trace: trace.DecideOn})
	if err != nil {
		t.Fatal(err)
	}
	sums, err := client.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) == 0 {
		t.Fatal("no trace summaries")
	}
	if sums[0].TraceID != resp.TraceID {
		t.Errorf("newest summary = %s, want %s", sums[0].TraceID, resp.TraceID)
	}
	if sums[0].SQL == "" {
		t.Error("summary lost the SQL")
	}
	if _, err := client.Trace(ctx, "no-such-trace"); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Errorf("missing trace = %v, want 404", err)
	}
}

// TestSlowQueryLogOverHTTP checks that slow queries surface in /status and
// that the ring buffer evicts oldest-first at capacity.
func TestSlowQueryLogOverHTTP(t *testing.T) {
	gw, srv := traceSite(t, "siteA", []string{"a1"}, core.Config{
		Trace: trace.Options{SlowThreshold: time.Nanosecond, SlowLog: 4},
	})
	client := &Client{BaseURL: srv.URL,
		Principal: security.Principal{Name: "admin", Roles: []string{"operator"}}}
	ctx := context.Background()

	const n = 10
	for i := 0; i < n; i++ {
		if _, err := client.Query(ctx, core.QueryOptions{
			SQL: "SELECT * FROM Processor", Mode: core.ModeRealTime}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Traces.SlowQueries != n {
		t.Errorf("slow-query count = %d, want %d", st.Traces.SlowQueries, n)
	}
	if len(st.Slow) != 4 {
		t.Errorf("slow log kept %d entries, want capacity 4", len(st.Slow))
	}
	for _, sq := range st.Slow {
		if sq.SQL != "SELECT * FROM Processor" || sq.Site != "siteA" {
			t.Errorf("bad slow entry %+v", sq)
		}
	}
	if got := gw.Tracer().Stats().SlowQueries; got != n {
		t.Errorf("tracer stats slow queries = %d, want %d", got, n)
	}
}

// withTraceHeader sends every request with a fixed X-GridRM-Trace value, as
// anyone who can reach the servlet may.
type withTraceHeader string

func (h withTraceHeader) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(trace.HeaderName, string(h))
	return http.DefaultTransport.RoundTrip(r)
}

// TestReplayedTraceHeaderCannotGrowTheStore: the servlet continues whatever
// trace an inbound header names, so the same header a thousand times over
// must still leave one stored trace of at most MaxSpans spans with the
// surplus counted — and a header no gateway could have written continues
// nothing.
func TestReplayedTraceHeaderCannotGrowTheStore(t *testing.T) {
	gw, srv := traceSite(t, "siteB", []string{"b1"}, core.Config{Trace: trace.Options{MaxSpans: 8}})
	query := core.QueryOptions{SQL: "SELECT * FROM Processor", Mode: core.ModeRealTime}
	principal := security.Principal{Name: "admin", Roles: []string{"operator"}}
	ctx := context.Background()

	const id = "00000000000000000000000000c0ffee"
	replay := &Client{BaseURL: srv.URL, Principal: principal,
		HTTPClient: &http.Client{Transport: withTraceHeader(id + "-0a0b0c0d.1-1")}}
	const requests = 1000
	for i := 0; i < requests; i++ {
		resp, err := replay.Query(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.TraceID != id {
			t.Fatalf("request %d served under trace %q, want the header's", i, resp.TraceID)
		}
	}
	td, ok := gw.Tracer().Trace(id)
	if !ok || td.Spans > 8 {
		t.Fatalf("replayed trace holds %d spans (ok=%v), want at most MaxSpans=8", td.Spans, ok)
	}
	st := gw.Tracer().Stats()
	if st.Started != requests || st.Stored != 1 || st.DroppedSpans < requests {
		t.Fatalf("tracer stats = %+v, want %d started, 1 stored and the surplus spans counted as dropped", st, requests)
	}

	for name, header := range map[string]string{
		"8 KB trace ID":   strings.Repeat("a", 8<<10) + "-0a0b0c0d.1-1",
		"quote in an ID":  `00c0ffee-0a0b"0c0d.1-1`,
		"not hex at all":  "shared-p1-1",
		"unsampled valid": id + "-0a0b0c0d.1-0",
	} {
		hostile := &Client{BaseURL: srv.URL, Principal: principal,
			HTTPClient: &http.Client{Transport: withTraceHeader(header)}}
		resp, err := hostile.Query(ctx, query)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "unsampled valid" {
			if resp.TraceID != "" {
				t.Errorf("%s: traced as %q, want the caller's decision honoured", name, resp.TraceID)
			}
		} else if len(resp.TraceID) != 32 || resp.TraceID == id || len(resp.Trace) != 0 {
			t.Errorf("%s: served under trace %q with %d wire spans, want a fresh local trace", name, resp.TraceID, len(resp.Trace))
		}
	}
}
