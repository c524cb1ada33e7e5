package web_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/gma"
	"gridrm/internal/httpjson"
	"gridrm/internal/repub"
	"gridrm/internal/resultset"
	"gridrm/internal/security"
	"gridrm/internal/trace"
	"gridrm/internal/web"
)

// surface is one HTTP surface held to the route contract. routes is read
// from the surface's own table, so a route added there is under the
// contract without being listed here.
type surface struct {
	name   string
	routes []web.Route
	open   http.Handler // under the default, allow-all policy
	strict http.Handler // the same table under strictPolicy; nil when the surface checks no operations
}

// strictPolicy denies what the management routes and /events need and
// allows the rest, queries included.
func strictPolicy() *security.CoarsePolicy {
	p := security.NewCoarsePolicy(security.Allow)
	for _, op := range []security.Operation{security.OpManageSources, security.OpManageDrivers, security.OpEvents} {
		p.Add(security.CoarseRule{Op: op, Decision: security.Deny})
	}
	return p
}

func newRepublisher(t *testing.T) *repub.Gateway {
	t.Helper()
	g, err := repub.New(repub.Options{Name: "repub-0", Directory: gma.NewDirectory(0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func surfaces(t *testing.T) []surface {
	t.Helper()
	gateway := func(coarse *security.CoarsePolicy) *web.Server {
		gw := core.New(core.Config{Name: "siteA", Coarse: coarse})
		t.Cleanup(gw.Close)
		return web.NewServer(gw, nil, nil)
	}
	site, rep, dir := gateway(nil), newRepublisher(t).Handler(), gma.NewDirectory(0, nil)
	var dirRoutes []web.Route
	for _, rt := range dir.Routes() {
		dirRoutes = append(dirRoutes, web.Route{Pattern: rt.Pattern})
	}
	return []surface{
		{"gateway", site.Routes(), site, gateway(strictPolicy())},
		{"republisher", rep.Routes(), rep, nil},
		{"directory", dirRoutes, dir.Handler(), nil},
	}
}

// do sends one request straight at the handler. A negative length leaves
// the body's size undeclared, as a chunked request does.
func do(h http.Handler, method, path, body string, length int64) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, io.MultiReader(strings.NewReader(body)))
	req.ContentLength = length
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRouteContract walks every surface's route table and holds each row to
// what the pipeline promises: another method is 405 with Allow, a body past
// MaxRequestBody is 413 declared or not, malformed JSON is 400, and under a
// policy that denies management a row naming an operation is 403 while the
// others still get past the security layer.
func TestRouteContract(t *testing.T) {
	// Valid JSON of only ignorable content: nothing but the cap can refuse it.
	big := `{"pad":"` + strings.Repeat("x", httpjson.MaxRequestBody) + `"}`
	for _, s := range surfaces(t) {
		checked := 0
		for _, rt := range s.routes {
			method, path, _ := strings.Cut(rt.Pattern, " ")
			path = strings.ReplaceAll(path, "{id}", "0")
			t.Run(s.name+" "+rt.Pattern, func(t *testing.T) {
				rec := do(s.open, http.MethodPut, path, "", 0)
				if rec.Code != http.StatusMethodNotAllowed || !strings.Contains(rec.Header().Get("Allow"), method) {
					t.Errorf("PUT -> %d, Allow %q; want 405 allowing %s", rec.Code, rec.Header().Get("Allow"), method)
				}
				if method == http.MethodPost {
					if rec := do(s.open, method, path, big, int64(len(big))); rec.Code != http.StatusRequestEntityTooLarge {
						t.Errorf("declared %d-byte body -> %d, want 413", len(big), rec.Code)
					}
					if rec := do(s.open, method, path, big, -1); rec.Code != http.StatusRequestEntityTooLarge {
						t.Errorf("chunked %d-byte body -> %d, want 413", len(big), rec.Code)
					}
					if rec := do(s.open, method, path, "{not json", -1); rec.Code != http.StatusBadRequest {
						t.Errorf("malformed body -> %d, want 400", rec.Code)
					}
				}
				if s.strict == nil {
					if rt.Op != "" {
						t.Errorf("route names operation %q on a surface with no policy to check it", rt.Op)
					}
					return
				}
				rec = do(s.strict, method, path, "{}", 2)
				if denied := rec.Code == http.StatusForbidden; denied != (rt.Op != "") {
					t.Errorf("under a policy denying management: %d, route operation %q", rec.Code, rt.Op)
				}
			})
			checked++
		}
		if checked == 0 {
			t.Errorf("%s: empty route table", s.name)
		}
	}
}

// holdQuerier stands where a republisher or a site gateway stands behind
// POST /query: it reports each query's trace ID on entered and then holds
// the query until release is closed.
type holdQuerier struct {
	tracer  *trace.Tracer
	entered chan string
	release chan struct{}
}

func (q *holdQuerier) QueryContext(ctx context.Context, _ core.QueryOptions) (*core.Response, error) {
	_, sp := q.tracer.StartTrace(ctx, "query", "repub-0", trace.DecideOff)
	q.entered <- sp.TraceID()
	<-q.release
	meta, err := resultset.NewMetadata(nil)
	if err != nil {
		return nil, err
	}
	return &core.Response{ResultSet: resultset.New(meta)}, nil
}

// TestQueryRouteBehindAnyQuerier: what the site servlet's /query does for a
// core.Gateway it does for whatever else is mounted behind it — the
// propagated trace continues, and with admission limits set the excess is
// shed with 429 and Retry-After.
func TestQueryRouteBehindAnyQuerier(t *testing.T) {
	q := &holdQuerier{tracer: trace.New(trace.Options{}), entered: make(chan string), release: make(chan struct{})}
	front := web.NewFront(nil, web.QueryRoute(q))
	front.SetAdmissionLimits(1, 0)
	srv := httptest.NewServer(front)
	defer srv.Close()

	car := trace.Carrier{TraceID: "00112233445566778899aabbccddeeff", Parent: "1.2", Sampled: true}
	first := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/query", strings.NewReader(`{"sql":"SELECT * FROM Processor"}`))
		req.Header.Set(trace.HeaderName, car.Header())
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	select {
	case id := <-q.entered:
		if id != car.TraceID {
			t.Errorf("query ran under trace %q, want the propagated %q", id, car.TraceID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first query never reached the querier")
	}
	// The one slot is held: the next query is shed, not queued.
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(`{"sql":"SELECT * FROM Processor"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Errorf("query past the gate -> %d, Retry-After %q; want 429 with a hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	close(q.release)
	if code := <-first; code != http.StatusOK {
		t.Errorf("held query -> %d, want 200", code)
	}
}

// The four GridRM headers and the two validator headers are spelled the way
// net/http keys its header maps, so Header.Set and Header.Get use the
// constants as they are; any other spelling costs a canonicalised copy on
// every request, at both ends.
func TestHeaderNamesCanonical(t *testing.T) {
	for _, name := range []string{web.HeaderUser, web.HeaderRoles, web.HeaderSite, trace.HeaderName} {
		if canon := http.CanonicalHeaderKey(name); canon != name {
			t.Errorf("header %q is not canonical (%q)", name, canon)
		}
		if documented := "X-GridRM-"; !strings.EqualFold(name[:len(documented)], documented) {
			t.Errorf("header %q is no longer the documented X-GridRM-… under case folding", name)
		}
	}
	for _, name := range []string{web.HeaderETag, web.HeaderIfNoneMatch} {
		if canon := http.CanonicalHeaderKey(name); canon != name {
			t.Errorf("header %q is not canonical (%q)", name, canon)
		}
	}
}
