package web

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/security"
	"gridrm/internal/trace"
)

// maxQueryHopAllocs is TestQueryHopAllocs's bound: 103 measured on go1.24,
// with no margin, so that a request that parses its base URL again (104)
// fails it.
const maxQueryHopAllocs = 103

// TestPrincipalFromRoles: the roles header is a comma list whose blanks
// are trimmed and whose empty members are dropped, and a request that
// names no user is anonymous.
func TestPrincipalFromRoles(t *testing.T) {
	for _, c := range []struct {
		user, roles, site string
		wantName          string
		wantRoles         []string
	}{
		{user: "alice", roles: "operator", site: "siteA", wantName: "alice", wantRoles: []string{"operator"}},
		{user: "bob", roles: "a, b,,c", wantName: "bob", wantRoles: []string{"a", "b", "c"}},
		{user: "carol", roles: " a ,b ", wantName: "carol", wantRoles: []string{"a", "b"}},
		{user: "dave", roles: "", wantName: "dave"},
		{user: "erin", roles: " , ", wantName: "erin"},
		{user: "frank", roles: ",,,", wantName: "frank"},
		{roles: "viewer", wantName: "anonymous", wantRoles: []string{"viewer"}},
		{wantName: "anonymous"},
	} {
		r := &http.Request{Header: http.Header{}}
		if c.user != "" {
			r.Header.Set(HeaderUser, c.user)
		}
		if c.roles != "" {
			r.Header.Set(HeaderRoles, c.roles)
		}
		if c.site != "" {
			r.Header.Set(HeaderSite, c.site)
		}
		p := principalFrom(r)
		if p.Name != c.wantName || p.Site != c.site || !reflect.DeepEqual(p.Roles, c.wantRoles) {
			t.Errorf("user %q roles %q site %q -> %+v; want name %q, roles %q, site %q",
				c.user, c.roles, c.site, p, c.wantName, c.wantRoles, c.site)
		}
	}
}

// stubQuerier answers every query with the same response.
type stubQuerier struct{ resp *core.Response }

func (q stubQuerier) QueryContext(context.Context, core.QueryOptions) (*core.Response, error) {
	return q.resp, nil
}

// oneRow is a stubQuerier whose answer is one row of one Int column.
func oneRow(t *testing.T) stubQuerier {
	t.Helper()
	meta, err := resultset.NewMetadata([]resultset.Column{{Name: "N", Kind: glue.Int}})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := resultset.NewBuilder(meta).Append(int64(7)).Build()
	if err != nil {
		t.Fatal(err)
	}
	return stubQuerier{&core.Response{Site: "siteA", ResultSet: rs}}
}

// TestQueryHopAllocs bounds the allocations of one Client.Query round trip
// on loopback, both ends counted: the request built and sent, the servlet's
// header parse, pipeline and answer, and the client's decode. A regression
// of the hop fails here, not only in a benchmark run.
func TestQueryHopAllocs(t *testing.T) {
	srv := httptest.NewServer(NewFront(nil, QueryRoute(oneRow(t))))
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &Client{BaseURL: srv.URL, HTTPClient: &http.Client{Transport: tr, Timeout: 10 * time.Second},
		Principal: security.Principal{Name: "alice", Roles: []string{"operator"}, Site: "siteA"}}
	req := core.QueryOptions{SQL: "SELECT N FROM T"}
	ctx := context.Background()
	query := func() {
		if _, err := c.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		query()
	}
	allocs := testing.AllocsPerRun(50, query)
	t.Logf("one Client.Query round trip: %.1f allocations", allocs)
	if allocs > maxQueryHopAllocs && !raceEnabled {
		t.Errorf("one Client.Query round trip took %.1f allocations, want ≤ %d", allocs, maxQueryHopAllocs)
	}
}

// hopServer serves h on loopback and returns a client of its own transport
// with the given timeout; the server and the transport's idle connections
// close with the test.
func hopServer(t *testing.T, h http.Handler, timeout time.Duration) *Client {
	t.Helper()
	srv := httptest.NewServer(h)
	tr := &http.Transport{}
	t.Cleanup(func() {
		tr.CloseIdleConnections()
		srv.Close()
	})
	return &Client{BaseURL: srv.URL, HTTPClient: &http.Client{Transport: tr, Timeout: timeout},
		Principal: security.Principal{Name: "alice", Roles: []string{"operator", "viewer"}, Site: "siteA"}}
}

// TestClientTimeoutBoundsTheCall: with no deadline of the caller's, the
// client's Timeout ends a call whose answer stalls before its headers or
// in the middle of its body, and the error is a DeadlineExceeded that says
// the client's timeout ended it.
func TestClientTimeoutBoundsTheCall(t *testing.T) {
	for name, stall := range map[string]http.HandlerFunc{
		"before headers": func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body) // the server notices a hang-up only once the body is read
			<-r.Context().Done()
		},
		"mid-body": func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Length", "100")
			io.WriteString(w, `{"site":"siteA",`)
			w.(http.Flusher).Flush()
			<-r.Context().Done()
		},
	} {
		c := hopServer(t, stall, 100*time.Millisecond)
		start := time.Now()
		_, err := c.Query(context.Background(), core.QueryOptions{SQL: "SELECT N FROM T"})
		took := time.Since(start)
		t.Logf("%s: %v after %v", name, err, took)
		if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(fmt.Sprint(err), "client timeout") {
			t.Errorf("%s: err = %v, want a DeadlineExceeded naming the client timeout", name, err)
		}
		if took > 5*time.Second {
			t.Errorf("%s: a 100ms timeout took %v to end the call", name, took)
		}
	}
}

// TestCallerDeadlineWins: a caller deadline shorter than the client's
// Timeout ends the call at the caller's deadline, and the error does not
// blame the client's timeout.
func TestCallerDeadlineWins(t *testing.T) {
	c := hopServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}), time.Minute)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Query(ctx, core.QueryOptions{SQL: "SELECT N FROM T"})
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("the caller's 100ms deadline took %v to end the call", took)
	}
	if !errors.Is(err, context.DeadlineExceeded) || strings.Contains(fmt.Sprint(err), "client timeout") {
		t.Errorf("err = %v, want the caller's DeadlineExceeded", err)
	}
}

// TestRedirectIsAnError: a 3xx is returned as an error naming the status,
// and its target is never requested.
func TestRedirectIsAnError(t *testing.T) {
	var followed atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/elsewhere", http.StatusTemporaryRedirect)
	})
	mux.HandleFunc("/elsewhere", func(w http.ResponseWriter, r *http.Request) { followed.Add(1) })
	c := hopServer(t, mux, time.Minute)
	_, err := c.Query(context.Background(), core.QueryOptions{SQL: "SELECT N FROM T"})
	if err == nil || !strings.Contains(err.Error(), "307") {
		t.Errorf("err = %v, want an error naming the 307", err)
	}
	if n := followed.Load(); n != 0 {
		t.Errorf("the redirect's target was requested %d times", n)
	}
}

// TestHopCarriesOnlyWhatTheGatewayReads: a query request carries Host,
// Content-Type, Content-Length, Accept-Encoding: identity and the principal
// headers; X-GridRM-Trace and If-None-Match only when the call has a trace
// or a validator; and no User-Agent.
func TestHopCarriesOnlyWhatTheGatewayReads(t *testing.T) {
	var mu sync.Mutex
	var host string
	var header http.Header
	front := NewFront(nil, QueryRoute(oneRow(t)))
	c := hopServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		host, header = r.Host, r.Header.Clone()
		mu.Unlock()
		front.ServeHTTP(w, r)
	}), time.Minute)
	tracer := trace.New(trace.Options{})
	traced, sp := tracer.StartTrace(context.Background(), "query", "siteA", trace.DecideOn)
	defer sp.End()
	car, _ := trace.CarrierFromContext(traced)

	always := map[string]string{
		"Accept-Encoding": "identity",
		"Content-Type":    "application/json",
		HeaderUser:        "alice",
		HeaderRoles:       "operator,viewer",
		HeaderSite:        "siteA",
	}
	for _, call := range []struct {
		traced    bool
		validator string
	}{{false, ""}, {true, ""}, {false, "v1"}, {true, "v1"}} {
		want := maps.Clone(always)
		ctx := context.Background()
		if call.traced {
			ctx, want[trace.HeaderName] = traced, car.Header()
		}
		if call.validator != "" {
			want[HeaderIfNoneMatch] = `"v1"`
		}
		if _, err := c.Query(ctx, core.QueryOptions{SQL: "SELECT N FROM T", Validator: call.validator}); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		host, h := host, header
		mu.Unlock()
		if h.Get("Content-Length") == "" || host == "" {
			t.Errorf("traced %v, validator %q: Content-Length %q, Host %q; want both", call.traced, call.validator, h.Get("Content-Length"), host)
		}
		h.Del("Content-Length")
		got := map[string]string{}
		for k, vs := range h {
			got[k] = strings.Join(vs, " | ")
		}
		if !maps.Equal(got, want) {
			t.Errorf("traced %v, validator %q: headers %q, want %q and Content-Length", call.traced, call.validator, got, want)
		}
	}
}

// TestSubscriptionOutlivesTheClientTimeout: a stream opened by a client
// whose Timeout is 100ms is still open, and still delivering, after 500ms.
func TestSubscriptionOutlivesTheClientTimeout(t *testing.T) {
	c := hopServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		start := time.Now()
		for seq := uint64(1); ; {
			select {
			case <-r.Context().Done():
				return
			case <-tick.C:
			}
			io.WriteString(w, ": heartbeat\n\n")
			if time.Since(start) > 500*time.Millisecond {
				metricFrame(w, seq, "node-1")
				seq++
			}
			w.(http.Flusher).Flush()
		}
	}), 100*time.Millisecond)
	sub, err := c.SubscribeContext(context.Background(), SubscribeConfig{
		Query: core.QueryOptions{SQL: "SELECT HostName FROM Processor"}, IdleTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	select {
	case <-sub.C():
	case <-sub.Done():
		t.Fatalf("the stream ended before its first row: %v", sub.Err())
	case <-time.After(10 * time.Second):
		t.Fatal("no row within 10s")
	}
	if err := sub.Err(); err != nil {
		t.Errorf("Err() = %v after the first row", err)
	}
}

// TestRequestURLMatchesParse: a request built by splitting a plain base has
// the URL and Host that parsing the whole string gives, and a base or path
// newRequest does not split plainly goes through url.Parse, refusals
// included.
func TestRequestURLMatchesParse(t *testing.T) {
	for _, c := range []struct{ base, path string }{
		{"http://127.0.0.1:8080", "/query"},
		{"https://gw.example.org", "/gma/registrations?digest=ab%2Bcd&wait=2s"},
		{"http://[::1]:9000/prefix", "/subscribe?group=Processor"},
		{"http://10.0.0.1:80", "/traces/a%2Fb"},
		{"http://user:pw@host:1", "/status"},
		{"HTTP://Host:1", "/status"},
		{"http://host:", "/status"},
		{"http://host:1", "/bad path"},
		{"http://host:1\n", "/status"},
		{"gridrm://host:1", "/status"},
	} {
		want, wantErr := http.NewRequest(http.MethodGet, c.base+c.path, nil)
		got, err := (&Client{BaseURL: c.base}).newRequest(context.Background(), http.MethodGet, c.path)
		if (err != nil) != (wantErr != nil) {
			t.Errorf("%s%s: err %v, url.Parse's %v", c.base, c.path, err, wantErr)
			continue
		}
		if err == nil && (got.URL.String() != want.URL.String() || got.Host != want.Host || got.URL.RequestURI() != want.URL.RequestURI()) {
			t.Errorf("%s%s: URL %q host %q, url.Parse's %q host %q", c.base, c.path, got.URL, got.Host, want.URL, want.Host)
		}
	}
}
