package web_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/web"
)

// versionQuerier answers as a republisher does: a full answer whose
// validator is "v1", or NotModified to a request that brings "v1" back. It
// records the validator each request brought.
type versionQuerier struct {
	mu   sync.Mutex
	seen []string
}

func (q *versionQuerier) QueryContext(_ context.Context, req core.QueryOptions) (*core.Response, error) {
	q.mu.Lock()
	q.seen = append(q.seen, req.Validator)
	q.mu.Unlock()
	if req.Validator == "v1" {
		return &core.Response{NotModified: true, Validator: "v1"}, nil
	}
	meta, err := resultset.NewMetadata([]resultset.Column{{Name: "N", Kind: glue.Int}})
	if err != nil {
		return nil, err
	}
	rs, err := resultset.NewBuilder(meta).Append(int64(7)).Build()
	if err != nil {
		return nil, err
	}
	return &core.Response{Site: "repub-0", ResultSet: rs, Validator: "v1"}, nil
}

func (q *versionQuerier) last() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.seen[len(q.seen)-1]
}

func postQuery(t *testing.T, url, ifNoneMatch string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/query", strings.NewReader(`{"sql":"SELECT N FROM T"}`))
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestQueryRouteValidators: POST /query maps an answer's Validator to a
// strong ETag and a strong If-None-Match to the request's Validator; a
// NotModified answer is a 304 with no body. A weak tag, a list or * names no
// validator. Client.Query speaks the same both ways.
func TestQueryRouteValidators(t *testing.T) {
	q := &versionQuerier{}
	srv := httptest.NewServer(web.NewFront(nil, web.QueryRoute(q)))
	defer srv.Close()

	full := postQuery(t, srv.URL, "")
	full.Body.Close()
	if full.StatusCode != http.StatusOK || full.Header.Get("ETag") != `"v1"` {
		t.Errorf("full answer -> %d, ETag %q; want 200 and \"v1\"", full.StatusCode, full.Header.Get("ETag"))
	}
	same := postQuery(t, srv.URL, `"v1"`)
	body, _ := io.ReadAll(same.Body)
	same.Body.Close()
	if same.StatusCode != http.StatusNotModified || len(body) != 0 || same.Header.Get("ETag") != `"v1"` || q.last() != "v1" {
		t.Errorf("revalidation -> %d, %d body bytes, ETag %q, querier saw %q; want 304, none, \"v1\", v1",
			same.StatusCode, len(body), same.Header.Get("ETag"), q.last())
	}
	for _, h := range []string{`W/"v1"`, `"v1", "v2"`, `*`, `v1`, `""`} {
		resp := postQuery(t, srv.URL, h)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || q.last() != "" {
			t.Errorf("If-None-Match %s -> %d, querier saw %q; want 200 and no validator", h, resp.StatusCode, q.last())
		}
	}

	c := &web.Client{BaseURL: srv.URL}
	ctx := context.Background()
	resp, err := c.Query(ctx, core.QueryOptions{SQL: "SELECT N FROM T"})
	if err != nil || resp.NotModified || resp.Validator != "v1" || resp.ResultSet.Len() != 1 || q.last() != "" {
		t.Fatalf("client full read = %+v, %v; querier saw %q", resp, err, q.last())
	}
	resp, err = c.Query(ctx, core.QueryOptions{SQL: "SELECT N FROM T", Validator: resp.Validator})
	if err != nil || !resp.NotModified || resp.Validator != "v1" || resp.ResultSet != nil || q.last() != "v1" {
		t.Fatalf("client revalidation = %+v, %v; querier saw %q", resp, err, q.last())
	}
}

// TestNotModifiedWithoutValidatorIsAnError: a 304 to a request that sent no
// validator names no answer the client holds.
func TestNotModifiedWithoutValidatorIsAnError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("ETag", `"v1"`)
		w.WriteHeader(http.StatusNotModified)
	}))
	defer srv.Close()
	c := &web.Client{BaseURL: srv.URL}
	if resp, err := c.Query(context.Background(), core.QueryOptions{SQL: "SELECT N FROM T"}); err == nil {
		t.Fatalf("a 304 to a query without a validator was answered %+v", resp)
	}
}
