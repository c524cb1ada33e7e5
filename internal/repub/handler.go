package repub

import (
	"context"
	"net/http"

	"gridrm/internal/gma"
	"gridrm/internal/httpjson"
	"gridrm/internal/security"
	"gridrm/internal/web"
)

// Handler exposes the republisher behind the same pipeline as a site
// gateway's servlet: POST /query is the servlet's own handler over this
// Gateway, so web.RemoteQueryContext — and therefore the entry gateway's
// resilient router — works against a republisher unchanged. GET
// /repub/version is the version watch web.RemoteVersionContext polls. GET
// /status serves the ownership set, the membership it was computed from,
// each owned site's feed and the counters; GET /metrics serves the counters
// in the Prometheus text format.
func (g *Gateway) Handler() *web.Front {
	return web.NewFront(nil, web.QueryRoute(g),
		web.Route{Pattern: "GET /repub/version", Serve: g.serveVersion},
		web.Route{Pattern: "GET /status", Serve: g.serveStatus},
		web.Route{Pattern: "GET /metrics", Serve: g.serveMetrics})
}

// serveVersion is the version watch, the directory's long poll over the
// republisher's version token: it answers once the token differs from the
// If-None-Match one, or once ?wait= has passed, with the token as its ETag
// and no body — a 304 when it is the one the request named.
func (g *Gateway) serveVersion(ctx context.Context, w http.ResponseWriter, r *http.Request, _ security.Principal) {
	wait, _, err := gma.WatchWait(r.URL.Query())
	if err != nil {
		http.Error(w, "bad wait", http.StatusBadRequest)
		return
	}
	seen := web.UnquoteETag(r.Header.Get(web.HeaderIfNoneMatch))
	if err := gma.Await(ctx, wait, func() (bool, <-chan struct{}) {
		changed := g.store.changes.Next()
		return g.currentToken() == seen, changed
	}); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	g.versionPolls.Add(1)
	token := g.currentToken()
	w.Header().Set(web.HeaderETag, `"`+token+`"`)
	if token == seen {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (g *Gateway) serveMetrics(_ context.Context, w http.ResponseWriter, _ *http.Request, _ security.Principal) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := g.metrics.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (g *Gateway) serveStatus(_ context.Context, w http.ResponseWriter, _ *http.Request, _ security.Principal) {
	httpjson.WriteJSON(w, struct {
		Name       string     `json:"name"`
		Owns       []string   `json:"owns"`
		Membership Membership `json:"membership"`
		Feeds      []Feed     `json:"feeds"`
		Stats      Stats      `json:"stats"`
	}{Name: g.opts.Name, Owns: g.Owns(), Membership: g.Membership(), Feeds: g.Feeds(), Stats: g.Stats()})
}
