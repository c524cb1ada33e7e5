package repub

import (
	"context"
	"net/http"

	"gridrm/internal/httpjson"
	"gridrm/internal/security"
	"gridrm/internal/web"
)

// Handler exposes the republisher behind the same pipeline as a site
// gateway's servlet: POST /query is the servlet's own handler over this
// Gateway, so web.RemoteQueryContext — and therefore the entry gateway's
// resilient router — works against a republisher unchanged. GET /status
// serves the ownership set, each owned site's feed and the counters.
func (g *Gateway) Handler() *web.Front {
	return web.NewFront(nil, web.QueryRoute(g), web.Route{Pattern: "GET /status", Serve: g.serveStatus})
}

func (g *Gateway) serveStatus(_ context.Context, w http.ResponseWriter, _ *http.Request, _ security.Principal) {
	httpjson.WriteJSON(w, struct {
		Name  string   `json:"name"`
		Owns  []string `json:"owns"`
		Feeds []Feed   `json:"feeds"`
		Stats Stats    `json:"stats"`
	}{Name: g.opts.Name, Owns: g.Owns(), Feeds: g.Feeds(), Stats: g.Stats()})
}
