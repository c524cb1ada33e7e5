package repub

import (
	"net/http"
	"strings"

	"gridrm/internal/security"
	"gridrm/internal/web"
)

// Handler exposes the republisher over the same wire protocol as a site
// gateway's servlet interface: POST /query speaks web.WireRequest /
// web.WireResponse, so web.RemoteQueryContext — and therefore the entry
// gateway's resilient router — works against a republisher unchanged.
// GET /status serves the ownership set and counters.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", g.handleQuery)
	mux.HandleFunc("/status", g.handleStatus)
	return mux
}

func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var wr web.WireRequest
	if !web.ReadJSON(w, r, &wr) {
		return
	}
	req, err := wr.ToCoreRequest()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req.Principal = principalFrom(r)
	resp, err := g.QueryContext(r.Context(), req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	web.WriteJSON(w, web.EncodeResponse(resp))
}

func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	web.WriteJSON(w, struct {
		Name  string   `json:"name"`
		Owns  []string `json:"owns"`
		Stats Stats    `json:"stats"`
	}{Name: g.opts.Name, Owns: g.Owns(), Stats: g.Stats()})
}

// principalFrom reads the caller's identity headers, the same ones the
// site servlet reads and web.Client sends.
func principalFrom(r *http.Request) security.Principal {
	p := security.Principal{
		Name: r.Header.Get(web.HeaderUser),
		Site: r.Header.Get(web.HeaderSite),
	}
	if roles := r.Header.Get(web.HeaderRoles); roles != "" {
		for _, role := range strings.Split(roles, ",") {
			if role = strings.TrimSpace(role); role != "" {
				p.Roles = append(p.Roles, role)
			}
		}
	}
	return p
}
