package web

import (
	"context"
	"errors"
	"net/http"
	"strings"

	"gridrm/internal/core"
	"gridrm/internal/httpjson"
	"gridrm/internal/security"
	"gridrm/internal/trace"
)

// Route is one row of an HTTP surface's table. The pattern carries the
// method, so ServeMux answers any other method with 405 and an Allow header.
type Route struct {
	// Pattern is the ServeMux pattern, method first: "POST /sources".
	Pattern string
	// Op is the coarse-grained operation (the paper's CGSL) the caller must
	// be allowed before the handler runs. Empty on the read-only routes and
	// on the query routes, whose operation depends on the query and is
	// checked by the gateway itself.
	Op security.Operation
	// Gated routes wait at the admission gate and are shed with 429.
	Gated bool
	// Serve answers a request that passed the pipeline.
	Serve Handler
}

// Handler answers one request from principal p. ctx is the request's
// context, continuing the caller's trace when one was propagated.
type Handler func(ctx context.Context, w http.ResponseWriter, r *http.Request, p security.Principal)

// Front is an HTTP surface: a route table behind the one request pipeline
// (the paper's Abstract Client Interface and Coarse-Grained Security
// layers). The site servlet and a republisher are both Fronts.
type Front struct {
	mux    *http.ServeMux
	routes []Route
	coarse *security.CoarsePolicy
	admit  *admission
}

// NewFront mounts routes behind the pipeline. coarse decides the routes
// that name an Op; a surface whose table names none may pass nil.
func NewFront(coarse *security.CoarsePolicy, routes ...Route) *Front {
	f := &Front{mux: http.NewServeMux(), routes: routes, coarse: coarse}
	for _, rt := range routes {
		f.mux.HandleFunc(rt.Pattern, f.pipeline(rt))
	}
	return f
}

// ServeHTTP implements http.Handler.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// Routes returns the table the Front was built from.
func (f *Front) Routes() []Route { return f.routes }

// pipeline is everything between the mux and a route's handler: who is
// calling, whether they may, and whether there is room.
func (f *Front) pipeline(rt Route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p := principalFrom(r)
		if rt.Op != "" && f.coarse.Check(p, rt.Op) != security.Allow {
			http.Error(w, "permission denied", http.StatusForbidden)
			return
		}
		if rt.Gated && f.admit != nil {
			release, ok := f.admit.acquire(r.Context())
			if !ok {
				w.Header().Set("Retry-After", retryAfter)
				http.Error(w, "gateway saturated, retry later", http.StatusTooManyRequests)
				return
			}
			defer release()
		}
		rt.Serve(traceContext(r), w, r, p)
	}
}

// Principal headers, in the canonical form net/http keys its maps by, so that
// Set and Get use the constants as they stand instead of each making a
// canonical copy. Header names are case-insensitive on the wire: a peer (or a
// curl line) that writes X-GridRM-User is heard all the same.
const (
	HeaderUser  = "X-Gridrm-User"
	HeaderRoles = "X-Gridrm-Roles"
	HeaderSite  = "X-Gridrm-Site"
)

func principalFrom(r *http.Request) security.Principal {
	p := security.Principal{
		Name: r.Header.Get(HeaderUser),
		Site: r.Header.Get(HeaderSite),
	}
	if p.Name == "" {
		p.Name = "anonymous"
	}
	p.Roles = parseRoles(r.Header.Get(HeaderRoles))
	return p
}

// parseRoles reads a comma list of roles into one slice of exactly its
// size, blanks trimmed and empty members dropped; nil when none is named.
func parseRoles(list string) []string {
	n := 0
	for rest := list; rest != ""; {
		var role string
		role, rest, _ = strings.Cut(rest, ",")
		if strings.TrimSpace(role) != "" {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	roles := make([]string, 0, n)
	for rest := list; rest != ""; {
		var role string
		role, rest, _ = strings.Cut(rest, ",")
		if role = strings.TrimSpace(role); role != "" {
			roles = append(roles, role)
		}
	}
	return roles
}

// traceContext extracts a propagated trace carrier from the request's
// X-GridRM-Trace header into the context, so the gateway continues the
// calling gateway's trace instead of starting its own.
func traceContext(r *http.Request) context.Context {
	ctx := r.Context()
	if car, ok := trace.ParseCarrier(r.Header.Get(trace.HeaderName)); ok {
		ctx = trace.ContextWithRemote(ctx, car)
	}
	return ctx
}

// reply adapts a handler that returns its answer instead of writing it: a
// value is the JSON body, nil is 204 No Content, an error goes through
// httpError.
func reply(h func(r *http.Request) (any, error)) Handler {
	return func(_ context.Context, w http.ResponseWriter, r *http.Request, _ security.Principal) {
		v, err := h(r)
		respond(w, v, err)
	}
}

// replyTo is reply for a route that takes a JSON body of type B, decoded
// under the httpjson.MaxRequestBody cap (413 past it, 400 when malformed).
func replyTo[B any](h func(ctx context.Context, p security.Principal, body *B) (any, error)) Handler {
	return func(ctx context.Context, w http.ResponseWriter, r *http.Request, p security.Principal) {
		var body B
		if !httpjson.ReadJSON(w, r, &body) {
			return
		}
		v, err := h(ctx, p, &body)
		respond(w, v, err)
	}
}

func respond(w http.ResponseWriter, v any, err error) {
	switch {
	case err != nil:
		httpError(w, err)
	case v == nil:
		w.WriteHeader(http.StatusNoContent)
	default:
		httpjson.WriteJSON(w, v)
	}
}

// statusError is an error a handler wants answered with a status other
// than httpError's default.
type statusError struct {
	status int
	error
}

// withStatus tags a non-nil err with the HTTP status to answer it with.
func withStatus(status int, err error) error {
	if err == nil {
		return nil
	}
	return statusError{status, err}
}

// httpError answers a failed request: the status a handler tagged the
// error with, 403 for a security-layer denial, 400 for anything else.
func httpError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var se statusError
	var pe *core.PermissionError
	switch {
	case errors.As(err, &se):
		status = se.status
	case errors.As(err, &pe):
		status = http.StatusForbidden
	}
	http.Error(w, err.Error(), status)
}

// Querier is the one method POST /query serves; a site gateway and a
// republisher both have it.
type Querier interface {
	QueryContext(ctx context.Context, opts core.QueryOptions) (*core.Response, error)
}

// QueryRoute is the POST /query row over q: the servlet wire protocol
// (WireRequest in, WireResponse out) that Client.Query and
// RemoteQueryContext speak, behind the admission gate. A strong
// If-None-Match is the request's Validator; an answer's Validator is its
// ETag, its Version the X-Gridrm-Version header, and a NotModified answer is
// a 304 with no body.
func QueryRoute(q Querier) Route {
	return Route{Pattern: "POST /query", Gated: true, Serve: func(ctx context.Context, w http.ResponseWriter, r *http.Request, p security.Principal) {
		var wr WireRequest
		if !httpjson.ReadJSON(w, r, &wr) {
			return
		}
		req, err := wr.ToCoreRequest()
		if err != nil {
			httpError(w, err)
			return
		}
		req.Principal = p
		req.Validator = UnquoteETag(r.Header.Get(HeaderIfNoneMatch))
		// The client's connection context bounds the query: a caller
		// that gives up (or a parent gateway whose deadline expires)
		// cancels the fan-out here too.
		resp, err := q.QueryContext(ctx, req)
		if err != nil {
			httpError(w, err)
			return
		}
		if resp.Validator != "" {
			w.Header().Set(HeaderETag, `"`+resp.Validator+`"`)
		}
		if resp.Version != "" {
			w.Header()[HeaderVersion] = []string{resp.Version}
		}
		if resp.NotModified {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		httpjson.WriteJSON(w, EncodeResponse(resp))
	}}
}

// Validator headers, canonical as the principal headers are. HeaderVersion
// carries an answer's core.Response.Version.
const (
	HeaderETag        = "Etag"
	HeaderIfNoneMatch = "If-None-Match"
	HeaderVersion     = "X-Gridrm-Version"
)

// UnquoteETag returns the validator a header names as one strong entity
// tag, "" for anything else: an empty header, a weak tag, a list or *.
func UnquoteETag(h string) string {
	if len(h) < 3 || h[0] != '"' || h[len(h)-1] != '"' || strings.IndexByte(h[1:len(h)-1], '"') >= 0 {
		return ""
	}
	return h[1 : len(h)-1]
}
