// Package gma implements GridRM's Global layer: the Grid Monitoring
// Architecture (GMA) interaction model of the paper's Fig 1. Gateways
// register with a GMA directory as producers of their site's resource
// data; a client may connect to any gateway, and requests for remote
// resource data are routed through the Global layer to the gateway that
// owns the data.
//
// Every member of the federation — site gateways, republisher gateways,
// and entry gateways — registers a Registration carrying its Role and a
// monotonically increasing Generation; a registration without a role is a
// site. See DESIGN.md §7.
//
// The package provides the directory (in-process and over HTTP), a
// Registrar that keeps a member's record fresh, the consistent-hash Ring
// that shards site ownership across republishers, and the Router that
// plugs into core.Gateway as its GlobalRouter.
package gma

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"gridrm/internal/httpjson"
)

// Role classifies a federation member in the directory.
type Role string

const (
	// RoleSite is a leaf gateway producing one site's resource data.
	RoleSite Role = "site"
	// RoleRepublisher is an intermediate gateway re-serving merged views
	// of the child sites it owns on the ring (R-GMA's republisher).
	RoleRepublisher Role = "republisher"
	// RoleEntry is a client-facing gateway that plans fan-outs; it
	// registers so operators can see it, but is never a query target.
	RoleEntry Role = "entry"
)

// valid reports whether the role is one the directory accepts.
func (r Role) valid() bool {
	switch r {
	case RoleSite, RoleRepublisher, RoleEntry:
		return true
	}
	return false
}

// Registration is one federation member's directory record, and its JSON
// form on the directory's HTTP interface.
type Registration struct {
	// Name is the member's unique name: the site name for Role "site",
	// the republisher name otherwise.
	Name string `json:"name,omitempty"`
	// Endpoint is the member's servlet base URL ("http://host:port").
	Endpoint string `json:"endpoint"`
	// Role classifies the member; the directory files an empty one as
	// RoleSite.
	Role Role `json:"role,omitempty"`
	// Groups lists the GLUE groups the member can answer for.
	Groups []string `json:"groups,omitempty"`
	// Owns is advisory: the sites a republisher currently owns on the
	// ring. Routing recomputes ownership from the ring rather than trust
	// this field; it exists for operators and tests.
	Owns []string `json:"owns,omitempty"`
	// Generation increases whenever the member's identity-relevant fields
	// (endpoint, role) change. The directory bumps it on change even when
	// the caller leaves it zero; routers use it to invalidate cached
	// lookups that predate a re-registration.
	Generation uint64 `json:"generation,omitempty"`
	// RegisteredAt is when the record was last refreshed.
	RegisteredAt time.Time `json:"registeredAt"`
}

// normalize applies the default: an empty role is a site.
func (r *Registration) normalize() {
	if r.Role == "" {
		r.Role = RoleSite
	}
}

// DirectoryService is the GMA directory contract shared by the in-process
// directory, the HTTP client and the replicated MultiDirectory. Every call
// is bounded by its context.
type DirectoryService interface {
	// RegisterContext adds or refreshes a member record.
	RegisterContext(ctx context.Context, r Registration) error
	// DeregisterContext removes a member by name.
	DeregisterContext(ctx context.Context, name string) error
	// LookupContext finds a member by name, whatever its role.
	LookupContext(ctx context.Context, name string) (Registration, bool, error)
	// SitesContext lists registered members with Role "site", sorted — the
	// fan-out universe. Republishers and entries never appear here.
	SitesContext(ctx context.Context) ([]string, error)
	// ListContext returns every fresh record, sorted by name.
	ListContext(ctx context.Context) ([]Registration, error)
	// WatchContext is ListContext once the membership's Digest differs
	// from digest, or once wait has passed, whichever comes first.
	WatchContext(ctx context.Context, digest string, wait time.Duration) ([]Registration, error)
}

// Digest names a membership: a hash of each record's name, role, endpoint
// and groups, taken in the order given (ListContext's name order). It
// leaves out RegisteredAt, Owns and Generation, so a heartbeat or a
// republisher's re-registration of its Owns leaves it unchanged.
func Digest(regs []Registration) string {
	h := fnv.New64a()
	field := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	for _, r := range regs {
		field(r.Name)
		field(string(r.Role))
		field(r.Endpoint)
		for _, g := range r.Groups {
			field(g)
		}
		h.Write([]byte{1})
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// Directory is the in-process GMA directory with TTL-based expiry of
// stale member records.
type Directory struct {
	ttl   time.Duration
	clock func() time.Time

	mu      sync.RWMutex
	members map[string]Registration
	changed chan struct{} // closed, and replaced, when the Digest may have changed
}

// NewDirectory creates a directory; records older than ttl are treated as
// gone (ttl <= 0 means records never expire). The clock is injectable for
// tests; nil uses time.Now.
func NewDirectory(ttl time.Duration, clock func() time.Time) *Directory {
	if clock == nil {
		clock = time.Now
	}
	return &Directory{ttl: ttl, clock: clock, members: make(map[string]Registration), changed: make(chan struct{})}
}

// notify wakes every watcher; d.mu is held for writing.
func (d *Directory) notify() {
	close(d.changed)
	d.changed = make(chan struct{})
}

// RegisterContext implements DirectoryService. The stored Generation is
// monotonic: a re-registration that changes the endpoint or role bumps it
// even when the caller left Generation zero, and a caller-supplied larger
// Generation always wins — so routers can detect a re-registered member
// without comparing endpoints themselves.
func (d *Directory) RegisterContext(ctx context.Context, r Registration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r.normalize()
	if r.Name == "" || r.Endpoint == "" {
		return fmt.Errorf("gma: registration needs name and endpoint")
	}
	if !r.Role.valid() {
		return fmt.Errorf("gma: unknown role %q", r.Role)
	}
	r.RegisteredAt = d.clock()
	d.mu.Lock()
	defer d.mu.Unlock()
	prev, ok := d.members[r.Name]
	if !ok || !d.fresh(prev) || r.Endpoint != prev.Endpoint || r.Role != prev.Role || !slices.Equal(r.Groups, prev.Groups) {
		defer d.notify()
	}
	if ok {
		switch {
		case r.Generation > prev.Generation:
			// Caller-supplied bump wins.
		case r.Endpoint != prev.Endpoint || r.Role != prev.Role:
			r.Generation = prev.Generation + 1
		default:
			r.Generation = prev.Generation
		}
	} else if r.Generation == 0 {
		r.Generation = 1
	}
	d.members[r.Name] = r
	return nil
}

// DeregisterContext implements DirectoryService.
func (d *Directory) DeregisterContext(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.members[name]; !ok {
		return fmt.Errorf("gma: %q not registered", name)
	}
	delete(d.members, name)
	d.notify()
	return nil
}

func (d *Directory) fresh(r Registration) bool {
	return d.ttl <= 0 || d.clock().Sub(r.RegisteredAt) <= d.ttl
}

// LookupContext implements DirectoryService.
func (d *Directory) LookupContext(ctx context.Context, name string) (Registration, bool, error) {
	if err := ctx.Err(); err != nil {
		return Registration{}, false, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.members[name]
	if !ok || !d.fresh(r) {
		return Registration{}, false, nil
	}
	return r, true, nil
}

// SitesContext implements DirectoryService.
func (d *Directory) SitesContext(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.members))
	for name, r := range d.members {
		if r.Role == RoleSite && d.fresh(r) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// ListContext implements DirectoryService.
func (d *Directory) ListContext(ctx context.Context) ([]Registration, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.list(), nil
}

// list is every fresh record, sorted by name; d.mu is held.
func (d *Directory) list() []Registration {
	out := make([]Registration, 0, len(d.members))
	for _, r := range d.members {
		if d.fresh(r) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WatchContext implements DirectoryService. A join, a deregister, or a
// change of a member's endpoint, role or groups wakes it; a record that
// expires by TTL is seen only at the next call.
func (d *Directory) WatchContext(ctx context.Context, digest string, wait time.Duration) ([]Registration, error) {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for waited := false; ; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d.mu.RLock()
		regs, changed := d.list(), d.changed
		d.mu.RUnlock()
		if waited || Digest(regs) != digest {
			return regs, nil
		}
		select {
		case <-changed:
		case <-timer.C:
			waited = true
		case <-ctx.Done():
		}
	}
}

// Prune drops expired records and reports how many were removed.
func (d *Directory) Prune() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for name, r := range d.members {
		if !d.fresh(r) {
			delete(d.members, name)
			n++
		}
	}
	return n
}

// Route is one row of the directory's HTTP interface. The pattern carries
// the method, so ServeMux answers any other method with 405.
type Route struct {
	Pattern string
	Serve   http.HandlerFunc
}

// maxWatchWait caps the wait a GET /gma/registrations?wait= may hold.
const maxWatchWait = 30 * time.Second

// Routes is the directory's HTTP interface. The ?site= parameter names the
// member, whatever its role. GET /gma/registrations with ?wait= (a Go
// duration) and ?digest= is WatchContext; without ?wait= it is ListContext.
func (d *Directory) Routes() []Route {
	return []Route{
		{"POST /gma/register", func(w http.ResponseWriter, r *http.Request) {
			var reg Registration
			if httpjson.ReadJSON(w, r, &reg) {
				answer(w, nil, d.RegisterContext(r.Context(), reg), http.StatusBadRequest)
			}
		}},
		{"DELETE /gma/register", func(w http.ResponseWriter, r *http.Request) {
			answer(w, nil, d.DeregisterContext(r.Context(), r.URL.Query().Get("site")), http.StatusNotFound)
		}},
		{"GET /gma/lookup", func(w http.ResponseWriter, r *http.Request) {
			reg, ok, err := d.LookupContext(r.Context(), r.URL.Query().Get("site"))
			if err == nil && !ok {
				http.Error(w, "unknown member", http.StatusNotFound)
				return
			}
			answer(w, reg, err, http.StatusInternalServerError)
		}},
		{"GET /gma/sites", func(w http.ResponseWriter, r *http.Request) {
			sites, err := d.SitesContext(r.Context())
			answer(w, sites, err, http.StatusInternalServerError)
		}},
		{"GET /gma/registrations", func(w http.ResponseWriter, r *http.Request) {
			q := r.URL.Query()
			if !q.Has("wait") {
				regs, err := d.ListContext(r.Context())
				answer(w, regs, err, http.StatusInternalServerError)
				return
			}
			wait, err := time.ParseDuration(q.Get("wait"))
			if err != nil || wait < 0 {
				http.Error(w, "bad wait", http.StatusBadRequest)
				return
			}
			regs, err := d.WatchContext(r.Context(), q.Get("digest"), min(wait, maxWatchWait))
			answer(w, regs, err, http.StatusInternalServerError)
		}},
	}
}

// Handler mounts Routes on a mux.
func (d *Directory) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range d.Routes() {
		mux.HandleFunc(rt.Pattern, rt.Serve)
	}
	return mux
}

// answer ends a directory request: err with the given status, else v as
// JSON, else (v nil) 204 No Content.
func answer(w http.ResponseWriter, v any, err error, status int) {
	switch {
	case err != nil:
		http.Error(w, err.Error(), status)
	case v == nil:
		w.WriteHeader(http.StatusNoContent)
	default:
		httpjson.WriteJSON(w, v)
	}
}

// DefaultClientTimeout bounds DirectoryClient requests when neither Timeout
// nor HTTPClient is configured.
const DefaultClientTimeout = 5 * time.Second

// DirectoryClient talks to a remote Directory over HTTP.
type DirectoryClient struct {
	// BaseURL is the directory host base, e.g. "http://127.0.0.1:9000".
	BaseURL string
	// Timeout bounds each directory request when HTTPClient is nil
	// (default DefaultClientTimeout; negative disables, leaving only the
	// caller's context to bound the request).
	Timeout time.Duration
	// HTTPClient is optional; nil uses a Timeout-bounded client.
	HTTPClient *http.Client
}

func (c *DirectoryClient) client() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	timeout := c.Timeout
	if timeout == 0 {
		timeout = DefaultClientTimeout
	} else if timeout < 0 {
		timeout = 0
	}
	return &http.Client{Timeout: timeout}
}

// maxDirectoryBody bounds how much of a directory response the client will
// read before JSON decoding — a misbehaving (or impersonated) directory
// cannot make a gateway buffer an unbounded body.
const maxDirectoryBody = 1 << 20

// errNotFound is a 404 from the directory: the member is not registered.
var errNotFound = errors.New("not found")

// send performs one directory round trip; what names the operation in
// errors. The answer must carry the want status, and when out is non-nil at
// most maxDirectoryBody of it is decoded into out.
func (c *DirectoryClient) send(ctx context.Context, what, method, path string, body []byte, want int, out any) error {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rdr)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return fmt.Errorf("gma: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case want:
		if out == nil {
			return nil
		}
		return json.NewDecoder(io.LimitReader(resp.Body, maxDirectoryBody)).Decode(out)
	case http.StatusNotFound:
		return fmt.Errorf("gma: %s failed: %w", what, errNotFound)
	}
	return fmt.Errorf("gma: %s failed: %s", what, resp.Status)
}

// get is send for the read-only routes: a GET answered 200 with a T.
func get[T any](ctx context.Context, c *DirectoryClient, what, path string) (out T, err error) {
	err = c.send(ctx, what, http.MethodGet, path, nil, http.StatusOK, &out)
	return out, err
}

// RegisterContext implements DirectoryService.
func (c *DirectoryClient) RegisterContext(ctx context.Context, r Registration) error {
	body, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return c.send(ctx, "register", http.MethodPost, "/gma/register", body, http.StatusNoContent, nil)
}

// DeregisterContext implements DirectoryService. The member name is
// query-escaped: names with spaces or '&' deregister their own key, not a
// truncated one.
func (c *DirectoryClient) DeregisterContext(ctx context.Context, name string) error {
	return c.send(ctx, "deregister", http.MethodDelete, "/gma/register?site="+url.QueryEscape(name), nil, http.StatusNoContent, nil)
}

// LookupContext implements DirectoryService.
func (c *DirectoryClient) LookupContext(ctx context.Context, name string) (Registration, bool, error) {
	r, err := get[Registration](ctx, c, "lookup", "/gma/lookup?site="+url.QueryEscape(name))
	if errors.Is(err, errNotFound) {
		return Registration{}, false, nil
	}
	return r, err == nil, err
}

// SitesContext implements DirectoryService.
func (c *DirectoryClient) SitesContext(ctx context.Context) ([]string, error) {
	return get[[]string](ctx, c, "sites", "/gma/sites")
}

// ListContext implements DirectoryService.
func (c *DirectoryClient) ListContext(ctx context.Context) ([]Registration, error) {
	return get[[]Registration](ctx, c, "registrations", "/gma/registrations")
}

// WatchContext implements DirectoryService as a long poll. The wait is
// held under half the client's timeout, so the directory answers before
// the request times out, and under maxWatchWait.
func (c *DirectoryClient) WatchContext(ctx context.Context, digest string, wait time.Duration) ([]Registration, error) {
	wait = min(max(wait, 0), maxWatchWait)
	if t := c.client().Timeout; t > 0 {
		wait = min(wait, t/2)
	}
	path := "/gma/registrations?digest=" + url.QueryEscape(digest) + "&wait=" + wait.String()
	return get[[]Registration](ctx, c, "watch", path)
}

var _ DirectoryService = (*Directory)(nil)
var _ DirectoryService = (*DirectoryClient)(nil)
