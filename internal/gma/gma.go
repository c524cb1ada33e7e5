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
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"
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
}

// Directory is the in-process GMA directory with TTL-based expiry of
// stale member records.
type Directory struct {
	ttl   time.Duration
	clock func() time.Time

	mu      sync.RWMutex
	members map[string]Registration
}

// NewDirectory creates a directory; records older than ttl are treated as
// gone (ttl <= 0 means records never expire). The clock is injectable for
// tests; nil uses time.Now.
func NewDirectory(ttl time.Duration, clock func() time.Time) *Directory {
	if clock == nil {
		clock = time.Now
	}
	return &Directory{ttl: ttl, clock: clock, members: make(map[string]Registration)}
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
	if prev, ok := d.members[r.Name]; ok {
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
	out := make([]Registration, 0, len(d.members))
	for _, r := range d.members {
		if d.fresh(r) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
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

// Handler returns the directory's HTTP interface:
//
//	POST   /gma/register       body: Registration
//	DELETE /gma/register?site=
//	GET    /gma/lookup?site=
//	GET    /gma/sites
//	GET    /gma/registrations
//
// The ?site= parameter names the member, whatever its role.
func (d *Directory) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/gma/register", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			var reg Registration
			if err := json.NewDecoder(r.Body).Decode(&reg); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := d.RegisterContext(r.Context(), reg); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		case http.MethodDelete:
			if err := d.DeregisterContext(r.Context(), r.URL.Query().Get("site")); err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/gma/lookup", func(w http.ResponseWriter, r *http.Request) {
		reg, ok, err := d.LookupContext(r.Context(), r.URL.Query().Get("site"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if !ok {
			http.Error(w, "unknown member", http.StatusNotFound)
			return
		}
		writeJSON(w, reg)
	})
	mux.HandleFunc("/gma/sites", func(w http.ResponseWriter, r *http.Request) {
		sites, err := d.SitesContext(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, sites)
	})
	mux.HandleFunc("/gma/registrations", func(w http.ResponseWriter, r *http.Request) {
		regs, err := d.ListContext(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, regs)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
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

func (c *DirectoryClient) roundTrip(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rdr)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("gma: %w", err)
	}
	return resp, nil
}

// RegisterContext implements DirectoryService.
func (c *DirectoryClient) RegisterContext(ctx context.Context, r Registration) error {
	body, err := json.Marshal(r)
	if err != nil {
		return err
	}
	resp, err := c.roundTrip(ctx, http.MethodPost, "/gma/register", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("gma: register failed: %s", resp.Status)
	}
	return nil
}

// maxDirectoryBody bounds how much of a directory response the client will
// read before JSON decoding — a misbehaving (or impersonated) directory
// cannot make a gateway buffer an unbounded body.
const maxDirectoryBody = 1 << 20

// DeregisterContext implements DirectoryService. The member name is
// query-escaped: names with spaces or '&' deregister their own key, not a
// truncated one.
func (c *DirectoryClient) DeregisterContext(ctx context.Context, name string) error {
	resp, err := c.roundTrip(ctx, http.MethodDelete, "/gma/register?site="+url.QueryEscape(name), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("gma: deregister failed: %s", resp.Status)
	}
	return nil
}

// LookupContext implements DirectoryService.
func (c *DirectoryClient) LookupContext(ctx context.Context, name string) (Registration, bool, error) {
	resp, err := c.roundTrip(ctx, http.MethodGet, "/gma/lookup?site="+url.QueryEscape(name), nil)
	if err != nil {
		return Registration{}, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return Registration{}, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return Registration{}, false, fmt.Errorf("gma: lookup failed: %s", resp.Status)
	}
	var r Registration
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxDirectoryBody)).Decode(&r); err != nil {
		return Registration{}, false, err
	}
	return r, true, nil
}

// SitesContext implements DirectoryService.
func (c *DirectoryClient) SitesContext(ctx context.Context) ([]string, error) {
	resp, err := c.roundTrip(ctx, http.MethodGet, "/gma/sites", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("gma: sites failed: %s", resp.Status)
	}
	var out []string
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxDirectoryBody)).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// ListContext implements DirectoryService.
func (c *DirectoryClient) ListContext(ctx context.Context) ([]Registration, error) {
	resp, err := c.roundTrip(ctx, http.MethodGet, "/gma/registrations", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("gma: registrations failed: %s", resp.Status)
	}
	var out []Registration
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxDirectoryBody)).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

var _ DirectoryService = (*Directory)(nil)
var _ DirectoryService = (*DirectoryClient)(nil)
