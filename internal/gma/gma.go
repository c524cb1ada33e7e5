// Package gma implements GridRM's Global layer: the Grid Monitoring
// Architecture (GMA) interaction model of the paper's Fig 1. Gateways
// register with a GMA directory as producers of their site's resource
// data; a client may connect to any gateway, and requests for remote
// resource data are routed through the Global layer to the gateway that
// owns the data.
//
// Every member of the federation — site gateways and republisher gateways —
// registers a Registration carrying its Role, and keeps it through one
// Registrar; a registration without a role is a site. See DESIGN.md, "GMA
// router".
//
// The package provides the directory (in-process and over HTTP), the
// Registrar that keeps a member's record fresh, the consistent-hash Ring
// that shards site ownership across republishers, and the Router that
// plugs into core.Gateway as its GlobalRouter.
package gma

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"gridrm/internal/httpjson"
	"gridrm/internal/web"
)

// Role classifies a federation member in the directory.
type Role string

const (
	// RoleSite is a leaf gateway producing one site's resource data.
	RoleSite Role = "site"
	// RoleRepublisher is an intermediate gateway re-serving merged views
	// of the child sites it owns on the ring (R-GMA's republisher).
	RoleRepublisher Role = "republisher"
)

// valid reports whether the role is one the directory accepts.
func (r Role) valid() bool { return r == RoleSite || r == RoleRepublisher }

// Registration is one federation member's directory record, and its JSON
// form on the directory's HTTP interface. It is the member's identity, and
// holds only what some reader reads: a record carrying keys it does not
// declare (an older peer's "owns" or "generation") decodes with them
// ignored.
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
	// ListContext returns every fresh record, sorted by name; the Router
	// looks members up in it by binary search. Callers only read the list:
	// a DirectoryClient hands every caller the one it keeps while the
	// membership is unchanged.
	ListContext(ctx context.Context) ([]Registration, error)
	// WatchContext is ListContext once the membership's Digest differs
	// from digest, or once wait has passed, whichever comes first.
	WatchContext(ctx context.Context, digest string, wait time.Duration) ([]Registration, error)
}

// Digest names a membership: a hash of each record's name, role, endpoint
// and groups, taken in the order given (ListContext's name order). It
// leaves out RegisteredAt, so a heartbeat leaves it unchanged. The
// directory's answers to GET /gma/registrations carry it as their ETag.
func Digest(regs []Registration) string { return strconv.FormatUint(digest(regs), 16) }

// FNV-1a's 64-bit parameters (hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// digest is Digest's FNV-1a hash, taken without allocating.
func digest(regs []Registration) uint64 {
	h := uint64(fnvOffset64)
	for i := range regs {
		r := &regs[i]
		h = hashField(h, r.Name)
		h = hashField(h, string(r.Role))
		h = hashField(h, r.Endpoint)
		for _, g := range r.Groups {
			h = hashField(h, g)
		}
		h = (h ^ 1) * fnvPrime64
	}
	return h
}

// hashField hashes s and the 0 byte that ends it.
func hashField(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h * fnvPrime64
}

// DigestHash folds a Digest into 32 bits, so a membership can be exported
// as a gauge: every member's gridrm_directory_copy_digest is the DigestHash
// of the membership it acts on, and two members whose gauges differ
// disagree about the ring.
func DigestHash(digest string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(digest))
	return h.Sum32()
}

// Directory is the in-process GMA directory with TTL-based expiry of
// stale member records. A record past its TTL is deleted by the next
// operation, read or write, under the lock that operation takes.
type Directory struct {
	ttl   time.Duration
	clock func() time.Time

	mu      sync.Mutex
	members map[string]Registration
	// oldest is no later than the oldest record's RegisteredAt: until it
	// is past the TTL, no record is, and sweep has nothing to walk.
	oldest time.Time
	// sum is the membership's digest hash while summed is set; a change of
	// membership clears it, and a heartbeat leaves it.
	sum    uint64
	summed bool
	// changes wakes the watchers when the Digest may have changed.
	changes Changes
}

// NewDirectory creates a directory; records older than ttl are deleted
// (ttl <= 0 means records never expire). The clock is injectable for
// tests; nil uses time.Now.
func NewDirectory(ttl time.Duration, clock func() time.Time) *Directory {
	if clock == nil {
		clock = time.Now
	}
	return &Directory{ttl: ttl, clock: clock, members: make(map[string]Registration)}
}

// notify wakes every watcher and forgets the digest; d.mu is held.
func (d *Directory) notify() {
	d.summed = false
	d.changes.Notify()
}

// sweep deletes every record past its TTL at now; d.mu is held. It walks
// the members only once the oldest of them may have expired. A deletion
// wakes no watcher: they see it at their next wake-up or call.
func (d *Directory) sweep(now time.Time) {
	if d.ttl <= 0 || len(d.members) == 0 || now.Sub(d.oldest) <= d.ttl {
		return
	}
	d.oldest = now
	for name, r := range d.members {
		if now.Sub(r.RegisteredAt) > d.ttl {
			delete(d.members, name)
			d.summed = false
		} else if r.RegisteredAt.Before(d.oldest) {
			d.oldest = r.RegisteredAt
		}
	}
}

// RegisterContext implements DirectoryService.
func (d *Directory) RegisterContext(ctx context.Context, r Registration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := r.check(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	r.RegisteredAt = d.clock()
	d.sweep(r.RegisteredAt)
	prev, ok := d.members[r.Name]
	if !ok || r.Endpoint != prev.Endpoint || r.Role != prev.Role || !slices.Equal(r.Groups, prev.Groups) {
		defer d.notify()
	}
	if len(d.members) == 0 || r.RegisteredAt.Before(d.oldest) {
		d.oldest = r.RegisteredAt
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
	d.sweep(d.clock())
	if _, ok := d.members[name]; !ok {
		return fmt.Errorf("gma: %q not registered", name)
	}
	delete(d.members, name)
	d.notify()
	return nil
}

// LookupContext implements DirectoryService.
func (d *Directory) LookupContext(ctx context.Context, name string) (Registration, bool, error) {
	if err := ctx.Err(); err != nil {
		return Registration{}, false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sweep(d.clock())
	r, ok := d.members[name]
	return r, ok, nil
}

// ListContext implements DirectoryService.
func (d *Directory) ListContext(ctx context.Context) ([]Registration, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.list(), nil
}

// list sweeps and returns every record, sorted by name; d.mu is held.
func (d *Directory) list() []Registration {
	d.sweep(d.clock())
	return d.sorted()
}

// sorted is every record, sorted by name; d.mu is held.
func (d *Directory) sorted() []Registration {
	out := make([]Registration, 0, len(d.members))
	for _, r := range d.members {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b Registration) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// membership sweeps and returns the digest hash of the membership; d.mu is
// held. It hashes the members only after a change.
func (d *Directory) membership() uint64 {
	d.sweep(d.clock())
	if !d.summed {
		d.sum, d.summed = digest(d.sorted()), true
	}
	return d.sum
}

// spells reports whether digest is the Digest of the hash sum.
func spells(sum uint64, digest string) bool {
	var buf [16]byte
	return string(strconv.AppendUint(buf[:0], sum, 16)) == digest
}

// WatchContext implements DirectoryService. A join, a deregister, or a
// change of a member's endpoint, role or groups wakes it; a record that
// expires by TTL is seen only at the next wake-up or call.
func (d *Directory) WatchContext(ctx context.Context, digest string, wait time.Duration) ([]Registration, error) {
	if err := d.watch(ctx, digest, wait); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.list(), nil
}

// watch returns once the membership's Digest differs from digest, or once
// wait has passed.
func (d *Directory) watch(ctx context.Context, digest string, wait time.Duration) error {
	return Await(ctx, wait, func() (bool, <-chan struct{}) {
		changed := d.changes.Next()
		d.mu.Lock()
		defer d.mu.Unlock()
		return spells(d.membership(), digest), changed
	})
}

// Route is one row of the directory's HTTP interface. The pattern carries
// the method, so ServeMux answers any other method with 405.
type Route struct {
	Pattern string
	Serve   http.HandlerFunc
}

// Routes is the directory's HTTP interface. The ?site= parameter names the
// member, whatever its role. GET /gma/registrations with ?wait= (a Go
// duration) and ?digest= is WatchContext; without ?wait= it is ListContext.
// Either answer carries the membership's Digest as a strong ETag, and is a
// 304 with no body to a request whose If-None-Match names that digest.
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
		{"GET /gma/registrations", func(w http.ResponseWriter, r *http.Request) {
			q := r.URL.Query()
			if wait, ok, err := WatchWait(q); err != nil {
				http.Error(w, "bad wait", http.StatusBadRequest)
				return
			} else if ok {
				if err := d.watch(r.Context(), q.Get("digest"), wait); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
			}
			// The list is made only for an answer that carries it.
			d.mu.Lock()
			sum := d.membership()
			current := spells(sum, web.UnquoteETag(r.Header.Get(web.HeaderIfNoneMatch)))
			var regs []Registration
			if !current {
				regs = d.sorted()
			}
			d.mu.Unlock()
			w.Header().Set(web.HeaderETag, `"`+strconv.FormatUint(sum, 16)+`"`)
			if current {
				w.WriteHeader(http.StatusNotModified)
				return
			}
			httpjson.WriteJSON(w, registrations(regs))
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

// DirectoryClient talks to a remote Directory over HTTP. Every request is
// one web.Client call, on the transport web shares unless HTTPClient brings
// one. It keeps the last list the directory sent, and sends that list's
// digest with every list and watch, so an unchanged membership comes back
// as a 304 with no body and the kept list is returned again.
type DirectoryClient struct {
	// BaseURL is the directory host base, e.g. "http://127.0.0.1:9000".
	BaseURL string
	// Timeout bounds each directory request when HTTPClient is nil
	// (default DefaultClientTimeout; negative disables, leaving only the
	// caller's context to bound the request).
	Timeout time.Duration
	// HTTPClient is optional: its Transport and Timeout replace the shared
	// transport and Timeout.
	HTTPClient *http.Client

	once sync.Once
	wc   web.Client // built from the fields above by the first call

	mu     sync.Mutex
	list   []Registration // the last list the directory sent; callers only read it
	digest string         // its ETag, sent back as If-None-Match
}

// maxDirectoryBody bounds how much of a directory response the client will
// read before decoding — a misbehaving (or impersonated) directory cannot
// make a gateway buffer an unbounded body.
const maxDirectoryBody = 1 << 20

// call is c's web.Client, built once from BaseURL, Timeout and HTTPClient.
func (c *DirectoryClient) call() *web.Client {
	c.once.Do(func() {
		hc := c.HTTPClient
		if hc == nil {
			timeout := c.Timeout
			if timeout == 0 {
				timeout = DefaultClientTimeout
			} else if timeout < 0 {
				timeout = 0
			}
			hc = &http.Client{Timeout: timeout}
		}
		c.wc = web.Client{BaseURL: c.BaseURL, HTTPClient: hc, MaxBody: maxDirectoryBody}
	})
	return &c.wc
}

// RegisterContext implements DirectoryService.
func (c *DirectoryClient) RegisterContext(ctx context.Context, r Registration) error {
	body, err := httpjson.Marshal(r)
	if err != nil {
		return err
	}
	if _, _, err := c.call().Exchange(ctx, http.MethodPost, "/gma/register", body, "", nil); err != nil {
		return fmt.Errorf("gma: register: %w", err)
	}
	return nil
}

// DeregisterContext implements DirectoryService. The member name is
// query-escaped: names with spaces or '&' deregister their own key, not a
// truncated one.
func (c *DirectoryClient) DeregisterContext(ctx context.Context, name string) error {
	if _, _, err := c.call().Exchange(ctx, http.MethodDelete, "/gma/register?site="+url.QueryEscape(name), nil, "", nil); err != nil {
		return fmt.Errorf("gma: deregister: %w", err)
	}
	return nil
}

// LookupContext implements DirectoryService.
func (c *DirectoryClient) LookupContext(ctx context.Context, name string) (Registration, bool, error) {
	var r Registration
	_, _, err := c.call().Exchange(ctx, http.MethodGet, "/gma/lookup?site="+url.QueryEscape(name), nil, "", &r)
	var status *web.StatusError
	if errors.As(err, &status) && status.Code == http.StatusNotFound {
		return Registration{}, false, nil
	}
	if err == nil {
		err = r.check()
	}
	if err != nil {
		return Registration{}, false, fmt.Errorf("gma: lookup: %w", err)
	}
	return r, true, nil
}

// ListContext implements DirectoryService.
func (c *DirectoryClient) ListContext(ctx context.Context) ([]Registration, error) {
	return c.registrations(ctx, "registrations", "/gma/registrations")
}

// WatchContext implements DirectoryService as a long poll. The wait is
// held under half the client's timeout, so the directory answers before
// the request times out, and under maxWatchWait.
func (c *DirectoryClient) WatchContext(ctx context.Context, digest string, wait time.Duration) ([]Registration, error) {
	wait = min(max(wait, 0), maxWatchWait)
	if t := c.call().HTTPClient.Timeout; t > 0 {
		wait = min(wait, t/2)
	}
	return c.registrations(ctx, "watch", "/gma/registrations?digest="+url.QueryEscape(digest)+"&wait="+wait.String())
}

// registrations is one GET /gma/registrations, sent with the kept list's
// digest. A 304 to that digest returns the kept list; a 304 to anything
// else — no digest sent, or a different one named — is an error, for the
// client has no list the directory could mean.
func (c *DirectoryClient) registrations(ctx context.Context, what, path string) ([]Registration, error) {
	c.mu.Lock()
	kept, sent := c.list, c.digest
	c.mu.Unlock()
	var regs registrations
	etag, notModified, err := c.call().Exchange(ctx, http.MethodGet, path, nil, sent, &regs)
	if err != nil {
		return nil, fmt.Errorf("gma: %s: %w", what, err)
	}
	if notModified {
		if sent == "" || etag != sent {
			return nil, fmt.Errorf("gma: %s: %s answered 304 Not Modified to digest %q with %q", what, c.BaseURL, sent, etag)
		}
		return kept, nil
	}
	c.mu.Lock()
	c.list, c.digest = regs, etag
	c.mu.Unlock()
	return regs, nil
}

var _ DirectoryService = (*Directory)(nil)
var _ DirectoryService = (*DirectoryClient)(nil)
