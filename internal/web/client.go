package web

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/event"
	"gridrm/internal/httpjson"
	"gridrm/internal/security"
	"gridrm/internal/trace"
)

// Client is a GridRM client of a gateway's servlet interface. Every method
// is context-first: the HTTP request is cancelled when ctx expires, and a
// trace context carried by ctx is propagated to the gateway in the
// X-GridRM-Trace header (with the gateway's spans stitched back into the
// local trace on Query).
type Client struct {
	// BaseURL is the gateway base, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Principal identifies the client; sent as headers.
	Principal security.Principal
	// HTTPClient is optional, and only its Transport and Timeout are used:
	// a nil HTTPClient or Transport is the transport every Client shares
	// (see Dials), and a nil HTTPClient times out at 10 s. The Timeout
	// bounds each call but a subscription, headers and body together,
	// unless the caller's context ends sooner. No redirect is followed, and
	// no cookie jar is consulted.
	HTTPClient *http.Client
	// MaxBody bounds what a call buffers of an answer's body (0 is 64 MiB).
	MaxBody int64
}

// maxResponseBody bounds what Client buffers of a gateway's response, so a
// misbehaving (or impersonated) peer cannot make the caller hold an
// unbounded body. A Processor row is about 200 bytes on the wire; this is
// room for some 300,000 of them.
const maxResponseBody = 64 << 20

// defaultTimeout bounds each call of a Client that brings no HTTPClient.
const defaultTimeout = 10 * time.Second

// maxIdleConns is the shared transport's idle pool, in total and per host
// alike. A federation member talks to a few hosts (its directory, the
// republishers, the sites), and each of them many times a second; with
// net/http's 2 idle connections per host, every burst of heartbeats,
// watches and remote legs past two closed the rest and the next burst
// dialled them again.
const maxIdleConns = 100

// shared is the transport of every Client without one of its own: a clone
// of http.DefaultTransport that keeps maxIdleConns idle to any one host and
// counts what it dials.
var shared = newSharedTransport()

// dials counts the connections the shared transport has dialled.
var dials atomic.Int64

func newSharedTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns, t.MaxIdleConnsPerHost = maxIdleConns, maxIdleConns
	dial := t.DialContext
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return dial(ctx, network, addr)
	}
	return t
}

// Dials is how many connections the shared transport has dialled in this
// process; once a federation has settled it stays level while idle.
func Dials() int64 { return dials.Load() }

// transport is where every request goes, so that Clients without one of
// their own share one pool of keep-alive connections.
func (c *Client) transport() http.RoundTripper {
	if c.HTTPClient != nil && c.HTTPClient.Transport != nil {
		return c.HTTPClient.Transport
	}
	return shared
}

// withTimeout bounds ctx by the client's timeout, unless ctx already ends
// no later. When the timeout ends a call, context.Cause is errClientTimeout.
func (c *Client) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	d := defaultTimeout
	if c.HTTPClient != nil {
		d = c.HTTPClient.Timeout
	}
	if d <= 0 {
		return ctx, noCancel
	}
	deadline := time.Now().Add(d)
	if dl, ok := ctx.Deadline(); ok && !dl.After(deadline) {
		return ctx, noCancel
	}
	return context.WithDeadlineCause(ctx, deadline, errClientTimeout)
}

func noCancel() {}

// errClientTimeout is the cause of a call the client's timeout ended. Like
// net/http's client timeout it is a context.DeadlineExceeded.
var errClientTimeout error = clientTimeout{}

type clientTimeout struct{}

func (clientTimeout) Error() string { return "client timeout exceeded" }

// Is makes errors.Is(err, context.DeadlineExceeded) hold.
func (clientTimeout) Is(target error) bool { return target == context.DeadlineExceeded }

// timedOut returns err, which ended a request made under ctx, naming the
// client's timeout when that is what ended it.
func timedOut(ctx context.Context, err error) error {
	if context.Cause(ctx) == errClientTimeout && !errors.Is(err, errClientTimeout) {
		return fmt.Errorf("%w: %w", errClientTimeout, err)
	}
	return err
}

// identityEncoding is every request's Accept-Encoding value. A transport
// only reads a request's headers, so the slice is never written.
var identityEncoding = []string{"identity"}

// StatusError is an answer whose status a call does not take: neither a
// 2xx nor a 304.
type StatusError struct {
	Method, Path string
	// Code is the answer's status code, Status its status line.
	Code   int
	Status string
	// Text is the start of the answer's body.
	Text string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("web: %s %s: %s: %s", e.Method, e.Path, e.Status, e.Text)
}

// send builds a request and hands it straight to the transport; every
// request a Client makes is built here. It carries only the headers the
// gateway reads, by their canonical keys in the request's one map: the
// principal, the trace carried by ctx, Content-Type with a body,
// If-None-Match when ifNoneMatch is set, and Accept-Encoding: identity,
// because the gateway never compresses. No User-Agent is sent. No redirect
// is followed: the response returned is a 2xx or a 304, and any other status
// is a *StatusError.
func (c *Client) send(ctx context.Context, method, path string, body []byte, ifNoneMatch string) (*http.Response, error) {
	req, err := c.newRequest(ctx, method, path)
	if err != nil {
		return nil, err
	}
	type field struct{ key, value string }
	var fields [5]field
	n := 0
	add := func(key, value string) {
		if value != "" {
			fields[n] = field{key, value}
			n++
		}
	}
	add(HeaderUser, c.Principal.Name)
	add(HeaderRoles, strings.Join(c.Principal.Roles, ","))
	add(HeaderSite, c.Principal.Site)
	if car, ok := trace.CarrierFromContext(ctx); ok {
		add(trace.HeaderName, car.Header())
	}
	if ifNoneMatch != "" {
		add(HeaderIfNoneMatch, `"`+ifNoneMatch+`"`)
	}
	h := req.Header // empty, and never given more keys than one map group holds
	h["Accept-Encoding"] = identityEncoding
	h["User-Agent"] = nil // present but empty: the transport writes none
	if n > 0 {
		slab := make([]string, n)
		for i, f := range fields[:n] {
			slab[i] = f.value
			h[f.key] = slab[i : i+1 : i+1]
		}
	}
	if body != nil {
		// Not a pooled buffer: the transport may still be reading it after
		// RoundTrip has returned. A *bytes.Reader behind io.NopCloser is a
		// body the transport knows is in memory, so it sends it with the
		// headers in one write; GetBody lets it resend the request when a
		// reused connection had closed before any of it was written.
		h["Content-Type"] = httpjson.ContentType
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		req.ContentLength = int64(len(body))
	}
	resp, err := c.transport().RoundTrip(req)
	if err != nil {
		return nil, fmt.Errorf("web: %s %s: %w", method, c.BaseURL+path, timedOut(ctx, err))
	}
	if resp.StatusCode >= 300 && resp.StatusCode != http.StatusNotModified {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, &StatusError{Method: method, Path: path, Code: resp.StatusCode, Status: resp.Status, Text: strings.TrimSpace(string(msg))}
	}
	return resp, nil
}

// newRequest makes the request for path under BaseURL. A plain base —
// http or https, a host, perhaps a path prefix — is split where it stands
// and never parsed, and nothing is kept of it: a Client made for one hop
// pays for no parse either. Any other base goes through url.Parse.
func (c *Client) newRequest(ctx context.Context, method, path string) (*http.Request, error) {
	scheme, rest, ok := strings.Cut(c.BaseURL, "://")
	host, prefix := rest, ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		host, prefix = rest[:i], rest[i:]
	}
	p, query, _ := strings.Cut(path, "?")
	if !ok || scheme != "http" && scheme != "https" || host == "" || strings.HasSuffix(host, ":") ||
		strings.ContainsAny(host, "@?#%") || strings.ContainsAny(prefix, "?#%") || strings.ContainsAny(p, "#%") ||
		strings.IndexFunc(c.BaseURL, unsafeInURL) >= 0 || strings.IndexFunc(path, unsafeInURL) >= 0 {
		return http.NewRequestWithContext(ctx, method, c.BaseURL+path, nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, "", nil)
	if err != nil {
		return nil, err
	}
	*req.URL = url.URL{Scheme: scheme, Host: host, Path: prefix + p, RawQuery: query}
	req.Host = host
	return req, nil
}

// unsafeInURL reports a rune url.Parse refuses or escapes: newRequest leaves
// a base or path that holds one to it.
func unsafeInURL(r rune) bool { return r <= ' ' || r >= 0x7f }

func (c *Client) doContext(ctx context.Context, method, path string, body any, out any) error {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = httpjson.Marshal(body); err != nil {
			return err
		}
	}
	_, _, err := c.Exchange(ctx, method, path, buf, "", out)
	return err
}

// Exchange is one call, the path every call of a Client but a subscription
// takes: body (nil for none) sent as JSON, with ifNoneMatch as a strong
// If-None-Match when it is set, and a 2xx answer of at most MaxBody bytes
// decoded into out. It returns the answer's strong ETag, and notModified
// for a 304, which has no body to decode.
func (c *Client) Exchange(ctx context.Context, method, path string, body []byte, ifNoneMatch string, out any) (etag string, notModified bool, err error) {
	h, notModified, err := c.exchange(ctx, method, path, body, ifNoneMatch, out)
	if err != nil {
		return "", false, err
	}
	return UnquoteETag(h.Get(HeaderETag)), notModified, nil
}

// exchange is Exchange returning the answer's headers.
func (c *Client) exchange(ctx context.Context, method, path string, body []byte, ifNoneMatch string, out any) (http.Header, bool, error) {
	ctx, cancel := c.withTimeout(ctx)
	defer cancel()
	resp, err := c.send(ctx, method, path, body, ifNoneMatch)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		return resp.Header, true, nil
	}
	if out != nil {
		limit := c.MaxBody
		if limit <= 0 {
			limit = maxResponseBody
		}
		if err := httpjson.DecodeBody(resp.Body, resp.ContentLength, limit, out); err != nil {
			return nil, false, fmt.Errorf("web: %s response: %w", path, timedOut(ctx, err))
		}
	}
	return resp.Header, false, nil
}

// Query executes a SQL query at the gateway. When ctx carries a trace, the
// spans the gateway recorded for this query are stitched into it. A
// req.Validator is sent as If-None-Match, and a 304 to it is the response
// {NotModified, Validator, Version}; an answer's ETag is its Validator and
// its X-Gridrm-Version header its Version.
func (c *Client) Query(ctx context.Context, req core.QueryOptions) (*core.Response, error) {
	body, err := FromCoreRequest(req).AppendJSON(nil)
	if err != nil {
		return nil, err
	}
	var wr WireResponse
	h, notModified, err := c.exchange(ctx, http.MethodPost, "/query", body, req.Validator, &wr)
	if err != nil {
		return nil, err
	}
	etag, version := UnquoteETag(h.Get(HeaderETag)), h.Get(HeaderVersion)
	if notModified {
		if req.Validator == "" {
			return nil, errors.New("web: POST /query: 304 Not Modified to a query that sent no validator")
		}
		return &core.Response{NotModified: true, Validator: etag, Version: version}, nil
	}
	resp, err := DecodeResponse(wr)
	if err != nil {
		return nil, err
	}
	resp.Validator, resp.Version = etag, version
	trace.AttachRemote(ctx, resp.Trace)
	return resp, nil
}

// Poll forces a real-time refresh of one source/group (Fig 9's poll icon).
func (c *Client) Poll(ctx context.Context, sourceURL, group string) (*core.Response, error) {
	var wr WireResponse
	if err := c.doContext(ctx, http.MethodPost, "/poll", pollRequest{URL: sourceURL, Group: group}, &wr); err != nil {
		return nil, err
	}
	return DecodeResponse(wr)
}

// Sources lists the gateway's registered data sources.
func (c *Client) Sources(ctx context.Context) ([]core.SourceInfo, error) {
	var out []core.SourceInfo
	err := c.doContext(ctx, http.MethodGet, "/sources", nil, &out)
	return out, err
}

// AddSource registers a data source (Fig 9's add icon).
func (c *Client) AddSource(ctx context.Context, cfg core.SourceConfig) error {
	return c.doContext(ctx, http.MethodPost, "/sources", cfg, nil)
}

// RemoveSource unregisters a data source.
func (c *Client) RemoveSource(ctx context.Context, sourceURL string) error {
	return c.doContext(ctx, http.MethodDelete, "/sources?url="+url.QueryEscape(sourceURL), nil, nil)
}

// Drivers lists active and activatable drivers (Fig 8's panel).
func (c *Client) Drivers(ctx context.Context) ([]DriverListing, error) {
	var out []DriverListing
	err := c.doContext(ctx, http.MethodGet, "/drivers", nil, &out)
	return out, err
}

// ActivateDriver registers a repository driver at runtime.
func (c *Client) ActivateDriver(ctx context.Context, name string) error {
	return c.doContext(ctx, http.MethodPost, "/drivers", driverActivation{Name: name}, nil)
}

// DeactivateDriver removes a driver at runtime.
func (c *Client) DeactivateDriver(ctx context.Context, name string) error {
	return c.doContext(ctx, http.MethodDelete, "/drivers?name="+url.QueryEscape(name), nil, nil)
}

// SetPreferences installs a prioritised driver list for a source.
func (c *Client) SetPreferences(ctx context.Context, sourceURL string, drivers []string) error {
	return c.doContext(ctx, http.MethodPost, "/drivers/preferences",
		preferenceUpdate{URL: sourceURL, Drivers: drivers}, nil)
}

// Tree fetches the cached tree view (Fig 9).
func (c *Client) Tree(ctx context.Context) ([]TreeNode, error) {
	var out []TreeNode
	err := c.doContext(ctx, http.MethodGet, "/tree", nil, &out)
	return out, err
}

// Events fetches event history matching the filter at or after since.
func (c *Client) Events(ctx context.Context, filter event.Filter, since time.Time) ([]event.Event, error) {
	q := url.Values{}
	if filter.Source != "" {
		q.Set("source", filter.Source)
	}
	if filter.Host != "" {
		q.Set("host", filter.Host)
	}
	if filter.Name != "" {
		q.Set("name", filter.Name)
	}
	if filter.Severity != "" {
		q.Set("severity", filter.Severity)
	}
	if !since.IsZero() {
		q.Set("since", since.Format(time.RFC3339Nano))
	}
	path := "/events"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var out []event.Event
	err := c.doContext(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Status fetches the gateway's counters.
func (c *Client) Status(ctx context.Context) (*StatusReport, error) {
	var out StatusReport
	if err := c.doContext(ctx, http.MethodGet, "/status", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Sites lists the sites reachable from this gateway (itself first).
func (c *Client) Sites(ctx context.Context) ([]string, error) {
	var out []string
	err := c.doContext(ctx, http.MethodGet, "/sites", nil, &out)
	return out, err
}

// Traces lists the gateway's stored query traces, newest first.
func (c *Client) Traces(ctx context.Context) ([]trace.Summary, error) {
	var out []trace.Summary
	err := c.doContext(ctx, http.MethodGet, "/traces", nil, &out)
	return out, err
}

// Trace fetches one stored query trace as a span tree.
func (c *Client) Trace(ctx context.Context, id string) (*trace.TraceData, error) {
	var out trace.TraceData
	if err := c.doContext(ctx, http.MethodGet, "/traces/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RemoteQueryContext executes a core request against a remote gateway
// endpoint, bounded by ctx and forwarding the principal; it satisfies
// gma.ExecContext so all-sites fan-outs can abandon a hung site at the
// deadline. A trace carried by ctx crosses the hop in the X-GridRM-Trace
// header and the remote gateway's spans are stitched back into it.
func RemoteQueryContext(ctx context.Context, endpoint string, req core.QueryOptions) (*core.Response, error) {
	c := &Client{BaseURL: endpoint, Principal: req.Principal}
	return c.Query(ctx, req)
}

// RemoteVersionContext long-polls a republisher endpoint's version, GET
// /repub/version: it returns the version token once it differs from token,
// or once wait has passed, and at once for an empty token. It is the watch
// gma.Router keeps beside RemoteQueryContext; the answer has no body, only
// the token as its ETag, and a 304 when the token is unchanged.
func RemoteVersionContext(ctx context.Context, endpoint, token string, wait time.Duration) (string, error) {
	c := Client{BaseURL: endpoint}
	etag, _, err := c.Exchange(ctx, http.MethodGet, "/repub/version?wait="+wait.String(), nil, token, nil)
	if err == nil && etag == "" {
		err = fmt.Errorf("web: GET %s/repub/version: an answer without a version", endpoint)
	}
	return etag, err
}
