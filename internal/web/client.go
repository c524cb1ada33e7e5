package web

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
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
	// HTTPClient is optional; nil uses a 10s-timeout client.
	HTTPClient *http.Client
}

// maxResponseBody bounds what Client buffers of a gateway's response, so a
// misbehaving (or impersonated) peer cannot make the caller hold an
// unbounded body. A Processor row is about 200 bytes on the wire; this is
// room for some 300,000 of them.
const maxResponseBody = 64 << 20

// defaultHTTPClient serves every Client that brings none of its own, so
// their requests share one set of keep-alive connections.
var defaultHTTPClient = &http.Client{Timeout: 10 * time.Second}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

func (c *Client) doContext(ctx context.Context, method, path string, body any, out any) error {
	var rdr io.Reader
	if body != nil {
		// Not a pooled buffer: the transport may still be reading the body
		// after Do has returned.
		buf, err := httpjson.Marshal(body)
		if err != nil {
			return err
		}
		rdr = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rdr)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Principal.Name != "" {
		req.Header.Set(HeaderUser, c.Principal.Name)
	}
	if len(c.Principal.Roles) > 0 {
		req.Header.Set(HeaderRoles, strings.Join(c.Principal.Roles, ","))
	}
	if c.Principal.Site != "" {
		req.Header.Set(HeaderSite, c.Principal.Site)
	}
	if car, ok := trace.CarrierFromContext(ctx); ok {
		req.Header.Set(trace.HeaderName, car.Header())
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("web: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("web: %s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if out != nil {
		if err := httpjson.DecodeBody(resp.Body, resp.ContentLength, maxResponseBody, out); err != nil {
			return fmt.Errorf("web: %s response: %w", path, err)
		}
	}
	return nil
}

// Query executes a SQL query at the gateway. When ctx carries a trace, the
// spans the gateway recorded for this query are stitched into it.
func (c *Client) Query(ctx context.Context, req core.QueryOptions) (*core.Response, error) {
	var wr WireResponse
	if err := c.doContext(ctx, http.MethodPost, "/query", FromCoreRequest(req), &wr); err != nil {
		return nil, err
	}
	resp, err := DecodeResponse(wr)
	if err != nil {
		return nil, err
	}
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

// WatchMetric asks the gateway to publish group.field as events on every
// harvest.
func (c *Client) WatchMetric(ctx context.Context, group, field string) error {
	return c.doContext(ctx, http.MethodPost, "/watches", watchRequest{Group: group, Field: field}, nil)
}

// WatchedMetrics lists active metric watches.
func (c *Client) WatchedMetrics(ctx context.Context) ([]string, error) {
	var out []string
	err := c.doContext(ctx, http.MethodGet, "/watches", nil, &out)
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
