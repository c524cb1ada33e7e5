// Package web implements the GridRM gateway's servlet interface: the HTTP
// face of the Abstract Client Interface Layer. The paper's gateways were
// Java servlets with a JSP management interface (Figs 6–9); here the same
// operations — issuing SQL queries, managing data sources and drivers,
// browsing the cached tree view, polling resources in real time, and
// reading the event log — are JSON endpoints, and gateways interact
// gateway-to-gateway over the same interface for the Global layer.
//
// One substitution is documented in DESIGN.md: the paper's clients upload
// driver JARs for runtime registration. Go cannot load code at runtime
// from a request body, so the server is configured with a repository of
// available driver constructors and clients activate them by name; the
// lifecycle (register/deregister at runtime, persisted activation, cached
// selection) is otherwise identical.
package web

import (
	"errors"
	"fmt"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/resultset"
	"gridrm/internal/trace"
)

// WireResult is a ResultSet on the wire. It marshals and unmarshals itself
// (codec.go): values are JSON-natural (numbers, strings, booleans, null) and
// the column kind disambiguates int64 vs float64 and identifies RFC 3339
// time strings on decode.
type WireResult struct {
	ResultSet *resultset.ResultSet
}

// WireRequest is a query request on the wire.
type WireRequest struct {
	SQL     string   `json:"sql"`
	Site    string   `json:"site,omitempty"`
	Sources []string `json:"sources,omitempty"`
	Region  []string `json:"region,omitempty"`
	Mode    string   `json:"mode,omitempty"`
	Since   string   `json:"since,omitempty"`
	Until   string   `json:"until,omitempty"`
	// TimeoutNs bounds the request on the gateway side, overriding its
	// default query timeout (0 keeps the default).
	TimeoutNs int64 `json:"timeoutNs,omitempty"`
	// Trace selects tracing for this query: "on" forces a trace, "off"
	// suppresses one, empty follows the gateway's sample rate.
	Trace string `json:"trace,omitempty"`
}

// WireResponse is a query response on the wire.
type WireResponse struct {
	Site      string              `json:"site"`
	SQL       string              `json:"sql"`
	Mode      string              `json:"mode"`
	ElapsedNs int64               `json:"elapsedNs"`
	Sources   []core.SourceStatus `json:"sources,omitempty"`
	Result    WireResult          `json:"result"`
	// TraceID identifies the query's trace when it was sampled.
	TraceID string `json:"traceId,omitempty"`
	// Trace carries the serving gateway's finished spans when it served a
	// leg of a propagated remote trace, for stitching by the caller.
	Trace []trace.SpanData `json:"trace,omitempty"`
}

// ParseMode converts the wire mode string; empty means cached.
func ParseMode(s string) (core.Mode, error) {
	switch s {
	case "", "cached":
		return core.ModeCached, nil
	case "real-time", "realtime":
		return core.ModeRealTime, nil
	case "historical", "history":
		return core.ModeHistorical, nil
	}
	return 0, fmt.Errorf("web: unknown mode %q", s)
}

// EncodeResponse converts a core.Response to its wire form.
func EncodeResponse(resp *core.Response) WireResponse {
	return WireResponse{
		Site:      resp.Site,
		SQL:       resp.SQL,
		Mode:      resp.Mode.String(),
		ElapsedNs: int64(resp.Elapsed),
		Sources:   resp.Sources,
		Result:    WireResult{ResultSet: resp.ResultSet},
		TraceID:   resp.TraceID,
		Trace:     resp.Trace,
	}
}

// DecodeResponse reconstructs a core.Response from its wire form.
func DecodeResponse(wr WireResponse) (*core.Response, error) {
	mode, err := ParseMode(wr.Mode)
	if err != nil {
		return nil, err
	}
	if wr.Result.ResultSet == nil {
		return nil, errors.New("web: response carries no result")
	}
	return &core.Response{
		Site:      wr.Site,
		SQL:       wr.SQL,
		Mode:      mode,
		Elapsed:   time.Duration(wr.ElapsedNs),
		Sources:   wr.Sources,
		ResultSet: wr.Result.ResultSet,
		TraceID:   wr.TraceID,
		Trace:     wr.Trace,
	}, nil
}

// ToCoreRequest converts a wire request (mode/window strings parsed).
func (wr WireRequest) ToCoreRequest() (core.QueryOptions, error) {
	mode, err := ParseMode(wr.Mode)
	if err != nil {
		return core.QueryOptions{}, err
	}
	req := core.QueryOptions{SQL: wr.SQL, Site: wr.Site, Sources: wr.Sources, Region: wr.Region, Mode: mode}
	if wr.Since != "" {
		t, err := time.Parse(time.RFC3339Nano, wr.Since)
		if err != nil {
			return core.QueryOptions{}, fmt.Errorf("web: bad since: %w", err)
		}
		req.Since = t
	}
	if wr.Until != "" {
		t, err := time.Parse(time.RFC3339Nano, wr.Until)
		if err != nil {
			return core.QueryOptions{}, fmt.Errorf("web: bad until: %w", err)
		}
		req.Until = t
	}
	if wr.TimeoutNs > 0 {
		req.Timeout = time.Duration(wr.TimeoutNs)
	}
	switch wr.Trace {
	case "":
	case "on":
		req.Trace = trace.DecideOn
	case "off":
		req.Trace = trace.DecideOff
	default:
		return core.QueryOptions{}, fmt.Errorf("web: bad trace %q (want on, off or empty)", wr.Trace)
	}
	return req, nil
}

// FromCoreRequest converts a core request to wire form.
func FromCoreRequest(req core.QueryOptions) WireRequest {
	wr := WireRequest{SQL: req.SQL, Site: req.Site, Sources: req.Sources, Region: req.Region, Mode: req.Mode.String()}
	if !req.Since.IsZero() {
		wr.Since = req.Since.Format(time.RFC3339Nano)
	}
	if !req.Until.IsZero() {
		wr.Until = req.Until.Format(time.RFC3339Nano)
	}
	if req.Timeout > 0 {
		wr.TimeoutNs = int64(req.Timeout)
	}
	switch req.Trace {
	case trace.DecideOn:
		wr.Trace = "on"
	case trace.DecideOff:
		wr.Trace = "off"
	}
	return wr
}
