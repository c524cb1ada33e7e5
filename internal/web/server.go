package web

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/driver"
	"gridrm/internal/event"
	"gridrm/internal/health"
	"gridrm/internal/metrics"
	"gridrm/internal/qcache"
	"gridrm/internal/router"
	"gridrm/internal/schema"
	"gridrm/internal/security"
	"gridrm/internal/trace"
)

// DriverFactory constructs a driver and its GLUE schema; the server's
// driver repository maps activation names to factories (the JAR-upload
// substitution, see the package comment).
type DriverFactory func() (driver.Driver, *schema.DriverSchema)

// Server is the gateway servlet.
type Server struct {
	gw *core.Gateway
	// repository of activatable drivers.
	repo map[string]DriverFactory
	// optional GMA directory handler mounted at /gma/.
	dir http.Handler
	// sites optionally lists remote sites for /sites (wired to the
	// gateway's GlobalRouter by the deployment).
	sites func() []string
	// admit is the optional load-shedding gate in front of /query and
	// /poll (see SetAdmissionLimits).
	admit *admission
	mux   *http.ServeMux
}

// SetSiteLister wires /sites to the Global layer's view of remote sites.
func (s *Server) SetSiteLister(list func() []string) { s.sites = list }

// NewServer creates the servlet for a gateway. repo may be nil; dir, when
// non-nil, is mounted at /gma/ so this gateway also hosts the directory.
func NewServer(gw *core.Gateway, repo map[string]DriverFactory, dir http.Handler) *Server {
	s := &Server{gw: gw, repo: repo, dir: dir, mux: http.NewServeMux()}
	s.routes()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Gateway returns the wrapped gateway.
func (s *Server) Gateway() *core.Gateway { return s.gw }

// Principal headers.
const (
	HeaderUser  = "X-GridRM-User"
	HeaderRoles = "X-GridRM-Roles"
	HeaderSite  = "X-GridRM-Site"
)

func principalFrom(r *http.Request) security.Principal {
	p := security.Principal{
		Name: r.Header.Get(HeaderUser),
		Site: r.Header.Get(HeaderSite),
	}
	if p.Name == "" {
		p.Name = "anonymous"
	}
	if roles := r.Header.Get(HeaderRoles); roles != "" {
		for _, role := range strings.Split(roles, ",") {
			role = strings.TrimSpace(role)
			if role != "" {
				p.Roles = append(p.Roles, role)
			}
		}
	}
	return p
}

func (s *Server) routes() {
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/poll", s.handlePoll)
	s.mux.HandleFunc("/sources", s.handleSources)
	s.mux.HandleFunc("/drivers", s.handleDrivers)
	s.mux.HandleFunc("/drivers/preferences", s.handlePreferences)
	s.mux.HandleFunc("/tree", s.handleTree)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/subscribe", s.handleSubscribe)
	s.mux.HandleFunc("/watches", s.handleWatches)
	s.mux.HandleFunc("/status", s.handleStatus)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/sites", s.handleSites)
	s.mux.HandleFunc("/traces", s.handleTraces)
	s.mux.HandleFunc("/traces/", s.handleTrace)
	if s.dir != nil {
		s.mux.Handle("/gma/", s.dir)
	}
}

// EnablePprof mounts net/http/pprof's handlers at /debug/pprof/ on the
// servlet mux. Off by default; gated behind the gateway's -pprof flag
// because profiles expose internals and profiling costs CPU.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
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

func httpError(w http.ResponseWriter, err error) {
	var pe *core.PermissionError
	switch {
	case errors.As(err, &pe):
		http.Error(w, err.Error(), http.StatusForbidden)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	release, ok := s.admitRequest(w, r)
	if !ok {
		return
	}
	defer release()
	var wr WireRequest
	if !ReadJSON(w, r, &wr) {
		return
	}
	req, err := wr.ToCoreRequest()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req.Principal = principalFrom(r)
	// The client's connection context bounds the query: a caller that
	// gives up (or a parent gateway whose deadline expires) cancels the
	// fan-out here too. A propagated trace context continues here.
	resp, err := s.gw.QueryContext(traceContext(r), req)
	if err != nil {
		httpError(w, err)
		return
	}
	WriteJSON(w, EncodeResponse(resp))
}

// pollRequest is the body of POST /poll (Fig 9's explicit real-time poll).
type pollRequest struct {
	URL   string `json:"url"`
	Group string `json:"group"`
}

func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	release, ok := s.admitRequest(w, r)
	if !ok {
		return
	}
	defer release()
	var pr pollRequest
	if !ReadJSON(w, r, &pr) {
		return
	}
	resp, err := s.gw.PollContext(traceContext(r), principalFrom(r), pr.URL, pr.Group)
	if err != nil {
		httpError(w, err)
		return
	}
	WriteJSON(w, EncodeResponse(resp))
}

func (s *Server) manageAllowed(r *http.Request, op security.Operation) bool {
	return s.gw.CoarsePolicy().Check(principalFrom(r), op) == security.Allow
}

func (s *Server) handleSources(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		WriteJSON(w, s.gw.Sources())
	case http.MethodPost:
		if !s.manageAllowed(r, security.OpManageSources) {
			http.Error(w, "permission denied", http.StatusForbidden)
			return
		}
		var cfg core.SourceConfig
		if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.gw.AddSource(cfg); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodDelete:
		if !s.manageAllowed(r, security.OpManageSources) {
			http.Error(w, "permission denied", http.StatusForbidden)
			return
		}
		if err := s.gw.RemoveSource(r.URL.Query().Get("url")); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// driverActivation is the body of POST /drivers: activate a driver from
// the server's repository (Fig 8's registration panel).
type driverActivation struct {
	Name string `json:"name"`
}

// DriverListing is one row of GET /drivers.
type DriverListing struct {
	core.DriverInfo
	// Active reports whether the driver is currently registered.
	Active bool `json:"active"`
}

func (s *Server) handleDrivers(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		active := s.gw.Drivers()
		listed := make(map[string]bool, len(active))
		var out []DriverListing
		for _, d := range active {
			out = append(out, DriverListing{DriverInfo: d, Active: true})
			listed[d.Name] = true
		}
		for name := range s.repo {
			if !listed[name] {
				out = append(out, DriverListing{DriverInfo: core.DriverInfo{Name: name}})
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		WriteJSON(w, out)
	case http.MethodPost:
		if !s.manageAllowed(r, security.OpManageDrivers) {
			http.Error(w, "permission denied", http.StatusForbidden)
			return
		}
		var act driverActivation
		if err := json.NewDecoder(r.Body).Decode(&act); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		factory, ok := s.repo[act.Name]
		if !ok {
			http.Error(w, fmt.Sprintf("driver %q not in repository", act.Name), http.StatusNotFound)
			return
		}
		d, ds := factory()
		if err := s.gw.RegisterDriver(d, ds); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodDelete:
		if !s.manageAllowed(r, security.OpManageDrivers) {
			http.Error(w, "permission denied", http.StatusForbidden)
			return
		}
		if err := s.gw.DeregisterDriver(r.URL.Query().Get("name")); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// preferenceUpdate is the body of POST /drivers/preferences.
type preferenceUpdate struct {
	URL     string   `json:"url"`
	Drivers []string `json:"drivers"`
}

func (s *Server) handlePreferences(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !s.manageAllowed(r, security.OpManageDrivers) {
		http.Error(w, "permission denied", http.StatusForbidden)
		return
	}
	var pu preferenceUpdate
	if err := json.NewDecoder(r.Body).Decode(&pu); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	for _, name := range pu.Drivers {
		if _, ok := s.gw.DriverManager().Driver(name); !ok {
			http.Error(w, fmt.Sprintf("driver %q not registered", name), http.StatusNotFound)
			return
		}
	}
	s.gw.DriverManager().SetPreferences(pu.URL, pu.Drivers)
	w.WriteHeader(http.StatusNoContent)
}

// TreeNode is one data source in the cached tree view (Fig 9): its health
// and the cached query results under it.
type TreeNode struct {
	Source core.SourceInfo `json:"source"`
	Cached []qcache.Entry  `json:"cached,omitempty"`
}

func (s *Server) handleTree(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	entries := s.gw.Cache().Entries()
	bySource := make(map[string][]qcache.Entry)
	for _, e := range entries {
		bySource[e.Source] = append(bySource[e.Source], e)
	}
	var out []TreeNode
	for _, src := range s.gw.Sources() {
		out = append(out, TreeNode{Source: src, Cached: bySource[src.URL]})
	}
	WriteJSON(w, out)
}

// watchRequest is the body of POST /watches: publish a GLUE metric as
// events on every harvest (the Fig 3 notification path).
type watchRequest struct {
	Group string `json:"group"`
	Field string `json:"field"`
}

func (s *Server) handleWatches(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		WriteJSON(w, s.gw.WatchedMetrics())
	case http.MethodPost:
		if !s.manageAllowed(r, security.OpManageSources) {
			http.Error(w, "permission denied", http.StatusForbidden)
			return
		}
		var wr watchRequest
		if err := json.NewDecoder(r.Body).Decode(&wr); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.gw.WatchMetric(wr.Group, wr.Field); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.gw.CoarsePolicy().Check(principalFrom(r), security.OpEvents) != security.Allow {
		http.Error(w, "permission denied", http.StatusForbidden)
		return
	}
	q := r.URL.Query()
	filter := event.Filter{
		Source:   q.Get("source"),
		Host:     q.Get("host"),
		Name:     q.Get("name"),
		Severity: q.Get("severity"),
	}
	var since time.Time
	if v := q.Get("since"); v != "" {
		t, err := time.Parse(time.RFC3339Nano, v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		since = t
	}
	evs := s.gw.Events().History(filter, since)
	WriteJSON(w, evs)
}

// StatusReport is the body of GET /status.
type StatusReport struct {
	Site    string         `json:"site"`
	Gateway core.Stats     `json:"gateway"`
	Drivers driver.Stats   `json:"drivers"`
	Pool    poolStatsJSON  `json:"pool"`
	Cache   qcache.Stats   `json:"cache"`
	Events  event.Stats    `json:"events"`
	Coarse  security.Stats `json:"coarse"`
	Fine    security.Stats `json:"fine"`
	// Stages summarises the per-stage query latency histogram (count and
	// total seconds per stage); the full distribution is on GET /metrics.
	Stages []metrics.HistogramSnapshot `json:"stages,omitempty"`
	// Health is the prober's per-source state (empty until sources have
	// been probed).
	Health []health.SourceHealth `json:"health,omitempty"`
	// Probes summarises prober activity.
	Probes health.Stats `json:"probes"`
	// Admission reports the load-shedding gate, when one is installed.
	Admission *AdmissionStats `json:"admission,omitempty"`
	// Traces summarises tracer activity (traces stored, slow queries,
	// dropped spans).
	Traces trace.Stats `json:"traces"`
	// Slow is the slow-query log, newest first.
	Slow []trace.SlowQuery `json:"slow,omitempty"`
	// History reports history retention and, when a history dir is
	// configured, WAL/checkpoint durability state.
	History core.HistoryStatus `json:"history"`
	// Push reports the continuous-query router: rows published, enqueued,
	// dropped, evictions, and sink delivery counters.
	Push router.Stats `json:"push"`
	// Subscribers lists live continuous-query subscribers with per-consumer
	// drop accounting.
	Subscribers []router.SubscriberStat `json:"subscribers,omitempty"`
	// Sinks lists configured push sinks with delivery/retry/breaker state.
	Sinks []router.SinkStat `json:"sinks,omitempty"`
}

type poolStatsJSON struct {
	Hits, Misses, Opens, Closes, PingFailures, Evictions int64
	Idle                                                 int
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	ps := s.gw.Pool().Stats()
	var adm *AdmissionStats
	if s.admit != nil {
		st := s.admit.stats()
		adm = &st
	}
	WriteJSON(w, StatusReport{
		Site:    s.gw.Name(),
		Gateway: s.gw.Stats(),
		Drivers: s.gw.DriverManager().Stats(),
		Pool: poolStatsJSON{Hits: ps.Hits, Misses: ps.Misses, Opens: ps.Opens,
			Closes: ps.Closes, PingFailures: ps.PingFailures, Evictions: ps.Evictions,
			Idle: s.gw.Pool().IdleCount()},
		Cache:       s.gw.Cache().Stats(),
		Events:      s.gw.Events().Stats(),
		Coarse:      s.gw.CoarsePolicy().Stats(),
		Fine:        s.gw.FinePolicy().Stats(),
		Stages:      s.gw.QueryStageLatencies(),
		Health:      s.gw.Prober().Snapshot(),
		Probes:      s.gw.Prober().Stats(),
		Admission:   adm,
		Traces:      s.gw.Tracer().Stats(),
		Slow:        s.gw.Tracer().SlowQueries(),
		History:     s.gw.HistoryStatus(),
		Push:        s.gw.PushRouter().Stats(),
		Subscribers: s.gw.PushRouter().Subscribers(),
		Sinks:       s.gw.PushRouter().SinkStats(),
	})
}

// handleTraces serves GET /traces: stored trace summaries, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	out := s.gw.Tracer().Traces()
	if out == nil {
		out = []trace.Summary{}
	}
	WriteJSON(w, out)
}

// handleTrace serves GET /traces/<id>: one stored trace as a span tree.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/traces/")
	td, ok := s.gw.Tracer().Trace(id)
	if !ok {
		http.Error(w, fmt.Sprintf("trace %q not found", id), http.StatusNotFound)
		return
	}
	WriteJSON(w, td)
}

// handleMetrics serves the gateway's metrics registry in the Prometheus
// text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.gw.Metrics().WritePrometheus(w)
}

func (s *Server) handleSites(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	sites := []string{s.gw.Name()}
	if s.sites != nil {
		sites = append(sites, s.sites()...)
	}
	WriteJSON(w, sites)
}
