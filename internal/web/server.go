package web

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
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

// Server is the gateway servlet: the site's route table behind a Front.
type Server struct {
	*Front
	gw *core.Gateway
	// repository of activatable drivers.
	repo map[string]DriverFactory
	// sites optionally lists remote sites for /sites (wired to the
	// gateway's GlobalRouter by the deployment).
	sites func() []string
}

// SetSiteLister wires /sites to the Global layer's view of remote sites.
func (s *Server) SetSiteLister(list func() []string) { s.sites = list }

// NewServer creates the servlet for a gateway. repo may be nil; dir, when
// non-nil, is mounted at /gma/ so this gateway also hosts the directory.
func NewServer(gw *core.Gateway, repo map[string]DriverFactory, dir http.Handler) *Server {
	s := &Server{gw: gw, repo: repo}
	s.Front = NewFront(gw.CoarsePolicy(),
		QueryRoute(gw),
		Route{Pattern: "POST /poll", Gated: true, Serve: replyTo(s.poll)},
		Route{Pattern: "GET /sources", Serve: reply(s.listSources)},
		Route{Pattern: "POST /sources", Op: security.OpManageSources, Serve: replyTo(s.addSource)},
		Route{Pattern: "DELETE /sources", Op: security.OpManageSources, Serve: reply(s.removeSource)},
		Route{Pattern: "GET /drivers", Serve: reply(s.listDrivers)},
		Route{Pattern: "POST /drivers", Op: security.OpManageDrivers, Serve: replyTo(s.activateDriver)},
		Route{Pattern: "DELETE /drivers", Op: security.OpManageDrivers, Serve: reply(s.deactivateDriver)},
		Route{Pattern: "POST /drivers/preferences", Op: security.OpManageDrivers, Serve: replyTo(s.setPreferences)},
		Route{Pattern: "GET /tree", Serve: reply(s.tree)},
		Route{Pattern: "GET /events", Op: security.OpEvents, Serve: reply(s.events)},
		Route{Pattern: "GET /subscribe", Serve: s.subscribe},
		Route{Pattern: "GET /status", Serve: reply(s.status)},
		Route{Pattern: "GET /metrics", Serve: s.metrics},
		Route{Pattern: "GET /sites", Serve: reply(s.listSites)},
		Route{Pattern: "GET /traces", Serve: reply(s.listTraces)},
		Route{Pattern: "GET /traces/{id}", Serve: reply(s.trace)},
	)
	if dir != nil {
		s.mux.Handle("/gma/", dir)
	}
	return s
}

// Gateway returns the wrapped gateway.
func (s *Server) Gateway() *core.Gateway { return s.gw }

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

// pollRequest is the body of POST /poll (Fig 9's explicit real-time poll).
type pollRequest struct {
	URL   string `json:"url"`
	Group string `json:"group"`
}

func (s *Server) poll(ctx context.Context, p security.Principal, pr *pollRequest) (any, error) {
	resp, err := s.gw.PollContext(ctx, p, pr.URL, pr.Group)
	if err != nil {
		return nil, err
	}
	return EncodeResponse(resp), nil
}

func (s *Server) listSources(*http.Request) (any, error) {
	return s.gw.Sources(), nil
}

func (s *Server) addSource(_ context.Context, _ security.Principal, cfg *core.SourceConfig) (any, error) {
	return nil, s.gw.AddSource(*cfg)
}

func (s *Server) removeSource(r *http.Request) (any, error) {
	return nil, withStatus(http.StatusNotFound, s.gw.RemoveSource(r.URL.Query().Get("url")))
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

func (s *Server) listDrivers(*http.Request) (any, error) {
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
	return out, nil
}

func (s *Server) activateDriver(_ context.Context, _ security.Principal, act *driverActivation) (any, error) {
	factory, ok := s.repo[act.Name]
	if !ok {
		return nil, withStatus(http.StatusNotFound, fmt.Errorf("driver %q not in repository", act.Name))
	}
	return nil, withStatus(http.StatusConflict, s.gw.RegisterDriver(factory()))
}

func (s *Server) deactivateDriver(r *http.Request) (any, error) {
	return nil, withStatus(http.StatusNotFound, s.gw.DeregisterDriver(r.URL.Query().Get("name")))
}

// preferenceUpdate is the body of POST /drivers/preferences.
type preferenceUpdate struct {
	URL     string   `json:"url"`
	Drivers []string `json:"drivers"`
}

func (s *Server) setPreferences(_ context.Context, _ security.Principal, pu *preferenceUpdate) (any, error) {
	for _, name := range pu.Drivers {
		if _, ok := s.gw.DriverManager().Driver(name); !ok {
			return nil, withStatus(http.StatusNotFound, fmt.Errorf("driver %q not registered", name))
		}
	}
	s.gw.DriverManager().SetPreferences(pu.URL, pu.Drivers)
	return nil, nil
}

// TreeNode is one data source in the cached tree view (Fig 9): its health
// and the cached query results under it.
type TreeNode struct {
	Source core.SourceInfo `json:"source"`
	Cached []qcache.Entry  `json:"cached,omitempty"`
}

func (s *Server) tree(*http.Request) (any, error) {
	bySource := make(map[string][]qcache.Entry)
	for _, e := range s.gw.Cache().Entries() {
		bySource[e.Source] = append(bySource[e.Source], e)
	}
	var out []TreeNode
	for _, src := range s.gw.Sources() {
		out = append(out, TreeNode{Source: src, Cached: bySource[src.URL]})
	}
	return out, nil
}

func (s *Server) events(r *http.Request) (any, error) {
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
			return nil, err
		}
		since = t
	}
	return s.gw.Events().History(filter, since), nil
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
	// Sinks lists configured push sinks, then the Event Manager's outbound
	// drivers, with delivery/retry/breaker state.
	Sinks []router.SinkStat `json:"sinks,omitempty"`
}

type poolStatsJSON struct {
	Hits, Misses, Opens, Closes, PingFailures, Evictions int64
	Idle                                                 int
}

func (s *Server) status(*http.Request) (any, error) {
	ps := s.gw.Pool().Stats()
	var adm *AdmissionStats
	if s.admit != nil {
		st := s.admit.stats()
		adm = &st
	}
	return StatusReport{
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
		Sinks:       append(s.gw.PushRouter().SinkStats(), s.gw.Events().SinkStats()...),
	}, nil
}

// listTraces serves GET /traces: stored trace summaries, newest first.
func (s *Server) listTraces(*http.Request) (any, error) {
	if out := s.gw.Tracer().Traces(); out != nil {
		return out, nil
	}
	return []trace.Summary{}, nil
}

// trace serves GET /traces/<id>: one stored trace as a span tree.
func (s *Server) trace(r *http.Request) (any, error) {
	id := r.PathValue("id")
	td, ok := s.gw.Tracer().Trace(id)
	if !ok {
		return nil, withStatus(http.StatusNotFound, fmt.Errorf("trace %q not found", id))
	}
	return td, nil
}

// metrics serves the gateway's metrics registry in the Prometheus text
// exposition format.
func (s *Server) metrics(_ context.Context, w http.ResponseWriter, _ *http.Request, _ security.Principal) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.gw.Metrics().WritePrometheus(w)
}

func (s *Server) listSites(*http.Request) (any, error) {
	sites := []string{s.gw.Name()}
	if s.sites != nil {
		sites = append(sites, s.sites()...)
	}
	return sites, nil
}
