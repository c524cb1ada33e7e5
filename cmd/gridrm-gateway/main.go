// Command gridrm-gateway runs a GridRM gateway: the local layer (drivers,
// connection pool, query cache, historical store, event manager, security)
// behind the HTTP servlet interface, optionally joined to a GMA directory
// for the Global layer.
//
//	gridrm-gateway -manifest /tmp/siteA.json -listen 127.0.0.1:8080 \
//	    -host-directory
//	gridrm-gateway -manifest /tmp/siteB.json -listen 127.0.0.1:8081 \
//	    -directory http://127.0.0.1:8080 -directory http://127.0.0.1:8090
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gridrm/internal/breaker"
	"gridrm/internal/core"
	"gridrm/internal/event"
	"gridrm/internal/glue"
	"gridrm/internal/gma"
	"gridrm/internal/repub"
	"gridrm/internal/router"
	"gridrm/internal/sitekit"
	"gridrm/internal/trace"
	"gridrm/internal/tsdb"
	"gridrm/internal/web"
)

// drainTimeout bounds the graceful shutdown of either role on SIGINT or
// SIGTERM: deregistration, the HTTP server's in-flight requests and the
// gateway's own drain together.
const drainTimeout = 10 * time.Second

// multiFlag collects a repeatable string flag (-directory may be given once
// per replica).
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty value")
	}
	*m = append(*m, v)
	return nil
}

func main() {
	var directories multiFlag
	flag.Var(&directories, "directory",
		"GMA directory base URL to register with (repeat for replicas)")
	var sinkHTTP multiFlag
	flag.Var(&sinkHTTP, "sink-http",
		"URL to POST pushed metric batches to (repeatable; each gets its own queue and breaker)")
	var (
		name     = flag.String("name", "", "gateway site name (default: manifest's site)")
		listen   = flag.String("listen", "127.0.0.1:8080", "servlet listen address")
		manifest = flag.String("manifest", "", "agent manifest file from gridrm-agents")
		dynamic  = flag.Bool("dynamic", false, "omit driver preferences; locate drivers dynamically")
		hostDir  = flag.Bool("host-directory", false, "also host the GMA directory at /gma/")
		refresh  = flag.Duration("refresh", 30*time.Second, "GMA registration refresh interval")

		role         = flag.String("role", "site", "directory role: site (serve a manifest's agents) or republisher (mirror a shard of sites and answer region queries)")
		repubRefresh = flag.Duration("repub-refresh", 2*time.Second, "longest a republisher goes without re-reading the directory and re-registering; membership changes are acted on at once")

		harvestTimeout = flag.Duration("harvest-timeout", 0, "per-source harvest timeout (0 = default, negative = off)")
		queryTimeout   = flag.Duration("query-timeout", 0, "whole-request deadline when the caller sets none (0 = default, negative = off)")
		retries        = flag.Int("retries", 0, "per-source harvest retries after the first failure")
		breakerTrips   = flag.Int("breaker-threshold", 0, "consecutive failures that open a source's circuit breaker (0 = default, negative = off)")
		breakerCool    = flag.Duration("breaker-cooldown", 0, "how long an open breaker waits before a half-open probe (0 = default)")
		staleGrace     = flag.Duration("stale-grace", 0, "how long expired cache entries remain servable as degraded results (0 = default 2m, negative = off)")
		probeInterval  = flag.Duration("probe-interval", 15*time.Second, "background source sweep period: ping each source its breaker allows (0 = off)")

		lookupTTL     = flag.Duration("lookup-ttl", 15*time.Second, "how long directory lookups are cached by the router (negative = off)")
		remoteRetries = flag.Int("remote-retries", 1, "additional attempts for a failed remote-gateway query")
		maxInFlight   = flag.Int("max-inflight", 0, "max concurrent /query+/poll requests before shedding with 429 (0 = unbounded)")
		maxQueue      = flag.Int("max-queue", 0, "requests allowed to wait for an admission slot beyond -max-inflight")

		historyDir   = flag.String("history-dir", "", "directory for crash-safe history persistence (WAL + checkpoints; empty = in-memory only)")
		historyFsync = flag.String("history-fsync", "interval", "history WAL fsync policy: always (each record fsynced before it is kept: "+
			"a kill -9 or a machine crash loses nothing), interval (one write and fsync per group of at most 100 ms: either loses "+
			"at most the last 100 ms) or off (each record written, never fsynced: a kill -9 loses nothing, a machine crash "+
			"what the OS had not written back)")

		subQueue = flag.Int("subscribe-queue", 0, "per-subscriber continuous-query buffer (0 = default 256)")
		subStall = flag.Duration("subscribe-stall", 0, "evict a subscriber whose queue stays full this long (0 = default 10s, negative = never)")
		sinkFile = flag.String("sink-file", "", "append every pushed metric as a JSON line to this file")

		traceSample  = flag.Float64("trace-sample", 0, "fraction of queries to trace, 0-1 (0 = default 1.0, negative = off)")
		slowlogThold = flag.Duration("slowlog-threshold", 0, "queries slower than this enter the slow-query log (0 = default 500ms, negative = off)")
		pprofEnable  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
	)
	flag.Parse()

	dir, localDir := assembleDirectory(*hostDir, *refresh, directories)
	if *role == "republisher" {
		runRepublisher(*name, *listen, dir, localDir, *repubRefresh, *maxInFlight, *maxQueue)
		return
	}
	if *role != "site" {
		log.Fatalf("gridrm-gateway: -role must be site or republisher (got %q)", *role)
	}
	if *manifest == "" {
		log.Fatal("gridrm-gateway: -manifest is required")
	}
	if !tsdb.ValidFsync(*historyFsync) {
		log.Fatalf("gridrm-gateway: -history-fsync must be %q, %q or %q (got %q)",
			tsdb.FsyncAlways, tsdb.FsyncInterval, tsdb.FsyncOff, *historyFsync)
	}
	data, err := os.ReadFile(*manifest)
	if err != nil {
		log.Fatalf("gridrm-gateway: %v", err)
	}
	m, err := sitekit.ParseManifest(data)
	if err != nil {
		log.Fatalf("gridrm-gateway: %v", err)
	}
	if *name != "" {
		m.Site = *name
	}

	gw, err := sitekit.NewGateway(m, sitekit.Options{
		Gateway: core.Config{
			HarvestTimeout: *harvestTimeout,
			QueryTimeout:   *queryTimeout,
			Durable:        tsdb.Options{Dir: *historyDir, Fsync: *historyFsync},
			Push:           router.Options{QueueSize: *subQueue, Stall: *subStall},
			Retry:          core.RetryOptions{Attempts: *retries},
			Breaker:        breaker.Options{Threshold: *breakerTrips, Cooldown: *breakerCool},
			StaleGrace:     *staleGrace,
			ProbeInterval:  *probeInterval,
			Trace:          trace.Options{Sample: *traceSample, SlowThreshold: *slowlogThold},
		},
	}, *dynamic)
	if err != nil {
		log.Fatalf("gridrm-gateway: %v", err)
	}
	defer gw.Close()

	for _, url := range sinkHTTP {
		if err := gw.PushRouter().AddSink(&router.HTTPSink{URL: url}, router.SinkOptions{}); err != nil {
			log.Fatalf("gridrm-gateway: sink %s: %v", url, err)
		}
		log.Printf("push: HTTP sink registered for %s", url)
	}
	if *sinkFile != "" {
		fs, err := router.NewFileSink(*sinkFile)
		if err != nil {
			log.Fatalf("gridrm-gateway: %v", err)
		}
		if err := gw.PushRouter().AddSink(fs, router.SinkOptions{}); err != nil {
			log.Fatalf("gridrm-gateway: sink %s: %v", *sinkFile, err)
		}
		log.Printf("push: file sink appending to %s", *sinkFile)
	}

	var dirHandler http.Handler
	if localDir != nil {
		dirHandler = localDir.Handler()
	}
	server := web.NewServer(gw, nil, dirHandler)
	server.SetAdmissionLimits(*maxInFlight, *maxQueue)
	if *pprofEnable {
		server.EnablePprof()
		log.Printf("pprof: profiling endpoints mounted at /debug/pprof/")
	}

	endpoint := "http://" + *listen

	var reg *gma.Registrar
	var fedRouter *gma.Router
	if dir != nil {
		fedRouter = gma.NewRouter(dir, web.RemoteQueryContext, m.Site, gma.Config{
			LookupTTL:     *lookupTTL,
			RetryAttempts: *remoteRetries,
			Watch:         web.RemoteVersionContext,
		})
		fedRouter.RegisterMetrics(gw.Metrics())
		gw.SetGlobalRouter(fedRouter)
		server.SetSiteLister(fedRouter.Sites)
		reg = gma.NewRegistrar(dir, gma.Registration{
			Name: m.Site, Endpoint: endpoint, Groups: glue.GroupNames(),
		}, *refresh)
		// Directory reachability surfaces on the event bus (an Alert when
		// registration starts failing, a Status on recovery) and on /metrics.
		reg.SetStateListener(func(reachable bool, err error) {
			if reachable {
				gw.Events().Publish(event.Event{
					Source: "gma", Name: "directory-reachable",
					Severity: event.SeverityStatus, Time: time.Now(),
					Detail: "directory registration succeeded",
				})
				log.Printf("gma: directory reachable, producer registered")
				return
			}
			gw.Events().Publish(event.Event{
				Source: "gma", Name: "directory-unreachable",
				Severity: event.SeverityAlert, Time: time.Now(),
				Detail: err.Error(),
			})
			log.Printf("gma: directory unreachable, retrying in background: %v", err)
		})
		reg.RegisterMetrics(gw.Metrics())
		// Start fails only on invalid configuration; a directory outage is
		// retried in the background so the gateway still serves local queries.
		if err := reg.Start(); err != nil {
			log.Fatalf("gridrm-gateway: GMA registration: %v", err)
		}
		defer reg.Stop()
	}

	httpServer := &http.Server{Addr: *listen, Handler: server}
	go func() {
		log.Printf("gateway %s serving on %s (sources: %d, drivers: %d)",
			m.Site, endpoint, len(gw.Sources()), len(gw.Drivers()))
		if err := httpServer.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("gridrm-gateway: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	// Ordered graceful shutdown: deregister from the GMA directory first so
	// peers stop routing here and stop the router's version watches, then
	// let the HTTP server finish in-flight requests, then drain the gateway
	// itself (source sweep, queries, events, pool) — all bounded by the drain
	// timeout.
	log.Printf("shutting down: draining for up to %s", drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if reg != nil {
		reg.Stop()
	}
	if fedRouter != nil {
		fedRouter.Close()
	}
	if err := httpServer.Shutdown(ctx); err != nil {
		log.Printf("gridrm-gateway: http shutdown: %v", err)
	}
	if err := gw.Shutdown(ctx); err != nil {
		log.Printf("gridrm-gateway: gateway shutdown: %v", err)
	}
}

// assembleDirectory builds the gateway's directory: the locally hosted one
// (localDir, nil without -host-directory) plus every -directory replica,
// federated behind a MultiDirectory when there is more than one so
// registration fans out and lookups fail over. dir is nil when there is
// neither.
func assembleDirectory(hostDir bool, refresh time.Duration, directories []string) (dir gma.DirectoryService, localDir *gma.Directory) {
	var replicas []gma.DirectoryService
	if hostDir {
		localDir = gma.NewDirectory(3*refresh, nil)
		replicas = append(replicas, localDir)
	}
	for _, base := range directories {
		replicas = append(replicas, &gma.DirectoryClient{BaseURL: base})
	}
	switch len(replicas) {
	case 0:
	case 1:
		dir = replicas[0]
	default:
		dir = gma.NewMultiDirectory(replicas...)
	}
	return dir, localDir
}

// runRepublisher runs the gateway in republisher mode: no local agents or
// drivers — just the shard-maintenance loops over the directory, each owned
// site's /subscribe feed, and the region-query servlet.
//
//	gridrm-gateway -role=republisher -name repub-a -listen 127.0.0.1:8090 \
//	    -directory http://127.0.0.1:8080
func runRepublisher(name, listen string, dir gma.DirectoryService, localDir *gma.Directory,
	refresh time.Duration, maxInFlight, maxQueue int) {
	if name == "" {
		log.Fatal("gridrm-gateway: republisher mode requires -name")
	}
	if dir == nil {
		log.Fatal("gridrm-gateway: republisher mode requires -directory (or -host-directory)")
	}

	endpoint := "http://" + listen
	g, err := repub.New(repub.Options{
		Name:            name,
		Endpoint:        endpoint,
		Directory:       dir,
		RefreshInterval: refresh,
	})
	if err != nil {
		log.Fatalf("gridrm-gateway: %v", err)
	}
	if err := g.Start(context.Background()); err != nil {
		log.Fatalf("gridrm-gateway: %v", err)
	}

	front := g.Handler()
	front.SetAdmissionLimits(maxInFlight, maxQueue)
	mux := http.NewServeMux()
	mux.Handle("/", front)
	if localDir != nil {
		mux.Handle("/gma/", localDir.Handler())
	}
	httpServer := &http.Server{Addr: listen, Handler: mux}
	go func() {
		log.Printf("republisher %s serving on %s (owns %d sites)", name, endpoint, len(g.Owns()))
		if err := httpServer.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("gridrm-gateway: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	// Graceful drain: deregister first so entry gateways replan onto the
	// surviving republishers, then close the servlet.
	log.Printf("republisher %s shutting down", name)
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	g.Stop()
	if err := httpServer.Shutdown(ctx); err != nil {
		log.Printf("gridrm-gateway: http shutdown: %v", err)
	}
}
