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
	"gridrm/internal/drivers/faultdrv"
	"gridrm/internal/event"
	"gridrm/internal/glue"
	"gridrm/internal/gma"
	"gridrm/internal/health"
	"gridrm/internal/repub"
	"gridrm/internal/router"
	"gridrm/internal/sitekit"
	"gridrm/internal/trace"
	"gridrm/internal/tsdb"
	"gridrm/internal/web"
)

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
		repubRefresh = flag.Duration("repub-refresh", 2*time.Second, "republisher directory poll / rebalance cadence")
		repubScrape  = flag.Duration("repub-scrape", 5*time.Second, "republisher re-scrape cadence for sites without a live subscription")

		harvestTimeout = flag.Duration("harvest-timeout", 0, "per-source harvest timeout (0 = default, negative = off)")
		queryTimeout   = flag.Duration("query-timeout", 0, "whole-request deadline when the caller sets none (0 = default, negative = off)")
		retries        = flag.Int("retries", 0, "per-source harvest retries after the first failure")
		retryBackoff   = flag.Duration("retry-backoff", 0, "initial retry backoff (0 = default)")
		breakerTrips   = flag.Int("breaker-threshold", 0, "consecutive failures that open a source's circuit breaker (0 = default, negative = off)")
		breakerCool    = flag.Duration("breaker-cooldown", 0, "how long an open breaker waits before a half-open probe (0 = default)")
		dirTimeout     = flag.Duration("directory-timeout", 0, "GMA directory HTTP timeout (0 = default)")
		maxHarvests    = flag.Int("max-concurrent-harvests", 0, "bound on concurrent driver harvests (0 = unbounded)")
		staleGrace     = flag.Duration("stale-grace", 0, "how long expired cache entries remain servable as degraded results (0 = default 2m, negative = off)")
		probeInterval  = flag.Duration("probe-interval", 15*time.Second, "background source health probe period (0 = off)")
		drainTimeout   = flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight queries on SIGTERM")

		lookupTTL     = flag.Duration("lookup-ttl", 15*time.Second, "how long directory lookups are cached by the router (negative = off)")
		remoteRetries = flag.Int("remote-retries", 1, "additional attempts for a failed remote-gateway query")
		hedgeAfter    = flag.Duration("hedge-after", 0, "hedge a straggling remote query after this long (0 = off)")
		maxInFlight   = flag.Int("max-inflight", 0, "max concurrent /query+/poll requests before shedding with 429 (0 = unbounded)")
		maxQueue      = flag.Int("max-queue", 0, "requests allowed to wait for an admission slot beyond -max-inflight")

		faultErrEvery   = flag.Int("fault-error-every", 0, "chaos: fail every nth driver query (0 = off)")
		faultPanicEvery = flag.Int("fault-panic-every", 0, "chaos: panic on every nth driver query (0 = off)")
		faultLatency    = flag.Duration("fault-latency", 0, "chaos: added per-query driver latency")

		historyDir      = flag.String("history-dir", "", "directory for crash-safe history persistence (WAL + checkpoints; empty = in-memory only)")
		historyFsync    = flag.String("history-fsync", "interval", "history WAL fsync policy: always, interval or off")
		historyCkptIntv = flag.Duration("history-checkpoint-interval", 0, "history checkpoint period (0 = default 1m, negative = only at shutdown)")
		historyMaxDisk  = flag.Int64("history-max-disk-bytes", 0, "history disk budget in bytes; oldest WAL segments dropped first (0 = unlimited)")

		subQueue = flag.Int("subscribe-queue", 0, "per-subscriber continuous-query buffer (0 = default 256)")
		subStall = flag.Duration("subscribe-stall", 0, "evict a subscriber whose queue stays full this long (0 = default 10s, negative = never)")
		sinkFile = flag.String("sink-file", "", "append every pushed metric as a JSON line to this file")

		traceSample  = flag.Float64("trace-sample", 0, "fraction of queries to trace, 0-1 (0 = default 1.0, negative = off)")
		slowlogThold = flag.Duration("slowlog-threshold", 0, "queries slower than this enter the slow-query log (0 = default 500ms, negative = off)")
		pprofEnable  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
	)
	flag.Parse()

	dir, localDir := assembleDirectory(*hostDir, *refresh, *dirTimeout, directories)
	if *role == "republisher" {
		runRepublisher(*name, *listen, dir, localDir, *repubRefresh, *repubScrape, *maxInFlight, *maxQueue)
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

	var faults *faultdrv.Faults
	if *faultErrEvery > 0 || *faultPanicEvery > 0 || *faultLatency > 0 {
		faults = faultdrv.NewFaults()
		faults.SetErrorEvery(*faultErrEvery)
		faults.SetPanicEveryQuery(*faultPanicEvery)
		faults.SetQueryLatency(*faultLatency)
		log.Printf("chaos: fault injection armed (error-every=%d panic-every=%d latency=%s)",
			*faultErrEvery, *faultPanicEvery, *faultLatency)
	}

	gw, err := sitekit.NewGateway(m, sitekit.Options{
		Faults: faults,
		Gateway: core.Config{
			HarvestTimeout: *harvestTimeout,
			QueryTimeout:   *queryTimeout,
			Durable: tsdb.Options{
				Dir:                *historyDir,
				Fsync:              *historyFsync,
				CheckpointInterval: *historyCkptIntv,
				MaxDiskBytes:       *historyMaxDisk,
			},
			Push:                  router.Options{QueueSize: *subQueue, Stall: *subStall},
			Retry:                 core.RetryOptions{Attempts: *retries, Backoff: *retryBackoff},
			Breaker:               breaker.Options{Threshold: *breakerTrips, Cooldown: *breakerCool},
			MaxConcurrentHarvests: *maxHarvests,
			StaleGrace:            *staleGrace,
			Probe:                 health.Options{Interval: *probeInterval},
			Trace:                 trace.Options{Sample: *traceSample, SlowThreshold: *slowlogThold},
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
	if dir != nil {
		fedRouter := gma.NewRouter(dir, web.RemoteQueryContext, m.Site, gma.Config{
			LookupTTL:     *lookupTTL,
			RetryAttempts: *remoteRetries,
			HedgeAfter:    *hedgeAfter,
		})
		fedRouter.RegisterMetrics(gw.Metrics())
		gw.SetGlobalRouter(fedRouter)
		server.SetSiteLister(fedRouter.Sites)
		reg = gma.NewRegistrar(dir, gma.Registration{
			Name: m.Site, Endpoint: endpoint, Groups: glue.GroupNames(),
		}, *refresh)
		// Directory reachability surfaces on the event bus (an Alert when
		// registration starts failing, a Status on recovery) and as a gauge.
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
		gw.Metrics().GaugeFunc("gridrm_directory_reachable",
			"1 when the last directory registration succeeded.",
			func() float64 {
				if reg.Registered() {
					return 1
				}
				return 0
			})
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
	// peers stop routing here, then let the HTTP server finish in-flight
	// requests, then drain the gateway itself (prober, queries, events,
	// pool) — all bounded by the drain timeout.
	log.Printf("shutting down: draining for up to %s", *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if reg != nil {
		reg.Stop()
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
func assembleDirectory(hostDir bool, refresh, dirTimeout time.Duration, directories []string) (dir gma.DirectoryService, localDir *gma.Directory) {
	var replicas []gma.DirectoryService
	if hostDir {
		localDir = gma.NewDirectory(3*refresh, nil)
		replicas = append(replicas, localDir)
	}
	for _, base := range directories {
		replicas = append(replicas, &gma.DirectoryClient{BaseURL: base, Timeout: dirTimeout})
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
// drivers — just the shard-maintenance loops over the directory and the
// region-query servlet.
//
//	gridrm-gateway -role=republisher -name repub-a -listen 127.0.0.1:8090 \
//	    -directory http://127.0.0.1:8080
func runRepublisher(name, listen string, dir gma.DirectoryService, localDir *gma.Directory,
	refresh, scrape time.Duration, maxInFlight, maxQueue int) {
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
		ScrapeInterval:  scrape,
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
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	g.Stop(ctx)
	if err := httpServer.Shutdown(ctx); err != nil {
		log.Printf("gridrm-gateway: http shutdown: %v", err)
	}
}
