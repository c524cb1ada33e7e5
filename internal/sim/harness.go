package sim

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridrm/internal/breaker"
	"gridrm/internal/core"
	"gridrm/internal/drivers/faultdrv"
	"gridrm/internal/gma"
	"gridrm/internal/qcache"
	"gridrm/internal/repub"
	"gridrm/internal/router"
	"gridrm/internal/security"
	"gridrm/internal/tsdb"
	"gridrm/internal/web"
)

// SimPrincipal is the principal every simulated client queries as.
var SimPrincipal = security.Principal{Name: "sim", Roles: []string{"operator"}}

// registrarInterval is how often sites refresh their directory records.
const registrarInterval = 250 * time.Millisecond

// SiteRuntime is one running site: a real gateway over the shared fleet,
// its fault-injection knobs, and (under federation) its web server and
// directory registrar.
type SiteRuntime struct {
	Name     string
	Template SiteTemplate
	Gateway  *core.Gateway
	// HistoryDir is the site's crash-safe history directory ("" unless the
	// template sets durable_history). restart_gateway reuses it so the
	// replacement gateway restores the pre-crash samples.
	HistoryDir string
	// Faults is the site's fault-injection layer; latency_spike events and
	// the integration chaos tests turn its knobs.
	Faults *faultdrv.Faults
	// Server is the site's HTTP face (always present on the entry site,
	// on every site under federation). partition_site drops its traffic.
	Server *ChaosServer
	// Registrar keeps the site's producer record fresh (federation only).
	Registrar *gma.Registrar
}

// DirectoryReplica is one GMA directory replica behind a droppable server.
type DirectoryReplica struct {
	Dir    *gma.Directory
	Server *ChaosServer
}

// RepubRuntime is one running republisher gateway (repub-1..repub-N)
// behind a droppable server. kill_republisher severs the server and halts
// the gateway without deregistering — a crash, whose stale registration
// the entry router must fall through; drain_republisher stops it
// gracefully so the survivors rebalance the ring.
type RepubRuntime struct {
	Name    string
	Gateway *repub.Gateway
	Server  *ChaosServer
}

// Harness is a running fleet: every site's gateway wired over one shared
// Fleet, optionally federated through droppable directory replicas and a
// resilient router on the entry site. Chaos tests drive it directly; the
// Runner drives it from a scenario.
type Harness struct {
	Scenario  *Scenario
	Fleet     *Fleet
	Sites     map[string]*SiteRuntime
	SiteOrder []string
	Entry     *SiteRuntime
	Replicas  []*DirectoryReplica
	Repubs    []*RepubRuntime
	MultiDir  *gma.MultiDirectory
	Router    *gma.Router
	opts      HarnessOptions

	// gwMu guards SiteRuntime.Gateway swaps by RestartSite against the
	// client workers reading the entry gateway; use SiteGateway /
	// EntryGateway instead of touching the field during a run.
	gwMu    sync.RWMutex
	tmpRoot string // temp root for durable-history site dirs

	// subMu guards the continuous-query subscriber registry that
	// stall_subscriber / kill_subscriber events act on.
	subMu       sync.Mutex
	subscribers []*simSubscriber
	// deadSink is the black-holed endpoint behind the load.dead_sink HTTP
	// push sink (nil unless the scenario asks for one).
	deadSink *ChaosServer

	// convergeMu guards converged, how long each republisher membership
	// event took to settle (awaitOwnership); stopAwait ends the waits
	// still open at Close.
	convergeMu sync.Mutex
	converged  []convergence
	awaiting   sync.WaitGroup
	awaitCtx   context.Context
	stopAwait  context.CancelFunc
}

// convergence is how long the republishers' shards took to partition the
// sites again after a membership event.
type convergence struct {
	event string
	after time.Duration
}

// simSubscriber is one continuous-query consumer: a drain goroutine that
// counts rows until a stall event wedges it or a kill event closes it.
type simSubscriber struct {
	sub       *router.Subscription
	stall     chan struct{}
	stallOnce sync.Once
	stalled   bool // under Harness.subMu
	killed    bool // under Harness.subMu
	rows      atomic.Int64
}

// StartSubscribers opens n continuous queries on the entry gateway, each
// drained by its own goroutine until stalled, killed, evicted, or gateway
// shutdown. Call after priming so the first harvests have someone to feed.
func (h *Harness) StartSubscribers(n int, sql string) error {
	gw := h.EntryGateway()
	for i := 0; i < n; i++ {
		sub, err := gw.Subscribe(context.Background(), core.QueryOptions{
			Principal: SimPrincipal,
			SQL:       sql,
		})
		if err != nil {
			return fmt.Errorf("sim: subscriber %d: %w", i, err)
		}
		ss := &simSubscriber{sub: sub, stall: make(chan struct{})}
		h.subMu.Lock()
		h.subscribers = append(h.subscribers, ss)
		h.subMu.Unlock()
		go ss.drain()
	}
	return nil
}

// drain consumes rows until the subscription ends. A stall abandons the
// channel without closing the subscription — exactly a wedged consumer:
// its bounded queue fills, overflow drops oldest, and the router's stall
// clock eventually evicts it.
func (ss *simSubscriber) drain() {
	for {
		select {
		case <-ss.stall:
			<-ss.sub.Done()
			return
		case <-ss.sub.Done():
			return
		case <-ss.sub.C():
			ss.rows.Add(1)
		}
	}
}

// StallSubscribers wedges up to count live subscribers (stops their drain
// loops, keeps their subscriptions registered) and reports how many.
func (h *Harness) StallSubscribers(count int) int {
	h.subMu.Lock()
	defer h.subMu.Unlock()
	n := 0
	for _, ss := range h.subscribers {
		if n == count {
			break
		}
		if ss.stalled || ss.killed {
			continue
		}
		ss.stalled = true
		ss.stallOnce.Do(func() { close(ss.stall) })
		n++
	}
	return n
}

// KillSubscribers closes up to count live subscribers mid-run and reports
// how many; their drain goroutines exit via Done.
func (h *Harness) KillSubscribers(count int) int {
	h.subMu.Lock()
	defer h.subMu.Unlock()
	n := 0
	for _, ss := range h.subscribers {
		if n == count {
			break
		}
		if ss.stalled || ss.killed {
			continue
		}
		ss.killed = true
		ss.sub.Close()
		n++
	}
	return n
}

// SubscriberRows totals the rows all subscribers actually consumed.
func (h *Harness) SubscriberRows() int64 {
	h.subMu.Lock()
	defer h.subMu.Unlock()
	var total int64
	for _, ss := range h.subscribers {
		total += ss.rows.Load()
	}
	return total
}

// startDeadSink registers an HTTP push sink on the entry gateway whose
// endpoint severs every connection. Small retry budget and a fast breaker
// keep the failure loop tight enough that breaker opens show up within a
// short CI run.
func (h *Harness) startDeadSink() error {
	srv, err := NewChaosServer(http.NotFoundHandler())
	if err != nil {
		return err
	}
	srv.SetDropped(true)
	h.deadSink = srv
	return h.EntryGateway().PushRouter().AddSink(
		&router.HTTPSink{URL: srv.URL(), Client: &http.Client{Timeout: 500 * time.Millisecond}},
		router.SinkOptions{
			Queue:   64,
			Retries: 1,
			Backoff: 5 * time.Millisecond,
			Breaker: breaker.Options{Threshold: 3, Cooldown: 200 * time.Millisecond},
		})
}

// HarnessOptions are test-facing knobs beyond what scenarios declare.
type HarnessOptions struct {
	// Clock, when non-nil, drives the federation router's lookup-TTL clock;
	// chaos tests pass a (*Clock).Now so TTLs lapse by Advance, not sleep.
	Clock func() time.Time
	// RegistrarListener, when non-nil, is installed on every site's
	// registrar before Start so directory-reachability flips are observable
	// from the first registration on.
	RegistrarListener func(site string, reachable bool, err error)
}

// NewHarness builds and starts the scenario's fleet. Fleet generation
// consumes rng; everything else is deterministic wiring. Callers own the
// harness and must Close it.
func NewHarness(sc *Scenario, rng *rand.Rand) (*Harness, error) {
	return NewHarnessOpts(sc, rng, HarnessOptions{})
}

// NewHarnessOpts is NewHarness with test-facing options.
func NewHarnessOpts(sc *Scenario, rng *rand.Rand, opts HarnessOptions) (*Harness, error) {
	h := &Harness{
		Scenario: sc,
		Fleet:    GenerateFleet(sc.Fleet, rng),
		Sites:    make(map[string]*SiteRuntime),
		opts:     opts,
	}
	ok := false
	defer func() {
		if !ok {
			h.Close()
		}
	}()
	for _, tpl := range sc.Fleet.Sites {
		for _, site := range tpl.Instances() {
			rt, err := h.startSite(site, tpl)
			if err != nil {
				return nil, err
			}
			h.Sites[site] = rt
			h.SiteOrder = append(h.SiteOrder, site)
		}
	}
	h.Entry = h.Sites[sc.EntrySite()]
	if sc.Federation.Enabled {
		if err := h.federate(); err != nil {
			return nil, err
		}
	}
	if h.Entry.Server == nil {
		srv, err := NewChaosServer(web.NewServer(h.Entry.Gateway, nil, nil))
		if err != nil {
			return nil, err
		}
		h.Entry.Server = srv
	}
	if sc.Load.DeadSink {
		if err := h.startDeadSink(); err != nil {
			return nil, fmt.Errorf("sim: dead sink: %w", err)
		}
	}
	ok = true
	return h, nil
}

// startSite builds one site's gateway over the shared fleet, the fleet
// driver wrapped in the site's own fault-injection layer.
func (h *Harness) startSite(site string, tpl SiteTemplate) (*SiteRuntime, error) {
	historyDir := ""
	if tpl.DurableHistory {
		root, err := h.historyRoot()
		if err != nil {
			return nil, fmt.Errorf("sim: %s: %w", site, err)
		}
		historyDir = filepath.Join(root, site)
	}
	faults := faultdrv.NewFaults()
	gw, err := h.buildGateway(site, tpl, historyDir, faults)
	if err != nil {
		return nil, err
	}
	return &SiteRuntime{Name: site, Template: tpl, Gateway: gw,
		HistoryDir: historyDir, Faults: faults}, nil
}

// buildGateway constructs a site gateway over the shared fleet — both the
// initial build and the replacement instance a restart_gateway event brings
// up on the same history dir.
func (h *Harness) buildGateway(site string, tpl SiteTemplate, historyDir string, faults *faultdrv.Faults) (*core.Gateway, error) {
	cfg := core.Config{
		Name:           site,
		Cache:          qcache.Options{TTL: tpl.CacheTTL},
		HarvestTimeout: tpl.HarvestTimeout,
		Breaker:        breaker.Options{Threshold: tpl.BreakerThreshold, Cooldown: tpl.BreakerCooldown},
		DisableHistory: tpl.DisableHistory,
		StaleGrace:     tpl.StaleGrace,
		Push:           router.Options{QueueSize: tpl.SubscribeQueue, Stall: tpl.SubscribeStall},
	}
	if historyDir != "" {
		cfg.Durable = tsdb.Options{Dir: historyDir, Fsync: tpl.HistoryFsync}
	}
	gw := core.New(cfg)
	fd := NewFleetDriver(h.Fleet)
	if err := gw.RegisterDriver(faultdrv.New(FleetDriverName, fd, faults), fd.Schema()); err != nil {
		gw.Close()
		return nil, fmt.Errorf("sim: %s: %w", site, err)
	}
	for _, src := range h.Fleet.SiteSources(site) {
		err := gw.AddSource(core.SourceConfig{
			URL:         src.URL,
			Drivers:     []string{FleetDriverName},
			Description: "simulated fleet source",
		})
		if err != nil {
			gw.Close()
			return nil, fmt.Errorf("sim: %s: %w", site, err)
		}
	}
	return gw, nil
}

// historyRoot lazily creates the temp root durable-history sites live under;
// Close removes it.
func (h *Harness) historyRoot() (string, error) {
	if h.tmpRoot == "" {
		dir, err := os.MkdirTemp("", "gridrm-sim-")
		if err != nil {
			return "", err
		}
		h.tmpRoot = dir
	}
	return h.tmpRoot, nil
}

// SiteGateway returns a site's current gateway — the replacement instance
// after a restart_gateway event. Nil for unknown sites.
func (h *Harness) SiteGateway(site string) *core.Gateway {
	h.gwMu.RLock()
	defer h.gwMu.RUnlock()
	rt, ok := h.Sites[site]
	if !ok {
		return nil
	}
	return rt.Gateway
}

// EntryGateway returns the entry site's current gateway.
func (h *Harness) EntryGateway() *core.Gateway {
	h.gwMu.RLock()
	defer h.gwMu.RUnlock()
	return h.Entry.Gateway
}

// RestartSite crash-stops a site's gateway (no final sync, no final
// checkpoint — a kill, not a drain) and brings up a replacement on the same
// history directory, behind the same HTTP address. With durable history the
// new instance restores the newest checkpoint plus the WAL tail; without it
// the restart wipes all state, which is exactly the volatility this layer
// exists to remove.
func (h *Harness) RestartSite(site string) error {
	rt, ok := h.Sites[site]
	if !ok {
		return fmt.Errorf("sim: restart_gateway: unknown site %q", site)
	}
	// The kill: the durable store lets go of its directory with nothing
	// synced. The old gateway keeps answering (memory-only) while the
	// replacement restores, so clients never meet a closed gateway.
	old := rt.Gateway
	if d := old.DurableHistory(); d != nil {
		d.CrashClose()
	}
	gw, err := h.buildGateway(site, rt.Template, rt.HistoryDir, rt.Faults)
	if err != nil {
		return err
	}
	if h.Router != nil && rt == h.Entry {
		gw.SetGlobalRouter(h.Router)
		h.Router.RegisterMetrics(gw.Metrics())
	}
	h.gwMu.Lock()
	rt.Gateway = gw
	h.gwMu.Unlock()
	if rt.Server != nil {
		rt.Server.SetHandler(web.NewServer(gw, nil, nil))
	}
	// Requests already inside the old instance get a moment to finish.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = old.Shutdown(ctx)
	return nil
}

// federate stands up the directory replicas, registers every site and
// installs the resilient router on the entry gateway.
func (h *Harness) federate() error {
	fed := h.Scenario.Federation
	var services []gma.DirectoryService
	for i := 0; i < fed.Directories; i++ {
		dir := gma.NewDirectory(0, nil) // records never expire; outages are dropped traffic
		srv, err := NewChaosServer(dir.Handler())
		if err != nil {
			return err
		}
		h.Replicas = append(h.Replicas, &DirectoryReplica{Dir: dir, Server: srv})
		services = append(services, &gma.DirectoryClient{BaseURL: srv.URL(), Timeout: 2 * time.Second})
	}
	h.MultiDir = gma.NewMultiDirectory(services...)
	h.awaitCtx, h.stopAwait = context.WithCancel(context.Background())
	for _, site := range h.SiteOrder {
		rt := h.Sites[site]
		srv, err := NewChaosServer(web.NewServer(rt.Gateway, nil, nil))
		if err != nil {
			return err
		}
		rt.Server = srv
		rt.Registrar = gma.NewRegistrar(h.MultiDir, gma.Registration{
			Name: site, Endpoint: srv.URL(), Groups: fleetGroups(),
		}, registrarInterval)
		if h.opts.RegistrarListener != nil {
			site := site
			rt.Registrar.SetStateListener(func(reachable bool, err error) {
				h.opts.RegistrarListener(site, reachable, err)
			})
		}
		if err := rt.Registrar.Start(); err != nil {
			return fmt.Errorf("sim: register %s: %w", site, err)
		}
	}
	began := time.Now()
	for i := 1; i <= fed.Republishers; i++ {
		if err := h.startRepublisher(fmt.Sprintf("repub-%d", i), fed); err != nil {
			return err
		}
	}
	if fed.Republishers > 0 {
		h.awaitOwnership("start", fmt.Sprintf("repub-%d", fed.Republishers), true, began)
	}
	h.Router = gma.NewRouter(h.MultiDir, web.RemoteQueryContext, h.Entry.Name, gma.Config{
		LookupTTL:     fed.LookupTTL,
		RetryAttempts: fed.RetryAttempts,
		Clock:         h.opts.Clock,
	})
	h.Entry.Gateway.SetGlobalRouter(h.Router)
	h.Router.RegisterMetrics(h.Entry.Gateway.Metrics())
	return nil
}

// startRepublisher brings up one republisher, configured as the binary's
// -role=republisher is: its scrapes and its /subscribe feeds reach the sites
// over HTTP through their droppable servers, so partitions cut both.
func (h *Harness) startRepublisher(name string, fed FederationSpec) error {
	srv, err := NewChaosServer(http.NotFoundHandler())
	if err != nil {
		return err
	}
	g, err := repub.New(repub.Options{
		Name:            name,
		Endpoint:        srv.URL(),
		Directory:       h.MultiDir,
		RefreshInterval: fed.RepubRefresh,
		ScrapeInterval:  fed.RepubScrape,
	})
	if err != nil {
		srv.Close()
		return err
	}
	srv.SetHandler(g.Handler())
	if err := g.Start(context.Background()); err != nil {
		srv.Close()
		return err
	}
	h.Repubs = append(h.Repubs, &RepubRuntime{Name: name, Gateway: g, Server: srv})
	return nil
}

// Republisher returns republisher i (1-based), nil when out of range.
func (h *Harness) Republisher(i int) *RepubRuntime {
	if i < 1 || i > len(h.Repubs) {
		return nil
	}
	return h.Repubs[i-1]
}

// KillRepublisher crashes republisher i: traffic severed, loops halted,
// registration left stale in the directory.
func (h *Harness) KillRepublisher(i int) bool {
	rr := h.Republisher(i)
	if rr == nil {
		return false
	}
	rr.Server.SetDropped(true)
	rr.Gateway.Halt()
	return true
}

// ReviveRepublisher restores a killed republisher on its old address.
func (h *Harness) ReviveRepublisher(i int) bool {
	rr := h.Republisher(i)
	if rr == nil {
		return false
	}
	rr.Server.SetDropped(false)
	h.awaitOwnership("revive "+rr.Name, rr.Name, true, time.Now())
	return rr.Gateway.Start(context.Background()) == nil
}

// DrainRepublisher stops republisher i gracefully: workers wound down,
// registration withdrawn, so the survivors rebalance and the entry router
// replans without it.
func (h *Harness) DrainRepublisher(i int) bool {
	rr := h.Republisher(i)
	if rr == nil {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	h.awaitOwnership("drain "+rr.Name, rr.Name, false, time.Now())
	rr.Gateway.Stop(ctx)
	rr.Server.SetDropped(true)
	return true
}

// ownership reads the directory's first replica in process. misowned
// counts the sites that the shards of the republishers it lists do not
// cover exactly once, plus any site they cover that is not one of the
// fleet's; a crashed republisher stays listed, and counts with the shard
// it held when it died. listed reports whether it lists the member named.
func (h *Harness) ownership(name string) (misowned int, listed bool) {
	regs, _ := h.Replicas[0].Dir.ListContext(context.Background())
	registered := func(name string) bool {
		return slices.ContainsFunc(regs, func(r gma.Registration) bool { return r.Name == name })
	}
	owners := make(map[string]int, len(h.SiteOrder))
	for _, rr := range h.Repubs {
		if registered(rr.Name) {
			for _, site := range rr.Gateway.Owns() {
				owners[site]++
			}
		}
	}
	for _, site := range h.SiteOrder {
		if owners[site] != 1 {
			misowned++
		}
		delete(owners, site)
	}
	return misowned + len(owners), registered(name)
}

// planCoverage asks the entry router for an all-sites fan-out plan and
// counts the fleet's sites that its legs plus the entry's own leg do not
// cover exactly once, plus any name they cover that is not one of the
// fleet's. A plan the router cannot make misses every site.
func (h *Harness) planCoverage() (miscovered int) {
	legs, err := h.Router.FanoutPlan(context.Background())
	if err != nil {
		return len(h.SiteOrder)
	}
	covered := map[string]int{h.Entry.Name: 1}
	for _, leg := range legs {
		if !leg.Republisher {
			covered[leg.Target]++
		}
		for _, site := range leg.Covers {
			covered[site]++
		}
	}
	for _, site := range h.SiteOrder {
		if covered[site] != 1 {
			miscovered++
		}
		delete(covered, site)
	}
	return miscovered + len(covered)
}

// awaitOwnership times how long a membership event that began at start
// takes to settle: until the directory lists the republisher named (or,
// when listed is false, no longer lists it) and the shards partition the
// sites again. It only reads the shards; it never makes a republisher
// refresh.
func (h *Harness) awaitOwnership(event, name string, listed bool, start time.Time) {
	h.awaiting.Add(1)
	go func() {
		defer h.awaiting.Done()
		poll := time.NewTicker(time.Millisecond)
		defer poll.Stop()
		for {
			if misowned, in := h.ownership(name); misowned == 0 && in == listed {
				break
			}
			select {
			case <-poll.C:
			case <-h.awaitCtx.Done():
				return
			}
		}
		h.convergeMu.Lock()
		h.converged = append(h.converged, convergence{event, time.Since(start)})
		h.convergeMu.Unlock()
	}()
}

// convergences lists the membership events whose shards have settled,
// with how long each took, in the order they settled.
func (h *Harness) convergences() []convergence {
	h.convergeMu.Lock()
	defer h.convergeMu.Unlock()
	return slices.Clone(h.converged)
}

// RepubStats sums every republisher's counters. The sim report reads the
// republishers' expositions instead; the benchmark still reads this.
func (h *Harness) RepubStats() (total repub.Stats) {
	for _, rr := range h.Repubs {
		total = addStats(total, rr.Gateway.Stats())
	}
	return total
}

// addStats adds b's counters to a's field by field, so a counter added to
// repub.Stats is summed with no change here. Every field is an integer.
func addStats(a, b repub.Stats) repub.Stats {
	sum, v := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < v.NumField(); i++ {
		sum.Field(i).SetInt(sum.Field(i).Int() + v.Field(i).Int())
	}
	return a
}

func fleetGroups() []string {
	var groups []string
	for g := range NewFleetDriver(nil).Schema().Groups {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	return groups
}

// KillSource marks a source dead; its connects, pings and queries fail
// until ReviveSource.
func (h *Harness) KillSource(url string) bool { return h.Fleet.SetDown(url, true) }

// ReviveSource brings a killed source back.
func (h *Harness) ReviveSource(url string) bool { return h.Fleet.SetDown(url, false) }

// PartitionSite drops (or heals) a site's HTTP traffic.
func (h *Harness) PartitionSite(site string, partitioned bool) bool {
	rt, ok := h.Sites[site]
	if !ok || rt.Server == nil {
		return false
	}
	rt.Server.SetDropped(partitioned)
	return true
}

// SetDirectoryDown drops (or heals) one directory replica's traffic.
func (h *Harness) SetDirectoryDown(i int, down bool) bool {
	if i < 0 || i >= len(h.Replicas) {
		return false
	}
	h.Replicas[i].Server.SetDropped(down)
	return true
}

// Close tears the harness down: registrars, site servers, gateways, then
// directory replicas. Safe on a partially-built harness.
func (h *Harness) Close() {
	if h.stopAwait != nil {
		h.stopAwait()
		h.awaiting.Wait()
	}
	for _, site := range h.SiteOrder {
		rt := h.Sites[site]
		if rt.Registrar != nil {
			rt.Registrar.Stop()
		}
	}
	for _, rr := range h.Repubs {
		rr.Gateway.Halt()
		rr.Server.Close()
	}
	for _, site := range h.SiteOrder {
		rt := h.Sites[site]
		if rt.Server != nil {
			rt.Server.Close()
		}
		rt.Gateway.Close()
	}
	for _, rep := range h.Replicas {
		rep.Server.Close()
	}
	if h.deadSink != nil {
		h.deadSink.Close()
	}
	if h.tmpRoot != "" {
		_ = os.RemoveAll(h.tmpRoot)
	}
}

// ChaosServer is an HTTP server whose traffic can be dropped at runtime:
// while dropped, every connection is severed without a response, the open
// ones (a /subscribe stream) included, which is what a network partition or
// a dead process looks like to clients — unlike httptest.Server, it can
// come back on the same address.
type ChaosServer struct {
	mu      sync.RWMutex // guards inner (swapped by SetHandler on restart) and conns
	inner   http.Handler
	conns   map[net.Conn]bool // open connections, for SetDropped to sever
	ln      net.Listener
	srv     *http.Server
	dropped atomic.Bool
}

// NewChaosServer starts a droppable server for the handler on an ephemeral
// localhost port.
func NewChaosServer(inner http.Handler) (*ChaosServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &ChaosServer{inner: inner, conns: make(map[net.Conn]bool), ln: ln}
	c.srv = &http.Server{Handler: c, ConnState: c.track}
	go func() { _ = c.srv.Serve(ln) }()
	return c, nil
}

// URL returns the server's base URL.
func (c *ChaosServer) URL() string { return "http://" + c.ln.Addr().String() }

// SetDropped severs (or restores) the server's traffic.
func (c *ChaosServer) SetDropped(dropped bool) {
	c.dropped.Store(dropped)
	if dropped {
		c.mu.RLock()
		defer c.mu.RUnlock()
		for conn := range c.conns {
			conn.Close()
		}
	}
}

// track keeps the set of open connections. A request's own transitions
// (active, idle) change nothing and take no lock.
func (c *ChaosServer) track(conn net.Conn, state http.ConnState) {
	if state == http.StateActive || state == http.StateIdle {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if state == http.StateNew {
		c.conns[conn] = true
	} else { // hijacked or closed
		delete(c.conns, conn)
	}
}

// SetHandler swaps the inner handler — the address survives a gateway
// restart, just like a process coming back on its configured port.
func (c *ChaosServer) SetHandler(inner http.Handler) {
	c.mu.Lock()
	c.inner = inner
	c.mu.Unlock()
}

// Dropped reports whether traffic is currently severed.
func (c *ChaosServer) Dropped() bool { return c.dropped.Load() }

// ServeHTTP implements http.Handler.
func (c *ChaosServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if c.dropped.Load() {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	}
	c.mu.RLock()
	inner := c.inner
	c.mu.RUnlock()
	inner.ServeHTTP(w, r)
}

// Close stops the server; in-flight connections are severed.
func (c *ChaosServer) Close() { _ = c.srv.Close() }
