package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/router"
	"gridrm/internal/sim"
	"gridrm/internal/web"
)

// class labels a request by the route its answer takes through the gateway;
// the per-class latencies say which class a mixed p50/p95 is sitting in.
type class int

const (
	cachedRaw class = iota
	cachedFilter
	realtime
	cachedMiss // cached-mode query that had to harvest at least one source
	historical
	remote
	fanoutRaw
	fanoutAgg
	numClasses
)

var classNames = [numClasses]string{
	"cached_raw", "cached_filter", "realtime", "cached_miss",
	"historical", "remote", "fanout_raw", "fanout_agg",
}

// The SQL the workloads send. filterLoad is the WHERE threshold of the
// projection query; loadWobble is how far the fleet driver lets a host's
// load rise above its source's BaseLoad (0.1 * (n % 5)).
const (
	sqlRaw     = "SELECT * FROM Processor"
	sqlFilter  = "SELECT HostName, LoadLast1Min FROM Processor WHERE LoadLast1Min > 2 ORDER BY LoadLast1Min DESC"
	sqlAggLoad = "SELECT count(*), avg(LoadLast1Min) FROM Processor"
	sqlAggRAM  = "SELECT RAMSize, count(*), sum(RAMAvailable) FROM Memory GROUP BY RAMSize"
	filterLoad = 2.0
	loadWobble = 0.4

	subsetSize      = 8                // sources per local query
	histStep        = time.Second      // spacing of the backdated history samples
	histWindow      = 50               // samples a historical query ranges over
	streamLen       = 1 << 15          // requests generated per client; the stream wraps
	fullCheckEvery  = 16               // 1-in-16 requests get the oracle's full check
	selectiveSubs   = 32               // in-process continuous queries of subscribe_push
	recoveryTimeout = 30 * time.Second // give-up for the first answer after a restart
	settlePatience  = 3 * time.Second  // a federation not whole by then is rebuilt; it settles in ~0.2 s
	settleAttempts  = 4
)

// request is one generated client query plus what the oracle needs to score
// its answer: the class, the sources it touches and whether it drew the
// full check.
type request struct {
	opts core.QueryOptions
	cls  class
	srcs []*sim.FleetSource // local subset queries and historical
	site string             // remote queries: the target site
	full bool
}

// workload is one named traffic mix over one fleet shape. rateQPS is the
// open-phase arrival rate: a constant set once to about half the seed
// commit's closed-loop throughput and never re-derived at run time, so the
// open-loop latencies of two commits are measured under the same load.
type workload struct {
	name    string
	rateQPS float64
	clients int // polling clients, one keep-alive connection each
	// scenario builds the fleet; scale < 1 shrinks it for the smoke test.
	scenario func(scale float64) *sim.Scenario
	// preload is the backdated history samples per Processor key.
	preload int
	// push attaches subscribe_push's consumers before the timed phases.
	push bool
	// gen draws one request from the client's seeded rng.
	gen func(rt *testbed, rng *rand.Rand) request
}

func scaled(n int, scale float64, floor int) int {
	if m := int(float64(n) * scale); m > floor {
		return m
	}
	return floor
}

var workloads = []*workload{
	{
		name: "cached_dashboard", rateQPS: 2000, clients: 2,
		scenario: func(scale float64) *sim.Scenario {
			return &sim.Scenario{Name: "cached_dashboard", Duration: time.Second,
				Fleet: sim.FleetSpec{Sites: []sim.SiteTemplate{{
					Name: "dash", Count: 1, Sources: scaled(5000, scale, 64), Hosts: 1,
					CacheTTL: 10 * time.Minute, DisableHistory: true,
				}}},
				Load: sim.LoadSpec{Clients: 2, Transport: "http"},
			}
		},
		gen: func(rt *testbed, rng *rand.Rand) request {
			pool := rt.hot
			if rng.Intn(10) == 0 {
				pool = rt.entry // the cold tail: the whole fleet
			}
			r := request{srcs: pickSources(rng, pool, subsetSize), cls: cachedRaw}
			r.opts = core.QueryOptions{SQL: sqlRaw, Sources: urls(r.srcs)}
			if rng.Intn(10) < 3 {
				r.cls, r.opts.SQL = cachedFilter, sqlFilter
			}
			return r
		},
	},
	{
		name: "harvest_history", rateQPS: 1000, clients: 2, preload: 500,
		scenario: func(scale float64) *sim.Scenario {
			return &sim.Scenario{Name: "harvest_history", Duration: time.Second,
				Fleet: sim.FleetSpec{Sites: []sim.SiteTemplate{{
					Name: "store", Count: 1, Sources: scaled(400, scale, 16), Hosts: 2,
					CacheTTL: 100 * time.Millisecond, DurableHistory: true, HistoryFsync: "interval",
				}}},
				Load: sim.LoadSpec{Clients: 2, Transport: "http"},
			}
		},
		gen: func(rt *testbed, rng *rand.Rand) request {
			switch n := rng.Intn(10); {
			case n < 4:
				r := request{srcs: pickSources(rng, rt.entry, subsetSize), cls: realtime}
				r.opts = core.QueryOptions{SQL: sqlRaw, Sources: urls(r.srcs), Mode: core.ModeRealTime}
				return r
			case n < 6:
				r := request{srcs: pickSources(rng, rt.entry, subsetSize), cls: cachedRaw}
				r.opts = core.QueryOptions{SQL: sqlRaw, Sources: urls(r.srcs)}
				return r
			default:
				r := request{srcs: pickSources(rng, rt.entry, 1), cls: historical}
				r.opts = core.QueryOptions{SQL: sqlRaw, Sources: urls(r.srcs), Mode: core.ModeHistorical,
					Since: rt.histSince, Until: rt.histUntil}
				return r
			}
		},
	},
	{
		name: "federated_tree", rateQPS: 250, clients: 2,
		scenario: func(scale float64) *sim.Scenario {
			leaf := scaled(50, scale, 2)
			return &sim.Scenario{Name: "federated_tree", Duration: time.Second,
				Fleet: sim.FleetSpec{Sites: []sim.SiteTemplate{
					{Name: "hub", Count: 1, Sources: leaf, Hosts: 2, Weight: 1, CacheTTL: 10 * time.Minute},
					{Name: "leaf", Count: 8, Sources: leaf, Hosts: 2, Weight: 1, CacheTTL: 10 * time.Minute},
				}},
				// The intervals are the ones scenarios/federated_tree.yaml runs with.
				Federation: sim.FederationSpec{Enabled: true, Directories: 1, EntrySite: "hub",
					LookupTTL: 250 * time.Millisecond, RetryAttempts: 1, Republishers: 2,
					RepubRefresh: 200 * time.Millisecond, RepubScrape: 300 * time.Millisecond},
				Load: sim.LoadSpec{Clients: 2, Transport: "http"},
			}
		},
		gen: func(rt *testbed, rng *rand.Rand) request {
			switch n := rng.Intn(20); {
			case n < 8:
				site := rt.leaves[rng.Intn(len(rt.leaves))]
				return request{cls: remote, site: site,
					opts: core.QueryOptions{SQL: sqlRaw, Site: site}}
			case n < 14:
				return request{cls: fanoutRaw, opts: core.QueryOptions{SQL: sqlRaw, Site: core.AllSites}}
			case n < 17:
				return request{cls: fanoutAgg, opts: core.QueryOptions{SQL: sqlAggLoad, Site: core.AllSites}}
			default:
				return request{cls: fanoutAgg, opts: core.QueryOptions{SQL: sqlAggRAM, Site: core.AllSites}}
			}
		},
	},
	{
		name: "subscribe_push", rateQPS: 350, clients: 1, push: true,
		scenario: func(scale float64) *sim.Scenario {
			return &sim.Scenario{Name: "subscribe_push", Duration: time.Second,
				Fleet: sim.FleetSpec{Sites: []sim.SiteTemplate{{
					Name: "push", Count: 1, Sources: scaled(200, scale, 16), Hosts: 2,
				}}},
				Load: sim.LoadSpec{Clients: 1, Transport: "http"},
			}
		},
		gen: func(rt *testbed, rng *rand.Rand) request {
			r := request{srcs: pickSources(rng, rt.entry, subsetSize), cls: realtime}
			r.opts = core.QueryOptions{SQL: sqlRaw, Sources: urls(r.srcs), Mode: core.ModeRealTime}
			return r
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// pickSources draws n distinct sources from pool.
func pickSources(rng *rand.Rand, pool []*sim.FleetSource, n int) []*sim.FleetSource {
	if n >= len(pool) {
		return pool
	}
	picked := make([]*sim.FleetSource, 0, n)
	seen := make(map[int]bool, n)
	for len(picked) < n {
		if i := rng.Intn(len(pool)); !seen[i] {
			seen[i] = true
			picked = append(picked, pool[i])
		}
	}
	return picked
}

func urls(srcs []*sim.FleetSource) []string {
	out := make([]string, len(srcs))
	for i, s := range srcs {
		out[i] = s.URL
	}
	return out
}

// testbed is one set-up workload: the running stacks, the fleet indexes the
// generator and the oracle read, and the push consumers of subscribe_push.
type testbed struct {
	w      *workload
	h      *sim.Harness
	truth  *truth
	entry  []*sim.FleetSource // entry-site sources, seeded shuffle
	hot    []*sim.FleetSource // cached_dashboard's hot set: the first fifth of entry
	leaves []string           // non-entry sites

	histSince, histUntil time.Time // the historical queries' fixed window
	preloadBytes         uint64    // heap growth across the history preload
	preloaded            int

	push *pushConsumers // nil except on subscribe_push
}

func (rt *testbed) Close() {
	if rt.push != nil {
		rt.push.stop()
	}
	rt.h.Close()
}

// setUp builds the workload's fleet and brings it to the state the timed
// phases assume: history preloaded, caches primed, every republisher view
// live, push consumers attached. It is the work setup_s times.
//
// A federation that does not settle is torn down and rebuilt. About one
// set-up in several hundred wedges: a republisher's first scrape of a site
// times out part-way, the partial rows are stored as the site's snapshot, and
// because the site's cache is warm by then no harvest ever pushes the missing
// rows (see README, "What building this found").
func setUp(w *workload, seed int64, scale float64) (*testbed, error) {
	for attempt := 1; ; attempt++ {
		rt, err := setUpOnce(w, seed, scale)
		if !errors.Is(err, errNotSettled) || attempt == settleAttempts {
			return rt, err
		}
	}
}

var errNotSettled = errors.New("federation did not settle")

func setUpOnce(w *workload, seed int64, scale float64) (*testbed, error) {
	sc := w.scenario(scale)
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	h, err := sim.NewHarness(sc, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	rt := &testbed{w: w, h: h, truth: newTruth(h.Fleet)}
	ok := false
	defer func() {
		if !ok {
			rt.Close()
		}
	}()
	rt.entry = append(rt.entry, h.Fleet.SiteSources(h.Entry.Name)...)
	rand.New(rand.NewSource(seed^0x5eed)).Shuffle(len(rt.entry), func(i, j int) {
		rt.entry[i], rt.entry[j] = rt.entry[j], rt.entry[i]
	})
	rt.hot = rt.entry[:len(rt.entry)/5]
	for _, site := range h.SiteOrder {
		if site != h.Entry.Name {
			rt.leaves = append(rt.leaves, site)
		}
	}
	if w.preload > 0 {
		if err := rt.preloadHistory(scaled(w.preload, scale, histWindow+10)); err != nil {
			return nil, err
		}
	}
	if sc.Federation.Enabled {
		if err := rt.settleFederation(); err != nil {
			return nil, err
		}
	} else if err := rt.prime(); err != nil {
		return nil, err
	}
	if w.push {
		if rt.push, err = startPushConsumers(rt); err != nil {
			return nil, err
		}
	}
	ok = true
	return rt, nil
}

// prime harvests Processor once from every entry-site source so cached
// queries have something to hit. Memory stays cold on purpose: on
// cached_dashboard that leaves one cache key per source, 5,000 keys against
// qcache's 4,096 entries.
func (rt *testbed) prime() error {
	resp, err := rt.h.EntryGateway().QueryContext(context.Background(), core.QueryOptions{
		Principal: sim.SimPrincipal, SQL: sqlRaw, Mode: core.ModeRealTime,
	})
	if err != nil {
		return fmt.Errorf("prime: %w", err)
	}
	if want := rt.truth.siteHosts[rt.h.Entry.Name]; resp.ResultSet.Len() != want {
		return fmt.Errorf("prime: %d rows, want %d", resp.ResultSet.Len(), want)
	}
	return nil
}

// preloadHistory journals n backdated Processor samples per source through
// the durable store, one histStep apart and all older than the anchor, so a
// historical query over a fixed window has an exactly known answer however
// many live samples the run appends behind it.
func (rt *testbed) preloadHistory(n int) error {
	store := rt.h.EntryGateway().DurableHistory()
	if store == nil {
		return fmt.Errorf("preload: %s has no durable history", rt.w.name)
	}
	before := heapAlloc()
	anchor := time.Now().Add(-time.Minute).Truncate(time.Second)
	for _, src := range rt.entry {
		// The fleet driver's load takes five values; build each shape once.
		var shapes [5]*resultset.ResultSet
		for v := range shapes {
			var err error
			if shapes[v], err = processorRows(src, src.BaseLoad+0.1*float64(v)); err != nil {
				return err
			}
		}
		for k := n; k >= 1; k-- {
			at := anchor.Add(-time.Duration(k) * histStep)
			if err := store.Record(src.URL, glue.GroupProcessor, shapes[k%5], at); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
		}
	}
	rt.preloaded = n * len(rt.entry)
	rt.preloadBytes = heapAlloc() - before
	rt.histUntil = anchor.Add(-histStep / 2)
	rt.histSince = rt.histUntil.Add(-histWindow * histStep)
	return nil
}

// settleFederation waits until the tree is whole: every site owned by a
// republisher, every owned site fed by a live subscription, every host of
// both groups in a view, and an all-sites count answered over exactly one
// region leg per republisher. The scrapes that fill the views also prime
// every leaf's cache.
func (rt *testbed) settleFederation() error {
	h := rt.h
	wantRows := 2 * h.Fleet.TotalHosts() // Processor and Memory
	deadline := time.Now().Add(settlePatience)
	for {
		owned := 0
		for _, rr := range h.Repubs {
			owned += len(rr.Gateway.Owns())
		}
		st := h.RepubStats()
		if owned == len(h.SiteOrder) && st.StoredRows == wantRows && int(st.Subscriptions) >= owned {
			resp, err := h.EntryGateway().QueryContext(context.Background(), core.QueryOptions{
				Principal: sim.SimPrincipal, SQL: sqlAggLoad, Site: core.AllSites,
			})
			if err == nil && regionLegs(resp) == len(h.Repubs) && rt.truth.checkAggLoad(resp.ResultSet) == "" {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %d/%d sites owned, %d/%d view rows",
				errNotSettled, owned, len(h.SiteOrder), st.StoredRows, wantRows)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Warm the hub's own Memory leg; Processor was warmed by the count above.
	_, err := h.EntryGateway().QueryContext(context.Background(), core.QueryOptions{
		Principal: sim.SimPrincipal, SQL: sqlAggRAM, Site: core.AllSites,
	})
	return err
}

// processorRows builds one source's Processor rows in the canonical
// full-group shape a harvest produces, every host at the given load.
func processorRows(src *sim.FleetSource, load float64) (*resultset.ResultSet, error) {
	meta, err := resultset.MetadataForGroup(glue.Processor, nil)
	if err != nil {
		return nil, err
	}
	hostCol, loadCol := glue.Processor.FieldIndex("HostName"), glue.Processor.FieldIndex("LoadLast1Min")
	b := resultset.NewBuilder(meta)
	for _, h := range src.Hosts {
		row := make([]any, len(glue.Processor.Fields))
		row[hostCol], row[loadCol] = h, load
		b.Append(row...)
	}
	return b.Build()
}

// regionLegs counts the republisher legs that answered an all-sites query.
func regionLegs(resp *core.Response) int {
	n := 0
	for _, st := range resp.Sources {
		if strings.HasPrefix(st.Source, "repub:") && st.Err == "" {
			n++
		}
	}
	return n
}

// stream generates one client's request sequence from the seed. The
// gateway sees only the generated core.QueryOptions.
func (rt *testbed) stream(seed int64, client int) []request {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	out := make([]request, streamLen)
	for i := range out {
		out[i] = rt.w.gen(rt, rng)
		out[i].opts.Principal = sim.SimPrincipal
		out[i].full = rng.Intn(fullCheckEvery) == 0
	}
	return out
}

// pushConsumers is subscribe_push's delivery side: one SSE subscription
// over HTTP (the workload's second connection) read by its own goroutine,
// selectiveSubs in-process continuous queries drained by one goroutine, and
// a JSONL file sink. Rows are scored against the fleet as they arrive;
// the tallies are read only after stop.
type pushConsumers struct {
	rt        *testbed
	sse       *web.ClientSubscription
	subs      []*router.Subscription
	sinkPath  string
	done      chan struct{}
	wg        sync.WaitGroup
	recording atomic.Bool

	lags         []time.Duration // SSE rows: receipt time - Metric.Time
	sseTally     pushTally
	inprocTally  pushTally
	recordedFrom time.Time
	recordedFor  time.Duration
}

// pushTally is one drain goroutine's score sheet.
type pushTally struct {
	rows, failures int64
	firstBad       string
}

func (t *pushTally) score(tr *truth, m router.Metric) {
	t.rows++
	if why := tr.checkPushed(m, t.rows%fullCheckEvery == 0); why != "" {
		t.failures++
		if t.firstBad == "" {
			t.firstBad = why
		}
	}
}

func startPushConsumers(rt *testbed) (*pushConsumers, error) {
	gw := rt.h.EntryGateway()
	pc := &pushConsumers{rt: rt, done: make(chan struct{})}
	pc.sinkPath = filepath.Join(os.TempDir(), fmt.Sprintf("gridrm-bench-sink-%d.jsonl", time.Now().UnixNano()))
	sink, err := router.NewFileSink(pc.sinkPath)
	if err != nil {
		return nil, err
	}
	if err := gw.PushRouter().AddSink(sink, router.SinkOptions{}); err != nil {
		return nil, err
	}
	// Predicate i passes the rows of roughly the i+2 most loaded sources.
	// Thresholds are taken from this fleet's own ranking, so the share of
	// rows pushed does not move with the seed.
	loads := make([]float64, len(rt.entry))
	for i, src := range rt.entry {
		loads[i] = src.BaseLoad
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(loads)))
	for i := 0; i < selectiveSubs; i++ {
		sql := fmt.Sprintf("SELECT * FROM Processor WHERE LoadLast1Min > %.3f", loads[(i+2)%len(loads)])
		sub, err := gw.Subscribe(context.Background(), core.QueryOptions{Principal: sim.SimPrincipal, SQL: sql})
		if err != nil {
			return nil, err
		}
		pc.subs = append(pc.subs, sub)
	}
	client := &web.Client{BaseURL: rt.h.Entry.Server.URL(), Principal: sim.SimPrincipal}
	pc.sse, err = client.SubscribeContext(context.Background(), web.SubscribeConfig{
		Query: core.QueryOptions{SQL: sqlRaw}, Buffer: 1024,
	})
	if err != nil {
		return nil, err
	}
	pc.wg.Add(2)
	go pc.drainSSE()
	go pc.drainInproc()
	return pc, nil
}

func (pc *pushConsumers) drainSSE() {
	defer pc.wg.Done()
	for {
		select {
		case <-pc.done:
			return
		case <-pc.sse.Done():
			return
		case m := <-pc.sse.C():
			if pc.recording.Load() {
				pc.lags = append(pc.lags, time.Since(m.Time))
				pc.sseTally.score(pc.rt.truth, m)
			}
		}
	}
}

// drainInproc is the single goroutine behind every selective subscription.
func (pc *pushConsumers) drainInproc() {
	defer pc.wg.Done()
	cases := make([]reflect.SelectCase, 0, len(pc.subs)+1)
	cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(pc.done)})
	for _, sub := range pc.subs {
		cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(sub.C())})
	}
	for {
		i, v, _ := reflect.Select(cases)
		if i == 0 {
			return
		}
		if pc.recording.Load() {
			pc.inprocTally.score(pc.rt.truth, v.Interface().(router.Metric))
		}
	}
}

// record switches scoring and lag collection on for a measured phase.
func (pc *pushConsumers) record(on bool) {
	if on {
		pc.recordedFrom = time.Now()
	} else if pc.recording.Load() {
		pc.recordedFor += time.Since(pc.recordedFrom)
	}
	pc.recording.Store(on)
}

// stop ends both drain goroutines; the tallies are safe to read afterwards.
func (pc *pushConsumers) stop() {
	select {
	case <-pc.done:
		return
	default:
	}
	pc.record(false)
	close(pc.done)
	pc.wg.Wait()
	pc.sse.Close()
	for _, s := range pc.subs {
		s.Close()
	}
	_ = os.Remove(pc.sinkPath)
}
