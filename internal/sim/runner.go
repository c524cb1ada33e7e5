package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/web"
)

// RunOptions tunes a scenario run without editing the scenario.
type RunOptions struct {
	// Seed overrides the scenario's seed (0 keeps it). The whole run —
	// fleet, event targets, client query sequences — is a function of
	// (scenario, seed).
	Seed int64
	// Duration overrides the scenario's load duration (0 keeps it). Event
	// times scale proportionally, so a shortened CI run keeps the
	// scenario's shape: an event at 5s of 10s fires at 2.5s of 5s.
	Duration time.Duration
	// Log, when set, receives progress lines (the CLI's -v).
	Log func(format string, args ...any)
}

// Run executes a scenario end to end and returns its report. The report is
// produced even when assertions fail (Passed says which); an error means
// the run itself could not be performed.
func Run(sc *Scenario, opts RunOptions) (*Report, error) {
	seed := sc.Seed
	if opts.Seed != 0 {
		seed = opts.Seed
	}
	duration := sc.Duration
	if opts.Duration > 0 {
		duration = opts.Duration
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// One seeded source drives everything, consumed in a fixed order:
	// fleet generation, event-target resolution, then one child seed per
	// client. Replaying with the same (scenario, seed) replays the run.
	rng := rand.New(rand.NewSource(seed))
	h, err := NewHarness(sc, rng)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	logf("fleet up: %d sites, %d sources, %d hosts",
		len(h.SiteOrder), h.Fleet.TotalSources(), h.Fleet.TotalHosts())

	plan, err := PlanEvents(sc, h.Fleet, rng)
	if err != nil {
		return nil, err
	}
	scale := 1.0
	if duration != sc.Duration {
		scale = float64(duration) / float64(sc.Duration)
	}
	clientSeeds := make([]int64, sc.Load.Clients)
	for i := range clientSeeds {
		clientSeeds[i] = rng.Int63()
	}

	if err := prime(h); err != nil {
		return nil, fmt.Errorf("sim: priming pass: %w", err)
	}
	if sc.Load.Subscribers > 0 {
		if err := h.StartSubscribers(sc.Load.Subscribers, sc.Load.SubscriberSQL); err != nil {
			return nil, fmt.Errorf("sim: subscribers: %w", err)
		}
		logf("continuous queries: %d subscribers on %q", sc.Load.Subscribers, sc.Load.SubscriberSQL)
	}
	logf("fleet primed; running %d clients for %s (%d events planned)",
		sc.Load.Clients, duration, len(plan))

	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	var eventWG sync.WaitGroup
	eventWG.Add(1)
	go func() {
		defer eventWG.Done()
		for _, pe := range plan {
			at := time.Duration(float64(pe.At) * scale)
			wait := at - time.Since(start)
			if wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return
				}
			}
			if err := pe.Fire(h); err != nil {
				logf("event error: %v", err)
			} else {
				logf("event: %s", pe)
			}
		}
	}()

	workers := make([]*clientWorker, sc.Load.Clients)
	var wg sync.WaitGroup
	deadline := start.Add(duration)
	for i := range workers {
		w := newClientWorker(h, sc, clientSeeds[i])
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(ctx, deadline)
		}()
	}
	wg.Wait()
	cancel()
	eventWG.Wait()
	elapsed := time.Since(start)

	hist := newLatencyHistogram()
	var requests, errors int64
	for _, w := range workers {
		hist.merge(w.hist)
		requests += w.requests
		errors += w.errors
	}
	counters, metrics := h.scrapeCounters()

	r := &Report{
		Scenario:    sc.Name,
		Description: sc.Description,
		Seed:        seed,
		DurationMS:  float64(elapsed) / float64(time.Millisecond),
		Fleet: FleetSummary{
			Sites:   len(h.SiteOrder),
			Sources: h.Fleet.TotalSources(),
			Hosts:   h.Fleet.TotalHosts(),
		},
		Load: LoadSummary{
			Clients:       sc.Load.Clients,
			Transport:     sc.Load.Transport,
			Requests:      requests,
			Errors:        errors,
			ThroughputRPS: float64(requests) / elapsed.Seconds(),
		},
		Latency:  hist.summaries(),
		Counters: counters,
		Metrics:  metrics,
	}
	if requests > 0 {
		r.Load.ErrorRate = float64(errors) / float64(requests)
	}
	for _, pe := range plan {
		r.Events = append(r.Events, EventRecord{
			AtMs:    float64(time.Duration(float64(pe.At)*scale)) / float64(time.Millisecond),
			Action:  pe.Action,
			Targets: pe.Targets,
			Detail:  pe.Detail,
		})
	}
	r.Assertions = evalAssertions(sc, r)
	if h.Router != nil {
		// Every fan-out plan covers every site once: the entry router's
		// legs plus the entry's own leg cover the fleet exactly once.
		miscovered := h.planCoverage()
		r.Invariants = append(r.Invariants, AssertionResult{Name: "plan_covers_sites", Actual: float64(miscovered), OK: miscovered == 0})
	}
	if len(h.Repubs) > 0 {
		// Ownership conserves: every site is owned by exactly one
		// republisher once the run's membership events have settled.
		misowned, _ := h.ownership("")
		r.Invariants = append(r.Invariants, AssertionResult{Name: "repub_owns_partition", Actual: float64(misowned), OK: misowned == 0})
		for _, c := range h.convergences() {
			ms := float64(c.after) / float64(time.Millisecond)
			logf("republisher shards settled %.1fms after %s", ms, c.event)
			r.RepubConvergeMS = max(r.RepubConvergeMS, ms)
		}
	}
	r.Passed = true
	for _, a := range append(r.Assertions, r.Invariants...) {
		if !a.OK {
			r.Passed = false
		}
	}
	return r, nil
}

// prime runs one clean real-time pass against every gateway so caches and
// the historical store hold a good sample before any fault fires — the
// degradation ladder has something to fall back on, as a warmed production
// gateway would.
func prime(h *Harness) error {
	for _, site := range h.SiteOrder {
		gw := h.SiteGateway(site)
		for _, table := range []string{"Processor", "Memory"} {
			_, err := gw.QueryContext(context.Background(), core.QueryOptions{
				Principal: SimPrincipal,
				SQL:       "SELECT * FROM " + table,
				Mode:      core.ModeRealTime,
			})
			if err != nil {
				return fmt.Errorf("%s: %w", site, err)
			}
		}
	}
	return nil
}

// clientWorker is one load generator: its own rng (seeded from the root),
// its own latency histogram, merged after the run.
type clientWorker struct {
	h    *Harness
	sc   *Scenario
	rng  *rand.Rand
	hist *latencyHistogram

	httpClient *web.Client
	mixPick    func(*rand.Rand) MixEntry
	sitePick   func(*rand.Rand) string // weighted remote site, "" when none
	entryURLs  []string                // entry-site source URLs for subsetting

	requests int64
	errors   int64
}

func newClientWorker(h *Harness, sc *Scenario, seed int64) *clientWorker {
	w := &clientWorker{
		h:       h,
		sc:      sc,
		rng:     rand.New(rand.NewSource(seed)),
		hist:    newLatencyHistogram(),
		mixPick: mixPicker(sc.Load.Mix),
	}
	if sc.Load.Transport == "http" {
		w.httpClient = &web.Client{BaseURL: h.Entry.Server.URL(), Principal: SimPrincipal}
	}
	w.sitePick = remoteSitePicker(sc, h.Entry.Name)
	for _, src := range h.Fleet.SiteSources(h.Entry.Name) {
		w.entryURLs = append(w.entryURLs, src.URL)
	}
	return w
}

// mixPicker builds a weighted chooser over the mix entries.
func mixPicker(mix []MixEntry) func(*rand.Rand) MixEntry {
	total := 0
	for _, m := range mix {
		total += m.Weight
	}
	return func(rng *rand.Rand) MixEntry {
		n := rng.Intn(total)
		for _, m := range mix {
			n -= m.Weight
			if n < 0 {
				return m
			}
		}
		return mix[len(mix)-1]
	}
}

// remoteSitePicker builds a template-weight-weighted chooser over the
// non-entry sites.
func remoteSitePicker(sc *Scenario, entry string) func(*rand.Rand) string {
	var sites []string
	var weights []int
	total := 0
	for _, tpl := range sc.Fleet.Sites {
		for _, site := range tpl.Instances() {
			if site == entry || tpl.Weight == 0 {
				continue
			}
			sites = append(sites, site)
			weights = append(weights, tpl.Weight)
			total += tpl.Weight
		}
	}
	return func(rng *rand.Rand) string {
		if total == 0 {
			return ""
		}
		n := rng.Intn(total)
		for i, site := range sites {
			n -= weights[i]
			if n < 0 {
				return site
			}
		}
		return sites[len(sites)-1]
	}
}

func (w *clientWorker) run(ctx context.Context, deadline time.Time) {
	for ctx.Err() == nil && time.Now().Before(deadline) {
		mix := w.mixPick(w.rng)
		req := w.buildRequest(mix)
		label := mix.Label()
		begin := time.Now()
		err := w.execute(req)
		w.hist.record(label, time.Since(begin))
		w.requests++
		if err != nil {
			w.errors++
		}
		if w.sc.Load.ThinkTime > 0 {
			select {
			case <-time.After(w.sc.Load.ThinkTime):
			case <-ctx.Done():
			}
		}
	}
}

func (w *clientWorker) buildRequest(mix MixEntry) core.QueryOptions {
	sql := "SELECT * FROM " + mix.Table
	if mix.SQL != "" {
		sql = mix.SQL
	}
	req := core.QueryOptions{
		Principal: SimPrincipal,
		SQL:       sql,
		Mode:      queryMode(mix.Mode),
	}
	switch mix.Scope {
	case ScopeRemote:
		req.Site = w.sitePick(w.rng)
	case ScopeFanout:
		req.Site = core.AllSites
	}
	if n := w.sc.Load.SourcesPerQuery; n > 0 && req.Site == "" {
		if mix.Mode == "historical" {
			n = 1 // historical queries accept at most one source filter
		}
		req.Sources = w.pickSources(n)
	}
	return req
}

// pickSources draws n distinct entry-site source URLs.
func (w *clientWorker) pickSources(n int) []string {
	if n >= len(w.entryURLs) {
		return append([]string(nil), w.entryURLs...)
	}
	picked := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for len(picked) < n {
		i := w.rng.Intn(len(w.entryURLs))
		if !seen[i] {
			seen[i] = true
			picked = append(picked, w.entryURLs[i])
		}
	}
	return picked
}

func (w *clientWorker) execute(req core.QueryOptions) error {
	ctx := context.Background()
	if w.httpClient != nil {
		_, err := w.httpClient.Query(ctx, req)
		return err
	}
	_, err := w.h.EntryGateway().QueryContext(ctx, req)
	return err
}

func queryMode(mode string) core.Mode {
	switch mode {
	case "real-time":
		return core.ModeRealTime
	case "historical":
		return core.ModeHistorical
	default:
		return core.ModeCached
	}
}
