package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"gridrm/internal/core"
)

// metrics is every number one run measured, by name. Which of them a run
// prints is BENCHMARK.json's business, not this file's: moving a metric
// between end_to_end and per_layer there needs no change here.
type metrics map[string]float64

// runConfig is one run of one workload.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64 // measured time: a third closed loop, two thirds open loop, in rounds
	traced  bool
	corrupt bool

	scale       float64       // fleet size factor; 1 except in the smoke test
	setups      int           // set-up is repeated at least this often and its median reported
	setupBudget time.Duration // and more often while the repetitions fit in this
	warmup      time.Duration // un-timed closed loop before the rounds
	probeIters  int
	outDir      string // where a traced run writes its spans
}

func defaultConfig(w *workload, seed int64, seconds float64, traced bool) runConfig {
	cfg := runConfig{w: w, seed: seed, seconds: seconds, traced: traced, scale: 1, setups: 3,
		setupBudget: time.Second, warmup: 2 * time.Second, probeIters: 1000, outDir: resultsDir}
	if traced {
		// A traced run is not gated on setup_s; one set-up buys the time its
		// untraced reference bursts and the probes need.
		cfg.setups = 1
	}
	return cfg
}

// maxSetups caps how often a cheap set-up is repeated within its budget.
const maxSetups = 25

// someWorkloadsOnly are the metrics only some workloads (or only traced
// runs) produce; the others report them as 0 so every run prints every name.
var someWorkloadsOnly = []string{
	"push_lag_p50_ms", "push_lag_p95_ms", "push_rows_per_s", "web.sse_rows",
	"restart_recovery_s", "tsdb.restore_s", "tsdb.replayed_records", "tsdb.checkpoint_s",
	"history.bytes_per_sample", "web.admission_shed", "web.share_us", "trace.accounted_share",
	"gma.fanout_plan_us", "gma.ring_assign_us", "gma.dir_lookup_us", "repub.region_query_us",
}

// outcome is what a run reports besides its metrics.
type outcome struct {
	metrics   metrics
	attempted int
	failed    int
	defects   []string
	tracePath string
}

func run(cfg runConfig) (*outcome, error) {
	rt, setupSeconds, err := setUpRepeatedly(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer rt.Close()
	m := metrics{"setup_s": setupSeconds}
	for _, name := range someWorkloadsOnly {
		m[name] = 0
	}
	clients := make([]*client, cfg.w.clients)
	for i := range clients {
		clients[i] = newClient(i, rt.h.Entry.Server.URL(), rt.stream(cfg.seed, i))
		defer clients[i].close()
	}
	(&phase{rt: rt, clients: clients, dur: cfg.warmup}).run()

	var root *spanLog // nil on untraced runs
	var logs []*spanLog
	if cfg.traced {
		t0 := time.Now()
		root = newSpanLog(t0, len(clients))
		logs = append(logs, root)
		for _, c := range clients {
			c.spans = newSpanLog(t0, c.id)
			logs = append(logs, c.spans)
		}
	}
	ms, err := measure(cfg, rt, clients, root)
	if err != nil {
		return nil, err
	}
	ms.report(cfg, m)
	out := &outcome{metrics: m}
	out.attempted = len(ms.closed) + len(ms.open)
	out.failed = countFailed(ms.closed) + countFailed(ms.open)
	for _, c := range clients {
		out.defects = append(out.defects, c.failed...)
	}
	m["heap_live_mb"] = float64(heapAlloc()) / (1 << 20)
	m["runtime.goroutines_end"] = float64(runtime.NumGoroutine())

	if cfg.traced {
		if st, err := clients[0].web.Status(context.Background()); err == nil && st.Admission != nil {
			m["web.admission_shed"] = float64(st.Admission.Shed)
		}
		_, end := root.begin("probe")
		if err := probe(rt, ms.pairs, cfg.probeIters, m); err != nil {
			return nil, err
		}
		end()
		// Medians over the pairs: a mean would be the GC stalls' share.
		m["web.share_us"] = median(ms.pairs.webShare)
		m["trace.accounted_share"] = median(ms.pairs.accounted)
	}

	// harvest_history ends with a crash-restart on its durable directory.
	if rt.h.EntryGateway().DurableHistory() != nil {
		_, end := root.begin("restart")
		bad, err := restart(rt, clients[0], m)
		if err != nil {
			return nil, err
		}
		end()
		out.attempted++
		if bad != "" {
			out.failed++
			out.defects = append(out.defects, "after restart: "+bad)
		}
	}
	if pc := rt.push; pc != nil {
		pc.stop() // the tallies are the drain goroutines' until they exit
		pushMetrics(pc, m)
		out.attempted += int(pc.sseTally.rows + pc.inprocTally.rows)
		out.failed += int(pc.sseTally.failures + pc.inprocTally.failures)
		for _, bad := range []string{pc.sseTally.firstBad, pc.inprocTally.firstBad} {
			if bad != "" {
				out.defects = append(out.defects, "push: "+bad)
			}
		}
	}
	m["failed_share"] = float64(out.failed) / float64(out.attempted)

	if cfg.traced {
		if out.tracePath, err = writeTrace(cfg.outDir, cfg.w.name, logs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// setUpRepeatedly times set-up over several repetitions and returns the last
// testbed with the median: at least cfg.setups of them, and more while they
// are cheap, because a set-up of a few milliseconds is all jitter.
func setUpRepeatedly(cfg runConfig) (*testbed, float64, error) {
	var rt *testbed
	var took []float64
	for spent := time.Duration(0); len(took) < cfg.setups || (spent < cfg.setupBudget && len(took) < maxSetups); {
		if rt != nil {
			rt.Close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if rt, err = setUp(cfg.w, cfg.seed, cfg.scale); err != nil {
			return nil, 0, err
		}
		took = append(took, time.Since(start).Seconds())
		spent += time.Since(start)
	}
	return rt, median(took), nil
}

// measured is what the rounds of one run produced.
type measured struct {
	closed, open  []sample  // every recorded request of the closed bursts / open phases
	burstQPS      []float64 // correct answers per second, per closed burst
	untracedQPS   []float64 // traced runs: the same per untraced reference burst
	calibration   []float64 // host calibration per round, ms of CPU
	openStats     phaseStats
	before, after counters
	pairs         *captured
}

// measure spends cfg.seconds in rounds of one closed burst and an open phase
// twice as long. The stack's capacity drifts between regimes that last
// seconds (GC pacing, which goroutine shares a core with which, the host);
// bursts spread over the run sample more of them than one long phase would.
func measure(cfg runConfig, rt *testbed, clients []*client, root *spanLog) (*measured, error) {
	rounds := int(cfg.seconds / 3)
	if rounds < 1 {
		rounds = 1
	}
	burst := time.Duration(cfg.seconds / 3 / float64(rounds) * float64(time.Second))
	calibration, err := newCalibrator(runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	defer calibration.close()
	ms := &measured{pairs: &captured{}, before: readCounters(rt)}
	for r := 0; r < rounds; r++ {
		ms.calibration = append(ms.calibration, float64(calibration.run())/float64(time.Millisecond))
		if cfg.traced {
			// The same burst untraced: what tracing costs is taken against it.
			(&phase{rt: rt, clients: clients, dur: burst, record: true}).run()
			ms.untracedQPS = append(ms.untracedQPS, correctPerSecond(drain(clients), burst))
		}
		// Closed loop: how much the stack can take.
		closed := &phase{rt: rt, clients: clients, dur: burst, record: true, corrupt: cfg.corrupt && r == 0}
		if cfg.traced {
			closed.pairInto = ms.pairs
		}
		var end func()
		closed.spanID, end = root.begin("phase.closed")
		closed.run()
		end()
		samples := drain(clients)
		ms.burstQPS = append(ms.burstQPS, correctPerSecond(samples, burst))
		ms.closed = append(ms.closed, samples...)

		// Open loop at the workload's frozen rate: what a client waits. Nothing
		// is paired here, so a traced run's latencies stay close to an untraced one's.
		if rt.push != nil {
			rt.push.record(true)
		}
		open := &phase{rt: rt, clients: clients, dur: 2 * burst, rate: cfg.w.rateQPS, record: true}
		open.spanID, end = root.begin("phase.open")
		st := open.run()
		end()
		if rt.push != nil {
			rt.push.record(false)
		}
		ms.openStats.add(st)
		ms.open = append(ms.open, drain(clients)...)
	}
	ms.after = readCounters(rt)
	return ms, nil
}

// report turns the rounds into metrics.
func (ms *measured) report(cfg runConfig, m metrics) {
	m["throughput_qps"] = median(ms.burstQPS)
	m["runtime.calibration_ms"] = median(ms.calibration)
	if cfg.traced {
		// Report what the stack takes untraced; the traced bursts only say
		// what tracing costs.
		m["throughput_qps"] = median(ms.untracedQPS)
		m["trace.overhead_share"] = 1 - median(ms.burstQPS)/median(ms.untracedQPS)
	}
	m["latency_p50_ms"] = latencyMS(ms.open, 0.50, anyLatency)
	m["latency_p95_ms"] = latencyMS(ms.open, 0.95, anyLatency)
	m["client.latency_p99_ms"] = latencyMS(ms.open, 0.99, anyLatency)
	m["client.latency_max_ms"] = latencyMS(ms.open, 1, anyLatency)
	m["loadgen.late_p95_ms"] = latencyMS(ms.open, 0.95, lateness)
	m["loadgen.sent"] = float64(len(ms.closed) + len(ms.open))
	for c := class(0); c < numClasses; c++ {
		m["client."+classNames[c]+".p50_ms"] = latencyMS(ms.open, 0.50, classLatency(c))
		m["client."+classNames[c]+".p95_ms"] = latencyMS(ms.open, 0.95, classLatency(c))
	}
	if n := float64(len(ms.open)); n > 0 {
		m["cpu_ms_per_query"] = float64(ms.openStats.cpu) / float64(time.Millisecond) / n
		m["alloc_kb_per_query"] = float64(ms.openStats.allocBytes) / 1024 / n
		m["allocs_per_query"] = float64(ms.openStats.allocs) / n
		m["harvests_per_query"] = float64(ms.openStats.harvests) / n
	}
	layerCounters(ms.before, ms.after, m)
	m["repub.view_rows"] = float64(ms.after.repub.StoredRows)
}

func pushMetrics(pc *pushConsumers, m metrics) {
	ms := make([]float64, len(pc.lags))
	for i, d := range pc.lags {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	m["push_lag_p50_ms"] = quantileSorted(ms, 0.50)
	m["push_lag_p95_ms"] = quantileSorted(ms, 0.95)
	if secs := pc.recordedFor.Seconds(); secs > 0 {
		m["push_rows_per_s"] = float64(pc.sseTally.rows+pc.inprocTally.rows) / secs
	}
	m["web.sse_rows"] = float64(pc.sseTally.rows)
}

// layerCounters turns the difference between two counter readings into the
// per-layer counts and ratios.
func layerCounters(b, a counters, m metrics) {
	for _, stage := range []string{core.StageParse, core.StageCache, core.StageHarvest, core.StageConsolidate, core.StageFanout} {
		m["core.stage_"+stage+"_us"] = stageUS(b, a, stage)
	}
	harvests := a.gw.Harvests - b.gw.Harvests
	coalesced := a.gw.Coalesced - b.gw.Coalesced
	m["core.coalesced_share"] = ratio(coalesced, harvests+coalesced)
	m["core.degraded_serves"] = float64(a.gw.StaleServes - b.gw.StaleServes + a.gw.HistoryFallbacks - b.gw.HistoryFallbacks)
	m["core.fanout_legs_per_query"] = ratio(a.gw.FanoutLegs-b.gw.FanoutLegs, a.gw.Fanouts-b.gw.Fanouts)
	hits, misses := a.gw.PlanCacheHits-b.gw.PlanCacheHits, a.gw.PlanCacheMisses-b.gw.PlanCacheMisses
	m["sqlparse.plan_hit_ratio"] = ratio(hits, hits+misses)
	ch, cm := a.cache.Hits-b.cache.Hits, a.cache.Misses-b.cache.Misses
	m["qcache.hit_ratio"] = ratio(ch, ch+cm)
	m["qcache.evictions"] = float64(a.cache.Evictions - b.cache.Evictions)
	ph, pm := a.pool.Hits-b.pool.Hits, a.pool.Misses-b.pool.Misses
	m["pool.idle_hit_ratio"] = ratio(ph, ph+pm)
	m["pool.dials"] = float64(a.pool.Opens - b.pool.Opens)
	m["driver.harvests"] = float64(a.fleet - b.fleet)
	published, enqueued := a.push.Published-b.push.Published, a.push.Enqueued-b.push.Enqueued
	dropped := a.push.Dropped - b.push.Dropped
	m["router.rows_published"] = float64(published)
	m["router.rows_enqueued"] = float64(enqueued)
	m["router.rows_dropped"] = float64(dropped)
	m["router.drop_share"] = ratio(dropped, enqueued)
	m["router.evictions"] = float64(a.push.Evicted - b.push.Evicted)
	m["event.dropped"] = float64(a.gw.EventsDropped - b.gw.EventsDropped)
	lookups := a.gma.RemoteQueries - b.gma.RemoteQueries + a.gma.RepubRoutes - b.gma.RepubRoutes
	m["gma.lookup_cache_hit_ratio"] = ratio(a.gma.LookupCacheHits-b.gma.LookupCacheHits, lookups)
	m["gma.repub_routes"] = float64(a.gma.RepubRoutes - b.gma.RepubRoutes)
	m["gma.repub_fallthroughs"] = float64(a.gma.RepubFallthroughs - b.gma.RepubFallthroughs)
	m["gma.remote_retries"] = float64(a.gma.RemoteRetries - b.gma.RemoteRetries)
	m["runtime.gc_cycles"] = float64(a.gc - b.gc)
	m["runtime.gc_pause_ms"] = float64(a.gcPause-b.gcPause) / 1e6
}

// restart crashes the entry gateway, brings a replacement up on the same
// durable directory and times how long a client waits for the first correct
// historical answer. It returns the defect if that answer never comes.
func restart(rt *testbed, c *client, m metrics) (string, error) {
	var hist *request
	for i := range c.stream {
		if c.stream[i].cls == historical {
			hist = &c.stream[i]
			break
		}
	}
	if hist == nil {
		return "", fmt.Errorf("restart: %s sends no historical query", rt.w.name)
	}
	start := time.Now()
	if err := rt.h.RestartSite(rt.h.Entry.Name); err != nil {
		return "", err
	}
	m["tsdb.restore_s"] = time.Since(start).Seconds()
	why := "no answer"
	for time.Since(start) < recoveryTimeout {
		resp, err := c.web.Query(context.Background(), hist.opts)
		if why = rt.truth.check(hist, true, resp, err); why == "" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	m["restart_recovery_s"] = time.Since(start).Seconds()
	durable := rt.h.EntryGateway().DurableHistory()
	m["tsdb.replayed_records"] = float64(durable.Stats().ReplayedRecords)
	start = time.Now()
	if err := durable.Checkpoint(); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	m["tsdb.checkpoint_s"] = time.Since(start).Seconds()
	return why, nil
}
