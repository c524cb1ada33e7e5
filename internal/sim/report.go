package sim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Report is the simulator's JSON output; docs/sim-report.md has the
// field-by-field schema.
type Report struct {
	Scenario    string                    `json:"scenario"`
	Description string                    `json:"description,omitempty"`
	Seed        int64                     `json:"seed"`
	DurationMS  float64                   `json:"duration_ms"`
	Fleet       FleetSummary              `json:"fleet"`
	Load        LoadSummary               `json:"load"`
	Latency     map[string]LatencySummary `json:"latency"`
	Counters    map[string]int64          `json:"counters"`
	Metrics     map[string]float64        `json:"metrics,omitempty"`
	Events      []EventRecord             `json:"events"`
	Assertions  []AssertionResult         `json:"assertions"`
	// Invariants are checked on every run they apply to, whatever the
	// scenario asserts.
	Invariants []AssertionResult `json:"invariants,omitempty"`
	// RepubConvergeMS is the longest a republisher membership event (the
	// federation's start, a drain, a revive) took to settle: until the
	// republishers' shards partitioned the sites again.
	RepubConvergeMS float64 `json:"repub_converge_ms,omitempty"`
	Passed          bool    `json:"passed"`
}

// FleetSummary sizes the generated fleet.
type FleetSummary struct {
	Sites   int `json:"sites"`
	Sources int `json:"sources"`
	Hosts   int `json:"hosts"`
}

// LoadSummary is the client-side view of the run.
type LoadSummary struct {
	Clients       int     `json:"clients"`
	Transport     string  `json:"transport"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	ErrorRate     float64 `json:"error_rate"`
	ThroughputRPS float64 `json:"throughput_rps"`
}

// LatencySummary is one label's latency distribution. The "all" label
// merges every query; the rest are per mix label (mode, or scope-mode).
type LatencySummary struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// EventRecord is one fired (planned) event.
type EventRecord struct {
	AtMs    float64  `json:"at_ms"`
	Action  string   `json:"action"`
	Targets []string `json:"targets"`
	Detail  string   `json:"detail,omitempty"`
}

// AssertionResult is one checked assertion.
type AssertionResult struct {
	Name   string  `json:"name"`
	Limit  float64 `json:"limit"`
	Actual float64 `json:"actual"`
	OK     bool    `json:"ok"`
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary renders a terse human-readable pass/fail line per assertion plus
// the headline numbers.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s seed %d: %d requests, %d errors (%.2f%%), %.1f req/s",
		r.Scenario, r.Seed, r.Load.Requests, r.Load.Errors, 100*r.Load.ErrorRate, r.Load.ThroughputRPS)
	if all, ok := r.Latency["all"]; ok {
		fmt.Fprintf(&b, ", p50 %.2fms p95 %.2fms p99 %.2fms", all.P50Ms, all.P95Ms, all.P99Ms)
	}
	b.WriteString("\n")
	for _, a := range append(r.Assertions, r.Invariants...) {
		status := "PASS"
		if !a.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "  %s %s: limit %v actual %v\n", status, a.Name, a.Limit, round3(a.Actual))
	}
	return b.String()
}

func round3(v float64) float64 { return float64(int64(v*1000+0.5)) / 1000 }

// latencyHistogram accumulates per-label samples (one slice per client,
// merged at the end — no locking on the hot path).
type latencyHistogram struct {
	samples map[string][]float64 // label -> latency ms
}

func newLatencyHistogram() *latencyHistogram {
	return &latencyHistogram{samples: make(map[string][]float64)}
}

func (h *latencyHistogram) record(label string, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	h.samples[label] = append(h.samples[label], ms)
	h.samples["all"] = append(h.samples["all"], ms)
}

func (h *latencyHistogram) merge(other *latencyHistogram) {
	for label, xs := range other.samples {
		h.samples[label] = append(h.samples[label], xs...)
	}
}

func (h *latencyHistogram) summaries() map[string]LatencySummary {
	out := make(map[string]LatencySummary, len(h.samples))
	for label, xs := range h.samples {
		if len(xs) == 0 {
			continue
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		out[label] = LatencySummary{
			Count: int64(len(sorted)),
			P50Ms: percentile(sorted, 0.50),
			P95Ms: percentile(sorted, 0.95),
			P99Ms: percentile(sorted, 0.99),
			MaxMs: sorted[len(sorted)-1],
		}
	}
	return out
}

// percentile returns the q-quantile of ascending xs (nearest-rank method).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	idx := int(float64(len(xs))*q+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return xs[idx]
}

// scrapeCounters sums the degradation/resilience counters across every
// gateway, folds in the router's federation counters, and scrapes the entry
// site's /metrics endpoint into the report's metrics map.
func (h *Harness) scrapeCounters() (map[string]int64, map[string]float64) {
	counters := map[string]int64{}
	for _, site := range h.SiteOrder {
		gw := h.SiteGateway(site)
		st := gw.Stats()
		counters["queries"] += st.Queries
		counters["query_errors"] += st.QueryErrors
		counters["harvests"] += st.Harvests
		counters["harvest_errors"] += st.HarvestErrors
		counters["cache_served"] += st.CacheServed
		counters["coalesced"] += st.Coalesced
		counters["routed"] += st.Routed
		counters["timeouts"] += st.Timeouts
		counters["retries"] += st.Retries
		counters["breaker_skipped"] += st.BreakerSkipped
		counters["breaker_opens"] += st.BreakerOpens
		counters["stale_serves"] += st.StaleServes
		counters["history_fallbacks"] += st.HistoryFallbacks
		counters["driver_panics"] += st.DriverPanics
		counters["plan_cache_hits"] += st.PlanCacheHits
		counters["plan_cache_misses"] += st.PlanCacheMisses
		counters["rows_published"] += st.RowsPublished
		counters["rows_dropped"] += st.RowsDropped
		counters["rows_enqueued"] += gw.PushRouter().Stats().Enqueued
		counters["subscriber_evictions"] += st.SubscriberEvictions
		counters["sink_delivered"] += st.SinkDelivered
		counters["sink_dropped"] += st.SinkDropped
		counters["sink_breaker_opens"] += st.SinkBreakerOpens
		counters["events_dropped"] += st.EventsDropped
		counters["fanouts"] += st.Fanouts
		counters["fanout_legs"] += st.FanoutLegs
		if d := gw.DurableHistory(); d != nil {
			// Counters of the current instance only: a restart_gateway
			// event discards the pre-crash instance's totals, so
			// replayed_records reflects what the replacement restored.
			ds := d.Stats()
			counters["wal_appends"] += ds.WALAppends
			counters["wal_fsyncs"] += ds.Fsyncs
			counters["replayed_records"] += ds.ReplayedRecords
			counters["corrupt_records"] += ds.CorruptRecords
			counters["checkpoints"] += ds.Checkpoints
			counters["history_disk_bytes"] += ds.DiskBytes
		}
	}
	if h.Router != nil {
		rs := h.Router.Stats()
		counters["remote_queries"] = rs.RemoteQueries
		counters["remote_failures"] = rs.RemoteFailures
		counters["remote_retries"] = rs.RemoteRetries
		counters["remote_breaker_opens"] = rs.RemoteBreakerOpens
		counters["remote_breaker_skipped"] = rs.RemoteBreakerSkipped
		counters["lookup_cache_hits"] = rs.LookupCacheHits
		counters["stale_lookups"] = rs.StaleLookups
		counters["repub_routes"] = rs.RepubRoutes
		counters["repub_fallthroughs"] = rs.RepubFallthroughs
		counters["generation_evictions"] = rs.GenerationEvictions
	}
	if len(h.Repubs) > 0 {
		ps := h.RepubStats()
		counters["repub_region_queries"] = ps.RegionQueries
		counters["repub_site_queries"] = ps.SiteQueries
		counters["repub_not_owned"] = ps.NotOwned
		counters["repub_scrapes"] = ps.Scrapes
		counters["repub_scrape_errors"] = ps.ScrapeErrors
		counters["repub_live_rows"] = ps.LiveRows
		counters["repub_subscriptions"] = ps.Subscriptions
		counters["repub_subscribe_fallbacks"] = ps.SubscribeFallbacks
		counters["repub_resumes"] = ps.Resumes
		counters["repub_gapped_resumes"] = ps.GappedResumes
		counters["repub_rebalances"] = ps.Rebalances
		counters["repub_membership_changes"] = ps.MembershipChanges
	}
	metrics := scrapeMetrics(h.MetricsURL())
	return counters, metrics
}

// scrapeMetrics fetches and parses a Prometheus-style text exposition into
// name -> value. Errors yield an empty map: the report's primary counters
// come from Stats(), the scrape is corroboration.
func scrapeMetrics(url string) map[string]float64 {
	out := map[string]float64{}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out
}
