package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"gridrm/internal/metrics"
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
	Counters    map[string]float64        `json:"counters"`
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

// AssertionResult is one checked assertion. Missing names the metric it
// reads that no member exposes; such an assertion fails.
type AssertionResult struct {
	Name    string  `json:"name"`
	Limit   float64 `json:"limit"`
	Actual  float64 `json:"actual"`
	OK      bool    `json:"ok"`
	Missing string  `json:"missing,omitempty"`
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
		if a.Missing != "" {
			fmt.Fprintf(&b, "  %s %s: no member exposes %s\n", status, a.Name, a.Missing)
			continue
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

// readMetrics renders every member's registry with the WritePrometheus
// that serves its GET /metrics: each site's current gateway (the entry's
// carries its router's families) and every republisher. It reads them in
// process, so a partitioned site or a killed republisher still reports.
// counters sums the counter samples by series, taking the process-wide
// families once; entry is every sample of the entry's own exposition.
func (h *Harness) readMetrics() (counters, entry map[string]float64, err error) {
	regs := []*metrics.Registry{h.EntryGateway().Metrics()}
	for _, site := range h.SiteOrder {
		if site != h.Entry.Name {
			regs = append(regs, h.SiteGateway(site).Metrics())
		}
	}
	for _, rr := range h.Repubs {
		regs = append(regs, rr.Gateway.Metrics())
	}
	counters = map[string]float64{}
	for i, reg := range regs {
		ex, err := metrics.Scrape(reg)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			entry = ex.Samples
		}
		for series, v := range ex.Samples {
			if ex.Types[series] == "counter" && (i == 0 || !metrics.ProcessWide(series)) {
				counters[series] += v
			}
		}
	}
	return counters, entry, nil
}
