package sim

import (
	"sort"
	"strings"
)

// evalAssertions checks the scenario's assertions against the finished
// report, in stable (sorted-name) order: max_* keys hold when actual <=
// limit, min_* keys when actual >= limit. Each key reads the counter
// assertionKeys names; one whose counter no member exposes fails, naming
// it, rather than reading 0. A ratio whose denominator is 0 fails with no
// data, naming the denominator, rather than reading 0.
func evalAssertions(sc *Scenario, r *Report) []AssertionResult {
	names := make([]string, 0, len(sc.Assertions))
	for name := range sc.Assertions {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]AssertionResult, 0, len(names))
	for _, name := range names {
		res := AssertionResult{Name: name, Limit: sc.Assertions[name]}
		read := func(metric string) float64 {
			v, ok := r.Counters[metric]
			if !ok && res.Missing == "" {
				res.Missing = metric
			}
			return v
		}
		ratio := func(n, d float64, denominator string) float64 {
			if d == 0 {
				if res.Missing == "" {
					res.NoData = denominator
				}
				return 0
			}
			return n / d
		}
		requests := float64(r.Load.Requests)
		metric := assertionKeys[name]
		switch name {
		case "max_error_rate":
			res.Actual = ratio(float64(r.Load.Errors), requests, "requests")
		case "max_p99_ms":
			res.Actual = r.Latency["all"].P99Ms
		case "min_throughput_rps":
			res.Actual = r.Load.ThroughputRPS
		case "min_requests":
			res.Actual = requests
		case "min_degraded_share":
			// Degraded serves are per source, so under fan-out this can
			// exceed 1.
			res.Actual = ratio(read(metric), requests, "requests")
		case "max_row_drop_rate":
			// A row is enqueued once per matching subscriber and dropped at
			// most once from each queue, so this lies in [0, 1].
			res.Actual = ratio(read(metric), read("gridrm_rows_enqueued_total"), "gridrm_rows_enqueued_total")
		case "max_remote_per_fanout":
			res.Actual = ratio(read(metric), read("gridrm_fanouts_total"), "gridrm_fanouts_total")
		default:
			res.Actual = read(metric)
		}
		if strings.HasPrefix(name, "max_") {
			res.OK = res.Actual <= res.Limit
		} else {
			res.OK = res.Actual >= res.Limit
		}
		res.OK = res.OK && res.Missing == "" && res.NoData == ""
		out = append(out, res)
	}
	return out
}
