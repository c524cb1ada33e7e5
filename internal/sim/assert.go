package sim

import "sort"

// evalAssertions checks the scenario's assertions against the finished
// report, in stable (sorted-name) order. Semantics per key:
//
//	max_error_rate        client errors / requests              <= limit
//	max_p99_ms            "all" label p99 latency (ms)          <= limit
//	min_throughput_rps    requests / wall-clock seconds         >= limit
//	min_requests          total client requests                 >= limit
//	min_degraded_share    (stale_serves+history_fallbacks)/requests >= limit
//	min_stale_serves      stale_serves counter                  >= limit
//	min_history_fallbacks history_fallbacks counter             >= limit
//	min_coalesced         coalesced counter                     >= limit
//	min_breaker_opens     breaker_opens counter (local layer)   >= limit
//	min_plan_cache_hits   plan_cache_hits counter (all sites)   >= limit
//	min_replayed_records  records restored from checkpoint+WAL  >= limit
//	min_wal_appends       records journaled to the WAL          >= limit
//	min_rows_published    rows pushed to continuous queries     >= limit
//	min_rows_dropped      rows dropped on stuck subscribers     >= limit
//	max_row_drop_rate     rows_dropped / rows_enqueued (per-subscriber offers) <= limit
//	min_sub_evictions     stalled subscribers evicted           >= limit
//	min_sink_breaker_opens push-sink breaker opens              >= limit
//	min_repub_region_queries region queries answered by republishers >= limit
//	min_repub_routes      site queries routed republisher-first >= limit
//	min_repub_fallthroughs repub-routed queries that fell through to the site >= limit
//	min_repub_live_rows   rows fed to republisher views by subscription >= limit
//	min_repub_rebalances  refresh cycles that changed a republisher's shard >= limit
//	max_remote_per_fanout fanout_legs / fanouts (entry fan-out degree) <= limit
func evalAssertions(sc *Scenario, r *Report) []AssertionResult {
	requests := float64(r.Load.Requests)
	if requests == 0 {
		requests = 1 // rates over an empty run compare against 0/1
	}
	actual := func(name string) float64 {
		switch name {
		case "max_error_rate":
			return r.Load.ErrorRate
		case "max_p99_ms":
			return r.Latency["all"].P99Ms
		case "min_throughput_rps":
			return r.Load.ThroughputRPS
		case "min_requests":
			return float64(r.Load.Requests)
		case "min_degraded_share":
			return float64(r.Counters["stale_serves"]+r.Counters["history_fallbacks"]) / requests
		case "min_stale_serves":
			return float64(r.Counters["stale_serves"])
		case "min_history_fallbacks":
			return float64(r.Counters["history_fallbacks"])
		case "min_coalesced":
			return float64(r.Counters["coalesced"])
		case "min_breaker_opens":
			return float64(r.Counters["breaker_opens"])
		case "min_plan_cache_hits":
			return float64(r.Counters["plan_cache_hits"])
		case "min_replayed_records":
			return float64(r.Counters["replayed_records"])
		case "min_wal_appends":
			return float64(r.Counters["wal_appends"])
		case "min_rows_published":
			return float64(r.Counters["rows_published"])
		case "min_rows_dropped":
			return float64(r.Counters["rows_dropped"])
		case "max_row_drop_rate":
			// A row is enqueued once per matching subscriber and dropped at
			// most once from each queue, so this lies in [0, 1].
			return float64(r.Counters["rows_dropped"]) / max(float64(r.Counters["rows_enqueued"]), 1)
		case "min_sub_evictions":
			return float64(r.Counters["subscriber_evictions"])
		case "min_sink_breaker_opens":
			return float64(r.Counters["sink_breaker_opens"])
		case "min_repub_region_queries":
			return float64(r.Counters["repub_region_queries"])
		case "min_repub_routes":
			return float64(r.Counters["repub_routes"])
		case "min_repub_fallthroughs":
			return float64(r.Counters["repub_fallthroughs"])
		case "min_repub_live_rows":
			return float64(r.Counters["repub_live_rows"])
		case "min_repub_rebalances":
			return float64(r.Counters["repub_rebalances"])
		case "max_remote_per_fanout":
			fanouts := float64(r.Counters["fanouts"])
			if fanouts == 0 {
				fanouts = 1
			}
			return float64(r.Counters["fanout_legs"]) / fanouts
		}
		return 0
	}
	names := make([]string, 0, len(sc.Assertions))
	for name := range sc.Assertions {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []AssertionResult
	for _, name := range names {
		limit := sc.Assertions[name]
		got := actual(name)
		ok := got >= limit
		if len(name) >= 4 && name[:4] == "max_" {
			ok = got <= limit
		}
		out = append(out, AssertionResult{Name: name, Limit: limit, Actual: got, OK: ok})
	}
	return out
}
