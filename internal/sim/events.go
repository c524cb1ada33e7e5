package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// PlannedEvent is one fault event with its targets fully resolved. Target
// resolution happens at plan time, before the load starts, drawing from
// the run's seeded rng — so the event sequence in the report is a pure
// function of (scenario, seed), independent of runtime scheduling.
type PlannedEvent struct {
	At      time.Duration
	Action  string
	Targets []string // source URLs, site names, or directory indices
	Detail  string   // human-readable knob values ("latency=50ms", ...)

	spec EventSpec
}

// PlanEvents resolves every scenario event against the generated fleet.
// Events fire in At order; ties keep scenario order.
func PlanEvents(sc *Scenario, fleet *Fleet, rng *rand.Rand) ([]PlannedEvent, error) {
	// plannedDown tracks which sources earlier events leave dead, so
	// kill_source picks live sources and revive_source picks dead ones.
	plannedDown := map[string]bool{}
	specs := make([]EventSpec, len(sc.Events))
	copy(specs, sc.Events)
	sort.SliceStable(specs, func(i, j int) bool { return specs[i].At < specs[j].At })

	var plan []PlannedEvent
	for _, ev := range specs {
		pe := PlannedEvent{At: ev.At, Action: ev.Action, spec: ev}
		switch ev.Action {
		case ActionKillSource, ActionReviveSource:
			wantDown := ev.Action == ActionReviveSource
			pool := eventSourcePool(sc, fleet, ev.Site)
			var candidates []string
			for _, url := range pool {
				if plannedDown[url] == wantDown {
					candidates = append(candidates, url)
				}
			}
			if len(candidates) < ev.Count {
				return nil, fmt.Errorf("sim: event %s at %s: wants %d sources, only %d eligible",
					ev.Action, ev.At, ev.Count, len(candidates))
			}
			rng.Shuffle(len(candidates), func(i, j int) {
				candidates[i], candidates[j] = candidates[j], candidates[i]
			})
			pe.Targets = append([]string(nil), candidates[:ev.Count]...)
			sort.Strings(pe.Targets)
			for _, url := range pe.Targets {
				plannedDown[url] = !wantDown
			}
		case ActionPartitionSite, ActionHealSite, ActionLatencySpike,
			ActionLatencyClear, ActionRestartGateway:
			site, err := resolveSite(sc, ev.Site, rng)
			if err != nil {
				return nil, err
			}
			pe.Targets = []string{site}
			if ev.Action == ActionLatencySpike {
				pe.Detail = "latency=" + ev.Latency.String()
			}
		case ActionDirectoryDown, ActionDirectoryUp:
			pe.Targets = []string{fmt.Sprintf("directory-%d", ev.Directory)}
		case ActionKillRepublisher, ActionReviveRepublisher, ActionDrainRepublisher:
			pe.Targets = []string{fmt.Sprintf("repub-%d", ev.Republisher)}
		case ActionStallSubscriber, ActionKillSubscriber:
			// Concrete subscribers are picked at fire time (the harness owns
			// their registry); the plan just records the blast radius.
			pe.Targets = []string{fmt.Sprintf("subscribers x%d", ev.Count)}
		}
		plan = append(plan, pe)
	}
	return plan, nil
}

// eventSourcePool lists the source URLs an event may target: the named
// instance's, every instance of the named template's, or the whole fleet's.
func eventSourcePool(sc *Scenario, fleet *Fleet, site string) []string {
	var sites []string
	switch {
	case site == "":
		sites = fleet.Sites()
	case containsString(fleet.Sites(), site):
		sites = []string{site}
	default: // template name
		for _, tpl := range sc.Fleet.Sites {
			if tpl.Name == site {
				sites = tpl.Instances()
			}
		}
	}
	var urls []string
	for _, s := range sites {
		for _, src := range fleet.SiteSources(s) {
			urls = append(urls, src.URL)
		}
	}
	return urls
}

// resolveSite picks the concrete site instance an event targets.
func resolveSite(sc *Scenario, site string, rng *rand.Rand) (string, error) {
	all := sc.SiteNames()
	if site == "" {
		return all[rng.Intn(len(all))], nil
	}
	if containsString(all, site) {
		return site, nil
	}
	for _, tpl := range sc.Fleet.Sites {
		if tpl.Name == site {
			inst := tpl.Instances()
			return inst[rng.Intn(len(inst))], nil
		}
	}
	return "", fmt.Errorf("sim: no site matches %q", site)
}

// Fire applies the event to the harness.
func (pe PlannedEvent) Fire(h *Harness) error {
	switch pe.Action {
	case ActionKillSource:
		for _, url := range pe.Targets {
			if !h.KillSource(url) {
				return fmt.Errorf("sim: kill_source: unknown source %s", url)
			}
		}
	case ActionReviveSource:
		for _, url := range pe.Targets {
			if !h.ReviveSource(url) {
				return fmt.Errorf("sim: revive_source: unknown source %s", url)
			}
		}
	case ActionPartitionSite, ActionHealSite:
		if !h.PartitionSite(pe.Targets[0], pe.Action == ActionPartitionSite) {
			return fmt.Errorf("sim: %s: site %s has no server", pe.Action, pe.Targets[0])
		}
	case ActionDirectoryDown, ActionDirectoryUp:
		if !h.SetDirectoryDown(pe.spec.Directory, pe.Action == ActionDirectoryDown) {
			return fmt.Errorf("sim: %s: no replica %d", pe.Action, pe.spec.Directory)
		}
	case ActionKillRepublisher:
		if !h.KillRepublisher(pe.spec.Republisher) {
			return fmt.Errorf("sim: kill_republisher: no republisher %d", pe.spec.Republisher)
		}
	case ActionReviveRepublisher:
		if !h.ReviveRepublisher(pe.spec.Republisher) {
			return fmt.Errorf("sim: revive_republisher: no republisher %d", pe.spec.Republisher)
		}
	case ActionDrainRepublisher:
		if !h.DrainRepublisher(pe.spec.Republisher) {
			return fmt.Errorf("sim: drain_republisher: no republisher %d", pe.spec.Republisher)
		}
	case ActionLatencySpike:
		h.Sites[pe.Targets[0]].Faults.SetQueryLatency(pe.spec.Latency)
	case ActionLatencyClear:
		h.Sites[pe.Targets[0]].Faults.SetQueryLatency(0)
	case ActionRestartGateway:
		if err := h.RestartSite(pe.Targets[0]); err != nil {
			return err
		}
	case ActionStallSubscriber:
		if n := h.StallSubscribers(pe.spec.Count); n == 0 {
			return fmt.Errorf("sim: stall_subscriber: no live subscribers")
		}
	case ActionKillSubscriber:
		if n := h.KillSubscribers(pe.spec.Count); n == 0 {
			return fmt.Errorf("sim: kill_subscriber: no live subscribers")
		}
	default:
		return fmt.Errorf("sim: unknown action %q", pe.Action)
	}
	return nil
}

// String renders the event for logs.
func (pe PlannedEvent) String() string {
	s := fmt.Sprintf("%s %s %s", pe.At, pe.Action, strings.Join(pe.Targets, ","))
	if pe.Detail != "" {
		s += " (" + pe.Detail + ")"
	}
	return s
}
