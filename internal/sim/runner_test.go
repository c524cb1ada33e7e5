package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// runnerScenario is a small but complete run: one site, a kill/revive pair,
// and enough clients to exercise the cached and real-time paths.
const runnerScenario = `
name: runner-smoke
seed: 5
duration: 400ms
fleet:
  sites:
    - name: solo
      count: 1
      sources: 4
      hosts: 2
      cache_ttl: 50ms
load:
  clients: 3
  transport: inproc
  mix:
    - mode: cached
      weight: 70
    - mode: real-time
      weight: 30
events:
  - at: 100ms
    action: kill_source
    count: 1
  - at: 300ms
    action: revive_source
    count: 1
assertions:
  max_error_rate: 0
  min_requests: 10
`

func TestRunProducesReport(t *testing.T) {
	sc, err := ParseScenario([]byte(runnerScenario))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scenario != "runner-smoke" || r.Seed != 5 {
		t.Errorf("header = %q seed %d", r.Scenario, r.Seed)
	}
	if r.Fleet.Sources != 4 || r.Fleet.Sites != 1 {
		t.Errorf("fleet summary = %+v", r.Fleet)
	}
	if r.Load.Requests == 0 {
		t.Fatal("no requests recorded")
	}
	if r.Load.ErrorRate != 0 {
		t.Errorf("error rate = %v (errors %d)", r.Load.ErrorRate, r.Load.Errors)
	}
	if len(r.Events) != 2 || r.Events[0].Action != ActionKillSource || r.Events[1].Action != ActionReviveSource {
		t.Errorf("events = %+v", r.Events)
	}
	if len(r.Events[0].Targets) != 1 {
		t.Errorf("kill targets = %v", r.Events[0].Targets)
	}
	all, ok := r.Latency["all"]
	if !ok || all.Count != r.Load.Requests || all.P99Ms < all.P50Ms {
		t.Errorf("latency[all] = %+v for %d requests", all, r.Load.Requests)
	}
	if _, ok := r.Latency["cached"]; !ok {
		t.Errorf("missing cached latency label: %v", reflect.ValueOf(r.Latency).MapKeys())
	}
	if r.Counters["gridrm_queries_total"] == 0 {
		t.Errorf("counters not scraped: %v", r.Counters)
	}
	if len(r.Assertions) != 2 {
		t.Errorf("assertions = %+v", r.Assertions)
	}
	if !r.Passed {
		t.Errorf("run failed assertions: %+v", r.Assertions)
	}
}

// TestRunDeterministicPlan re-runs the same scenario and checks the
// reproducibility contract the report exposes: identical event sequences
// (same targets, same times) and identical assertion verdicts.
func TestRunDeterministicPlan(t *testing.T) {
	run := func() *Report {
		sc, err := ParseScenario([]byte(runnerScenario))
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(sc, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Errorf("event plans differ:\n%+v\n%+v", a.Events, b.Events)
	}
	if a.Passed != b.Passed || len(a.Assertions) != len(b.Assertions) {
		t.Errorf("assertion outcomes differ: %v vs %v", a.Passed, b.Passed)
	}
	for i := range a.Assertions {
		if a.Assertions[i].Name != b.Assertions[i].Name || a.Assertions[i].OK != b.Assertions[i].OK {
			t.Errorf("assertion %d differs: %+v vs %+v", i, a.Assertions[i], b.Assertions[i])
		}
	}
}

func TestPlanEventsDeterministic(t *testing.T) {
	sc, err := ParseScenario([]byte(runnerScenario))
	if err != nil {
		t.Fatal(err)
	}
	plan := func(seed int64) []PlannedEvent {
		rng := rand.New(rand.NewSource(seed))
		fleet := GenerateFleet(sc.Fleet, rng)
		p, err := PlanEvents(sc, fleet, rng)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := plan(5), plan(5)
	if len(a) != 2 {
		t.Fatalf("plan = %+v", a)
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Action != b[i].Action || !reflect.DeepEqual(a[i].Targets, b[i].Targets) {
			t.Errorf("planned event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// The revive must target the source the kill took down.
	if !reflect.DeepEqual(a[0].Targets, a[1].Targets) {
		t.Errorf("revive targets %v, kill targets %v", a[1].Targets, a[0].Targets)
	}
	c := plan(99)
	if reflect.DeepEqual(a[0].Targets, c[0].Targets) {
		t.Log("seeds 5 and 99 picked the same kill target (possible but unlikely)")
	}
}

func TestRunDurationOverrideScalesEvents(t *testing.T) {
	sc, err := ParseScenario([]byte(runnerScenario))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(sc, RunOptions{Duration: 200 * time.Millisecond}) // half the declared 400ms
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Events) != 2 {
		t.Fatalf("events = %+v", r.Events)
	}
	if r.Events[0].AtMs != 50 || r.Events[1].AtMs != 150 {
		t.Errorf("scaled event times = %v, %v; want 50, 150", r.Events[0].AtMs, r.Events[1].AtMs)
	}
}
