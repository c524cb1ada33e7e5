package integration_test

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/event"
	"gridrm/internal/sim"
)

// chaosDirScenario declares the federation-resilience fleet: two sites
// behind two directory replicas, a short router lookup TTL so the outage
// phase exercises stale-on-error, and dirA as the routing entry site.
const chaosDirScenario = `
name: chaos-directory-outage
description: total directory outage plus a dead remote gateway
seed: 1
duration: 2s
fleet:
  sites:
    - name: dirA
      sources: 1
      hosts: 1
    - name: dirB
      sources: 1
      hosts: 1
federation:
  enabled: true
  directories: 2
  lookup_ttl: 50ms
  entry_site: dirA
`

// siteBErr extracts site dirB's leg from an all-sites response: "" when the
// leg answered cleanly, the error string when it failed, and a synthetic
// error when the leg is missing entirely.
func siteBErr(resp *core.Response) string {
	found := false
	for _, s := range resp.Sources {
		if s.Source == "site:dirB" && s.Err != "" {
			return s.Err
		}
		if len(s.Source) >= len("site:dirB") && s.Source[:len("site:dirB")] == "site:dirB" {
			found = true
		}
	}
	if !found {
		return "leg missing from response"
	}
	return ""
}

// TestChaosDirectoryOutage is the federation-resilience acceptance scenario:
// with ALL directory replicas down, a federated all-sites query keeps
// answering from the router's lookup cache; a killed remote gateway trips
// its per-endpoint breaker so fan-outs fast-fail instead of burning the
// deadline; and when a replica returns, the resilient registrar — which
// never failed Start — re-registers automatically. The fleet comes from the
// sim harness; the lookup TTL lapses on the harness clock, not wall sleeps.
func TestChaosDirectoryOutage(t *testing.T) {
	sc, err := sim.ParseScenario([]byte(chaosDirScenario))
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock()
	var unreachableAlerts atomic.Int64
	unreachable := make(chan error, 16)
	h, err := sim.NewHarnessOpts(sc, rand.New(rand.NewSource(sc.Seed)), sim.HarnessOptions{
		Clock: clk.Now,
		RegistrarListener: func(site string, reachable bool, err error) {
			if site != "dirA" || reachable {
				return
			}
			unreachableAlerts.Add(1)
			select {
			case unreachable <- err:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)

	gwA := h.Sites["dirA"].Gateway
	regA := h.Sites["dirA"].Registrar
	router := h.Router
	ctx := context.Background()

	// Phase 1 — warm: a federated all-sites query reaches both sites and
	// primes the router's lookup + sites caches.
	allSites := core.QueryOptions{Principal: sim.SimPrincipal,
		SQL: "SELECT * FROM Processor", Site: core.AllSites, Mode: core.ModeCached}
	resp, err := gwA.QueryContext(ctx, allSites)
	if err != nil {
		t.Fatal(err)
	}
	if err := siteBErr(resp); err != "" {
		t.Fatalf("warm all-sites: site dirB failed: %s", err)
	}

	// Phase 2 — total directory outage: drop BOTH replicas. Past the lookup
	// TTL every directory read fails, yet the all-sites query keeps answering
	// from stale cache entries. The TTL lapses by advancing the harness
	// clock; no wall-clock sleep is involved.
	h.SetDirectoryDown(0, true)
	h.SetDirectoryDown(1, true)
	clk.Advance(100 * time.Millisecond)
	resp, err = gwA.QueryContext(ctx, allSites)
	if err != nil {
		t.Fatalf("all-sites query during directory outage: %v", err)
	}
	if err := siteBErr(resp); err != "" {
		t.Fatalf("all-sites during outage: site dirB failed: %s", err)
	}
	if st := router.Stats(); st.StaleLookups == 0 {
		t.Errorf("no stale lookups counted during outage: %+v", st)
	}

	// The registrar flips to unreachable but the gateway keeps serving;
	// Start never failed. The flip is turned into an Alert on the event bus.
	deadline := time.Now().Add(10 * time.Second)
	for regA.Registered() {
		if time.Now().After(deadline) {
			t.Fatal("registrar never noticed the outage")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case ferr := <-unreachable:
		gwA.Events().Publish(event.Event{Source: "gma", Name: "directory-unreachable",
			Severity: event.SeverityAlert, Time: time.Now(), Detail: ferr.Error()})
	case <-time.After(5 * time.Second):
		t.Fatal("state listener never reported the outage")
	}
	if evs := gwA.Events().History(event.Filter{Name: "directory-unreachable"}, time.Time{}); len(evs) == 0 {
		t.Error("no directory-unreachable alert published")
	}

	// Phase 3 — partition the remote gateway too: repeated failures trip the
	// per-endpoint breaker, and further fan-outs fast-fail on that site
	// instead of consuming the whole deadline.
	h.PartitionSite("dirB", true)
	endpointB := h.Sites["dirB"].Server.URL()
	for i := 0; i < 5; i++ { // router breaker default threshold
		if _, err := router.RemoteQueryContext(ctx, "dirB",
			core.QueryOptions{Principal: sim.SimPrincipal,
				SQL: "SELECT * FROM Processor", Site: "dirB"}); err == nil {
			t.Fatal("query to partitioned gateway succeeded")
		}
	}
	if got := router.EndpointBreakerState(endpointB); got != "open" {
		t.Fatalf("breaker state after kill = %q, want open", got)
	}
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	start := time.Now()
	resp, err = gwA.QueryContext(qctx, allSites)
	elapsed := time.Since(start)
	cancel()
	if err != nil {
		t.Fatalf("all-sites with open breaker: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("open breaker did not fast-fail: all-sites took %s", elapsed)
	}
	if err := siteBErr(resp); err == "" {
		t.Errorf("dead site not reported: %+v", resp.Sources)
	}
	if st := router.Stats(); st.RemoteBreakerSkipped == 0 {
		t.Errorf("breaker never skipped: %+v", st)
	}

	// Phase 4 — one replica returns: the registrar's background retry
	// re-registers without intervention.
	h.SetDirectoryDown(0, false)
	deadline = time.Now().Add(10 * time.Second)
	for !regA.Registered() {
		if time.Now().After(deadline) {
			t.Fatal("registrar never recovered after replica restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, ok, err := h.Replicas[0].Dir.LookupContext(context.Background(), "dirA"); err != nil || !ok {
		t.Errorf("restarted replica lookup = %v, %v", ok, err)
	}

	// Phase 5 — registrar restart cycle under load (the old closed-channel
	// bug made the second Start a no-op loop).
	regA.Stop()
	if err := regA.Start(); err != nil {
		t.Fatalf("registrar restart: %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for !regA.Registered() {
		if time.Now().After(deadline) {
			t.Fatal("restarted registrar never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if unreachableAlerts.Load() == 0 {
		t.Error("state listener never reported the outage")
	}
}
