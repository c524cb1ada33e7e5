package integration_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/event"
	"gridrm/internal/sim"
	"gridrm/internal/web"
)

// chaosCombinedScenario declares the combined-faults fleet: two federated
// sites, with site B tuned the way the graceful-degradation acceptance
// test needs (long stale grace so history rows stay servable, a twitchy
// breaker so chaos trips it fast). The test drives the phases itself; the
// scenario only replaces the hand-rolled sitekit/httptest fleet setup.
const chaosCombinedScenario = `
name: chaos-combined
description: combined panic+error+latency faults at one federated site
seed: 1
duration: 2s
fleet:
  sites:
    - name: chaosA
      sources: 1
      hosts: 2
    - name: chaosB
      sources: 1
      hosts: 2
      stale_grace: 10m
      harvest_timeout: 2s
      breaker_threshold: 2
      breaker_cooldown: 150ms
federation:
  enabled: true
  entry_site: chaosA
`

// TestChaosGatewaySurvivesCombinedFaults is the graceful-degradation
// acceptance scenario end to end: a federated two-site deployment where every
// driver at one site is wrapped in fault injection — panics, errors and
// latency at once — while concurrent clients keep querying. The gateway must
// never crash, must keep answering with degraded rows, and the health prober
// must bring the tripped breakers back once the faults clear.
func TestChaosGatewaySurvivesCombinedFaults(t *testing.T) {
	sc, err := sim.ParseScenario([]byte(chaosCombinedScenario))
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.NewHarness(sc, rand.New(rand.NewSource(sc.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)

	gwB := h.Sites["chaosB"].Gateway
	faults := h.Sites["chaosB"].Faults
	client := &web.Client{BaseURL: h.Entry.Server.URL(), Principal: sim.SimPrincipal}
	req := core.QueryOptions{Principal: sim.SimPrincipal,
		SQL: "SELECT * FROM Processor", Mode: core.ModeCached}
	ctx := context.Background()

	// Phase 1 — clean pass primes site B's cache and history.
	resp, err := gwB.QueryContext(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	cleanRows := resp.ResultSet.Len()
	if cleanRows == 0 {
		t.Fatalf("clean pass returned no rows: %+v", resp.Sources)
	}

	// Phase 2 — chaos: every driver call panics, erring and slow at once,
	// and the cache is emptied so every query must walk the degradation
	// ladder. Concurrent clients hammer the gateway while it burns.
	faults.SetPanicEveryQuery(1)
	faults.SetErrorEvery(2)
	faults.SetQueryLatency(2 * time.Millisecond)
	gwB.Cache().Clear()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := gwB.QueryContext(ctx, req); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("query escalated during chaos: %v", err)
	}

	// Degraded rows were served from history (the cache was cleared), each
	// annotated with its tier and the underlying failure.
	resp, err = gwB.QueryContext(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultSet.Len() == 0 {
		t.Errorf("no degraded rows during chaos: %+v", resp.Sources)
	}
	var degraded int
	for _, s := range resp.Sources {
		if s.Degraded != "" {
			degraded++
			if s.Err == "" {
				t.Errorf("degraded source %s hides its failure", s.Source)
			}
			if s.Age <= 0 {
				t.Errorf("degraded source %s has no age", s.Source)
			}
		}
	}
	if degraded == 0 {
		t.Errorf("no source reported degraded: %+v", resp.Sources)
	}
	st := gwB.Stats()
	if st.DriverPanics == 0 {
		t.Error("no driver panic was recorded")
	}
	if st.StaleServes+st.HistoryFallbacks == 0 {
		t.Error("no degraded serve was counted")
	}

	// The panic surfaced as an Alert event with a stack.
	evs := gwB.Events().History(event.Filter{Name: "driver-panic"}, time.Time{})
	if len(evs) == 0 {
		t.Fatal("no driver-panic event published")
	}
	if evs[0].Severity != event.SeverityAlert || !strings.Contains(evs[0].Detail, "goroutine") {
		t.Errorf("driver-panic event %+v", evs[0])
	}

	// A federated client keeps getting answers through the burning site.
	remote, err := client.Query(ctx, core.QueryOptions{SQL: "SELECT * FROM Processor",
		Site: "chaosB", Mode: core.ModeCached})
	if err != nil {
		t.Fatalf("federated query failed during chaos: %v", err)
	}
	if remote.Site != "chaosB" || remote.ResultSet.Len() == 0 {
		t.Errorf("federated degraded answer: site=%q rows=%d", remote.Site, remote.ResultSet.Len())
	}

	// Phase 3 — the faults clear; the prober (not client traffic) walks the
	// open breakers through half-open back to closed.
	faults.SetPanicEveryQuery(0)
	faults.SetErrorEvery(0)
	faults.SetQueryLatency(0)

	prober := gwB.Prober()
	deadline := time.Now().Add(10 * time.Second)
	for {
		prober.ProbeAll(ctx)
		open := 0
		for _, info := range gwB.Sources() {
			if info.Breaker != "closed" {
				open++
			}
		}
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breakers never recovered: %+v", gwB.Sources())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, hs := range prober.Snapshot() {
		if hs.State != "healthy" {
			t.Errorf("source %s still %s after recovery", hs.URL, hs.State)
		}
	}

	// Fresh real-time rows flow again.
	resp, err = gwB.QueryContext(ctx, core.QueryOptions{Principal: sim.SimPrincipal,
		SQL: "SELECT * FROM Processor", Mode: core.ModeRealTime})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultSet.Len() != cleanRows {
		t.Errorf("post-recovery rows = %d, want %d: %+v",
			resp.ResultSet.Len(), cleanRows, resp.Sources)
	}
	for _, s := range resp.Sources {
		if s.Err != "" || s.Degraded != "" {
			t.Errorf("post-recovery status %+v", s)
		}
	}

	// Phase 4 — ordered shutdown: drains cleanly, then refuses new work.
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := gwB.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := gwB.QueryContext(ctx, req); !errors.Is(err, core.ErrGatewayClosed) {
		t.Errorf("post-shutdown query err = %v, want ErrGatewayClosed", err)
	}
}
