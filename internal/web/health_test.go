package web

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/breaker"
	"gridrm/internal/core"
	"gridrm/internal/drivers/memdrv"
	"gridrm/internal/event"
	"gridrm/internal/metrics"
	"gridrm/internal/security"
)

// TestStatusCarriesSourceHealth: queries alone, with no probe ever run, take
// a source down at its breaker's threshold. GET /sources serves the state
// and the failure count, and /metrics counts the source in
// gridrm_sources_down. One probe after the cooldown brings it back to
// healthy with one Status source-state event, and /status carries the
// probe counters.
func TestStatusCarriesSourceHealth(t *testing.T) {
	var now atomic.Int64 // the clock the servlet's goroutines read
	now.Store(400000)
	gw := core.New(core.Config{Name: "siteA", Clock: func() time.Time { return time.Unix(now.Load(), 0) },
		Breaker: breaker.Options{Threshold: 2, Cooldown: 30 * time.Second}})
	t.Cleanup(gw.Close)
	backend := memdrv.NewBackend([]string{"a1"})
	d := memdrv.New("jdbc-mem", "mem", backend)
	if err := gw.RegisterDriver(d, d.Schema()); err != nil {
		t.Fatal(err)
	}
	url := "gridrm:mem://a:1"
	if err := gw.AddSource(core.SourceConfig{URL: url}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(gw, nil, nil))
	t.Cleanup(srv.Close)
	client := &Client{BaseURL: srv.URL, Principal: security.Principal{Name: "admin", Roles: []string{"operator"}}}
	ctx := context.Background()

	source := func() core.SourceInfo {
		t.Helper()
		srcs, err := client.Sources(ctx)
		if err != nil || len(srcs) != 1 {
			t.Fatalf("GET /sources: %v %+v", err, srcs)
		}
		return srcs[0]
	}
	down := func() float64 {
		t.Helper()
		ex, err := metrics.Scrape(gw.Metrics())
		if err != nil {
			t.Fatal(err)
		}
		return ex.Samples["gridrm_sources_down"]
	}
	if s := source(); s.Health != "healthy" || s.Failures != 0 {
		t.Fatalf("a new source reads %q with %d failures", s.Health, s.Failures)
	}

	backend.SetFailConnect(true)
	for i := 0; i < 2; i++ {
		if _, err := client.Query(ctx, core.QueryOptions{SQL: "SELECT * FROM Processor", Mode: core.ModeRealTime}); err != nil {
			t.Fatal(err)
		}
	}
	if s := source(); s.Health != "down" || s.Failures != 2 || s.Breaker != "open" {
		t.Fatalf("after 2 failed queries: health %q, failures %d, breaker %q", s.Health, s.Failures, s.Breaker)
	}
	if n := down(); n != 1 {
		t.Errorf("gridrm_sources_down = %v, want 1", n)
	}

	backend.SetFailConnect(false)
	now.Add(31)
	gw.ProbeAll(ctx)
	if s := source(); s.Health != "healthy" || s.Failures != 0 || s.Breaker != "closed" {
		t.Errorf("after the probe: health %q, failures %d, breaker %q", s.Health, s.Failures, s.Breaker)
	}
	if n := down(); n != 0 {
		t.Errorf("gridrm_sources_down = %v, want 0", n)
	}
	var recovered []event.Event
	for _, ev := range gw.Events().History(event.Filter{Name: "source-state"}, time.Time{}) {
		if ev.Severity == event.SeverityStatus {
			recovered = append(recovered, ev)
		}
	}
	if len(recovered) != 1 || !strings.HasPrefix(recovered[0].Detail, "down -> healthy") {
		t.Errorf("Status source-state events = %+v, want one down -> healthy", recovered)
	}

	st, err := client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Gateway.Probes != 1 || st.Gateway.ProbeFailures != 0 || st.Gateway.SourceTransitions != 3 {
		t.Errorf("probe counters: %+v", st.Gateway)
	}
	// The degradation counters ride along even when zero.
	if st.Gateway.StaleServes != 0 || st.Gateway.DriverPanics != 0 {
		t.Errorf("unexpected degradation counters: %+v", st.Gateway)
	}
}
