package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"gridrm/internal/breaker"
	"gridrm/internal/event"
	"gridrm/internal/qcache"
	"gridrm/internal/security"
)

// degradeFixture is a one-source gateway on a fake clock with a short cache
// TTL, so tests can expire the cache and fail the source at will.
type degradeFixture struct {
	g     *Gateway
	drv   *memDriver
	url   string
	now   *time.Time
	admin security.Principal
}

func newDegradeFixture(t *testing.T, cfg Config) *degradeFixture {
	t.Helper()
	now := time.Unix(200000, 0)
	fx := &degradeFixture{now: &now,
		admin: security.Principal{Name: "admin", Roles: []string{"operator"}}}
	cfg.Name = "degradesite"
	cfg.Clock = func() time.Time { return now }
	if cfg.Cache.TTL == 0 {
		cfg.Cache.TTL = 10 * time.Second
	}
	fx.g = New(cfg)
	t.Cleanup(fx.g.Close)
	fx.drv = &memDriver{name: "jdbc-mem", proto: "mem", hosts: []string{"h1"}, load: 1}
	if err := fx.g.RegisterDriver(fx.drv, fx.drv.schema()); err != nil {
		t.Fatal(err)
	}
	fx.url = "gridrm:mem://agent:1"
	if err := fx.g.AddSource(SourceConfig{URL: fx.url}); err != nil {
		t.Fatal(err)
	}
	return fx
}

func (fx *degradeFixture) query(t *testing.T, mode Mode) SourceStatus {
	t.Helper()
	resp, err := fx.g.QueryContext(context.Background(), QueryOptions{Principal: fx.admin,
		SQL: "SELECT * FROM Processor", Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Sources) != 1 {
		t.Fatalf("statuses = %+v", resp.Sources)
	}
	return resp.Sources[0]
}

// TestStaleCacheServedOnHarvestFailure is the first degradation tier: the
// cache entry has expired, the live harvest fails, and the gateway serves
// the expired-but-within-grace rows, annotated.
func TestStaleCacheServedOnHarvestFailure(t *testing.T) {
	fx := newDegradeFixture(t, Config{StaleGrace: 10 * time.Minute})

	if s := fx.query(t, ModeCached); s.Err != "" || s.Rows != 1 {
		t.Fatalf("priming query status %+v", s)
	}
	*fx.now = fx.now.Add(30 * time.Second) // past TTL, well within grace
	fx.drv.fail.Store(true)

	s := fx.query(t, ModeCached)
	if s.Degraded != DegradedStaleCache {
		t.Fatalf("Degraded = %q, want %q (status %+v)", s.Degraded, DegradedStaleCache, s)
	}
	if s.Err == "" {
		t.Error("degraded status hides the underlying failure")
	}
	if s.Rows != 1 {
		t.Errorf("degraded rows = %d, want 1", s.Rows)
	}
	if s.Age != 30*time.Second {
		t.Errorf("Age = %s, want 30s", s.Age)
	}
	if n := fx.g.Stats().StaleServes; n != 1 {
		t.Errorf("Stats.StaleServes = %d, want 1", n)
	}

	// Beyond TTL+grace the ladder is dry: unavailable, no rows.
	*fx.now = fx.now.Add(time.Hour)
	fx.g.HistoryStore().Prune() // the priming harvest's history sample ages out
	s = fx.query(t, ModeCached)
	if s.Degraded != "" || s.Rows != 0 {
		t.Errorf("exhausted ladder still served rows: %+v", s)
	}
}

// TestHistoryFallbackWhenCacheDry is the second tier: stale grace disabled,
// so the only fallback is the latest historical sample.
func TestHistoryFallbackWhenCacheDry(t *testing.T) {
	fx := newDegradeFixture(t, Config{StaleGrace: -1})

	if s := fx.query(t, ModeCached); s.Err != "" {
		t.Fatalf("priming query status %+v", s)
	}
	*fx.now = fx.now.Add(30 * time.Second) // cache expired; history MaxAge is 1h
	fx.drv.fail.Store(true)

	s := fx.query(t, ModeCached)
	if s.Degraded != DegradedHistory {
		t.Fatalf("Degraded = %q, want %q (status %+v)", s.Degraded, DegradedHistory, s)
	}
	if s.Rows != 1 || s.Age != 30*time.Second {
		t.Errorf("history fallback rows=%d age=%s", s.Rows, s.Age)
	}
	if n := fx.g.Stats().HistoryFallbacks; n != 1 {
		t.Errorf("Stats.HistoryFallbacks = %d, want 1", n)
	}
}

// TestDeniedSourceNotServedDegraded: a source the fine-grained policy denies
// to a principal stays denied when its live harvest fails and the ladder
// would serve it degraded, from the stale cache or from history. The denied
// principal gets what TestCachedDeniedSourceNotServedFromCache expects of the
// cache rung — "permission denied", no rows, no degraded serve — while an
// allowed principal gets the degraded rows.
func TestDeniedSourceNotServedDegraded(t *testing.T) {
	for _, rung := range []struct {
		degraded string
		grace    time.Duration
		serves   func(Stats) int64
	}{
		{DegradedStaleCache, 10 * time.Minute, func(s Stats) int64 { return s.StaleServes }},
		{DegradedHistory, -1, func(s Stats) int64 { return s.HistoryFallbacks }},
	} {
		t.Run(rung.degraded, func(t *testing.T) {
			fine := security.OpenFinePolicy()
			fx := newDegradeFixture(t, Config{StaleGrace: rung.grace, Fine: fine})
			fine.Add(security.FineRule{Principal: "guest", Source: fx.url, Decision: security.Deny})
			if s := fx.query(t, ModeCached); s.Err != "" || s.Rows != 1 {
				t.Fatalf("priming query status %+v", s) // fills the cache and history
			}
			*fx.now = fx.now.Add(30 * time.Second) // past TTL; within grace and history's MaxAge
			fx.drv.fail.Store(true)

			before := fx.g.Stats()
			resp, err := fx.g.QueryContext(context.Background(), QueryOptions{Principal: security.Principal{Name: "guest"},
				SQL: "SELECT * FROM Processor", Mode: ModeCached})
			if err != nil {
				t.Fatal(err)
			}
			after := fx.g.Stats()
			if len(resp.Sources) != 1 || resp.ResultSet.Len() != 0 {
				t.Fatalf("denied principal got %d rows, statuses %+v", resp.ResultSet.Len(), resp.Sources)
			}
			if st := resp.Sources[0]; st.Err != "permission denied" || st.Degraded != "" || st.Cached || st.Rows != 0 {
				t.Errorf("denied source answered: %+v", st)
			}
			if d, served := after.Denied-before.Denied, rung.serves(after)-rung.serves(before); d != 1 || served != 0 {
				t.Errorf("Denied +%d, %s serves +%d; want +1, +0", d, rung.degraded, served)
			}

			if s := fx.query(t, ModeCached); s.Degraded != rung.degraded || s.Rows != 1 {
				t.Errorf("allowed principal got %+v, want 1 row degraded %q", s, rung.degraded)
			}
		})
	}
}

// TestRealTimeModeFailsHonestly: an explicit real-time poll promised fresh
// rows; it must not serve stale ones.
func TestRealTimeModeFailsHonestly(t *testing.T) {
	fx := newDegradeFixture(t, Config{StaleGrace: 10 * time.Minute})
	fx.query(t, ModeCached)
	*fx.now = fx.now.Add(30 * time.Second)
	fx.drv.fail.Store(true)

	s := fx.query(t, ModeRealTime)
	if s.Degraded != "" || s.Rows != 0 {
		t.Errorf("real-time query degraded: %+v", s)
	}
	if s.Err == "" {
		t.Error("failure not reported")
	}
}

// TestBreakerSkipServesDegraded: an open breaker skips the harvest but the
// client still gets the stale rows.
func TestBreakerSkipServesDegraded(t *testing.T) {
	fx := newDegradeFixture(t, Config{
		StaleGrace: 10 * time.Minute,
		Breaker:    breaker.Options{Threshold: 1, Cooldown: time.Minute},
	})
	fx.query(t, ModeCached)
	*fx.now = fx.now.Add(30 * time.Second)
	fx.drv.fail.Store(true)
	fx.query(t, ModeCached) // failure opens the breaker (threshold 1)

	s := fx.query(t, ModeCached)
	if s.Err != ErrCircuitOpen {
		t.Fatalf("Err = %q, want %q", s.Err, ErrCircuitOpen)
	}
	if s.Degraded != DegradedStaleCache || s.Rows != 1 {
		t.Errorf("breaker-skipped status %+v, want stale rows", s)
	}
}

// TestPanicContainmentMidQuery is the acceptance scenario: a driver that
// panics mid-query produces a degraded result row and an Alert event, the
// gateway survives, and subsequent queries succeed.
func TestPanicContainmentMidQuery(t *testing.T) {
	for _, ctxAware := range []bool{true, false} {
		name := "legacy shim"
		if ctxAware {
			name = "context-aware"
		}
		t.Run(name, func(t *testing.T) {
			now := time.Unix(300000, 0)
			fx := newFaultFixture(t, Config{
				Clock:          func() time.Time { return now },
				HarvestTimeout: 2 * time.Second, // a deadline forces the legacy shim path
				StaleGrace:     10 * time.Minute,
				Cache:          qcache.Options{TTL: 10 * time.Second},
			})
			faults := fx.faults[0]
			faults.ContextAware(ctxAware)
			req := QueryOptions{Principal: fx.admin, SQL: "SELECT * FROM Processor",
				Sources: []string{fx.urls[0]}, Mode: ModeCached}

			if resp, err := fx.g.QueryContext(context.Background(), req); err != nil || resp.ResultSet.Len() != 1 {
				t.Fatalf("priming query: %v, %v", resp, err)
			}
			now = now.Add(30 * time.Second)
			faults.SetPanicEveryQuery(1)

			resp, err := fx.g.QueryContext(context.Background(), req)
			if err != nil {
				t.Fatalf("panicking driver escalated to a query error: %v", err)
			}
			s := fx.status(t, resp, fx.urls[0])
			if !strings.Contains(s.Err, "panic") {
				t.Errorf("Err = %q, want a contained panic", s.Err)
			}
			if s.Degraded != DegradedStaleCache || s.Rows != 1 {
				t.Errorf("degraded status %+v, want stale rows", s)
			}
			if resp.ResultSet.Len() != 1 {
				t.Errorf("rows = %d, want the stale row", resp.ResultSet.Len())
			}
			if n := fx.g.Stats().DriverPanics; n != 1 {
				t.Errorf("Stats.DriverPanics = %d, want 1", n)
			}

			evs := fx.g.Events().History(event.Filter{Name: "driver-panic"}, time.Time{})
			if len(evs) != 1 {
				t.Fatalf("driver-panic events = %+v, want 1", evs)
			}
			if evs[0].Severity != event.SeverityAlert {
				t.Errorf("severity = %q, want alert", evs[0].Severity)
			}
			if !strings.Contains(evs[0].Detail, "injected panic") ||
				!strings.Contains(evs[0].Detail, "goroutine") {
				t.Errorf("event detail missing panic value or stack:\n%s", evs[0].Detail)
			}

			// The gateway survives and serves fresh rows once the fault clears.
			faults.SetPanicEveryQuery(0)
			now = now.Add(time.Minute)
			resp, err = fx.g.QueryContext(context.Background(), QueryOptions{Principal: fx.admin, SQL: "SELECT * FROM Processor",
				Sources: []string{fx.urls[0]}, Mode: ModeRealTime})
			if err != nil {
				t.Fatal(err)
			}
			if s := fx.status(t, resp, fx.urls[0]); s.Err != "" || s.Rows != 1 {
				t.Errorf("post-panic query status %+v", s)
			}
		})
	}
}

// TestPanicOnConnectContained: a panic in Driver.Connect is contained at the
// pool's dial boundary and reported like any connect failure.
func TestPanicOnConnectContained(t *testing.T) {
	fx := newFaultFixture(t, Config{})
	fx.faults[0].SetPanicEveryConnect(1)

	resp, err := fx.g.QueryContext(context.Background(), QueryOptions{Principal: fx.admin, SQL: "SELECT * FROM Processor",
		Sources: []string{fx.urls[0]}, Mode: ModeRealTime})
	if err != nil {
		t.Fatalf("connect panic escalated: %v", err)
	}
	if s := fx.status(t, resp, fx.urls[0]); !strings.Contains(s.Err, "panic") {
		t.Errorf("Err = %q, want a contained panic", s.Err)
	}
	if n := fx.g.Stats().DriverPanics; n < 1 {
		t.Errorf("Stats.DriverPanics = %d, want >= 1", n)
	}
}

// TestShutdownDrainsInflightQueries: Shutdown waits for running queries,
// then refuses new ones with ErrGatewayClosed.
func TestShutdownDrainsInflightQueries(t *testing.T) {
	fx := newFaultFixture(t, Config{})
	fx.faults[0].SetQueryLatency(150 * time.Millisecond)
	req := QueryOptions{Principal: fx.admin, SQL: "SELECT * FROM Processor",
		Sources: []string{fx.urls[0]}, Mode: ModeRealTime}

	type result struct {
		resp *Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := fx.g.QueryContext(context.Background(), req)
		done <- result{resp, err}
	}()
	// Wait for the query to reach the driver before shutting down.
	deadline := time.Now().Add(2 * time.Second)
	for fx.faults[0].Queries() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never reached the driver")
		}
		time.Sleep(time.Millisecond)
	}

	if err := fx.g.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-done
	if r.err != nil || r.resp.ResultSet.Len() != 1 {
		t.Fatalf("in-flight query was not drained: %v, %v", r.resp, r.err)
	}

	if _, err := fx.g.QueryContext(context.Background(), req); !errors.Is(err, ErrGatewayClosed) {
		t.Errorf("post-shutdown query err = %v, want ErrGatewayClosed", err)
	}
}

// TestShutdownHonoursDeadline: a query that refuses to finish bounds the
// drain at the caller's deadline.
func TestShutdownHonoursDeadline(t *testing.T) {
	fx := newFaultFixture(t, Config{HarvestTimeout: -1})
	hung := fx.faults[0]
	hung.SetHangQuery(true)
	t.Cleanup(hung.Release)
	req := QueryOptions{Principal: fx.admin, SQL: "SELECT * FROM Processor",
		Sources: []string{fx.urls[0]}, Mode: ModeRealTime}

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = fx.g.QueryContext(context.Background(), req)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for hung.HangsServed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never hung")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := fx.g.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want deadline exceeded", err)
	}
	hung.Release()
	<-done
}

// TestProberRecoversOpenBreaker: the background sweep, not user traffic,
// takes a recovered source's breaker through half-open back to closed — and
// respects the cooldown while the breaker is open. The source reads down
// while its breaker is open, and healthy again after the one probe.
func TestProberRecoversOpenBreaker(t *testing.T) {
	fx := newDegradeFixture(t, Config{
		Breaker: breaker.Options{Threshold: 1, Cooldown: 30 * time.Second},
	})
	fx.drv.fail.Store(true)
	fx.query(t, ModeRealTime) // failure opens the breaker

	source := func() SourceInfo {
		t.Helper()
		info, ok := fx.g.Source(fx.url)
		if !ok {
			t.Fatal("source vanished")
		}
		return info
	}
	if info := source(); info.Breaker != "open" || info.Health != "down" || info.Failures != 1 {
		t.Fatalf("after the failed query: breaker %q, health %q, failures %d", info.Breaker, info.Health, info.Failures)
	}

	// Cooldown not elapsed: the probe is skipped, not counted as a failure
	// (a failure would extend the cooldown forever).
	fx.g.ProbeAll(context.Background())
	if st := fx.g.Stats(); st.ProbeSkipped != 1 || st.Probes != 0 {
		t.Fatalf("probe stats after skipped sweep: probes %d, skipped %d", st.Probes, st.ProbeSkipped)
	}
	if info := source(); info.Health != "down" || info.Failures != 1 {
		t.Errorf("skipped probe moved the state: health %q, failures %d", info.Health, info.Failures)
	}

	// The agent recovers and the cooldown elapses: the next sweep claims the
	// half-open slot and closes the breaker with no client in the loop.
	fx.drv.fail.Store(false)
	*fx.now = fx.now.Add(31 * time.Second)
	fx.g.ProbeAll(context.Background())
	if info := source(); info.Breaker != "closed" || info.Health != "healthy" || info.Failures != 0 {
		t.Errorf("after the probe: breaker %q, health %q, failures %d", info.Breaker, info.Health, info.Failures)
	}

	// Both edges surfaced as events: the Alert into down, one Status back.
	evs := fx.g.Events().History(event.Filter{Name: "source-state"}, time.Time{})
	if len(evs) != 2 || evs[0].Severity != event.SeverityAlert || evs[1].Severity != event.SeverityStatus ||
		evs[1].Detail != "down -> healthy" {
		t.Errorf("source-state events = %+v", evs)
	}

	// And a query now reaches the source directly.
	if s := fx.query(t, ModeRealTime); s.Err != "" || s.Rows != 1 {
		t.Errorf("post-recovery query status %+v", s)
	}
}

// TestProberMarksDownSource: consecutive probe failures degrade then down a
// source at the breaker's threshold, with an Alert event on each transition.
func TestProberMarksDownSource(t *testing.T) {
	fx := newDegradeFixture(t, Config{Breaker: breaker.Options{Threshold: 2}})
	fx.query(t, ModeRealTime) // a clean pass: healthy
	fx.g.ProbeAll(context.Background())
	health := func() string {
		info, _ := fx.g.Source(fx.url)
		return info.Health
	}
	if h := health(); h != "healthy" {
		t.Fatalf("health = %q", h)
	}

	fx.drv.fail.Store(true)
	fx.g.Pool().CloseAll() // drop the idle conn so probes must redial
	fx.g.ProbeAll(context.Background())
	if h := health(); h != "degraded" {
		t.Fatalf("after 1 failure health = %q", h)
	}
	fx.g.ProbeAll(context.Background())
	if h := health(); h != "down" {
		t.Fatalf("after 2 failures health = %q", h)
	}

	var alerts []string
	for _, ev := range fx.g.Events().History(event.Filter{Name: "source-state"}, time.Time{}) {
		if ev.Severity == event.SeverityAlert {
			alerts = append(alerts, ev.Detail)
		}
	}
	if len(alerts) != 2 || !strings.HasPrefix(alerts[0], "healthy -> degraded: ") || !strings.HasPrefix(alerts[1], "degraded -> down: ") {
		t.Errorf("alert transitions = %q, want healthy -> degraded, degraded -> down", alerts)
	}
}
