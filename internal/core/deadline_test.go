package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridrm/internal/breaker"
	"gridrm/internal/drivers/faultdrv"
	"gridrm/internal/security"
)

// faultFixture is a gateway over three single-host sources, each served by
// its own faultdrv-wrapped in-memory driver so tests can inject latency,
// errors and hangs per source.
type faultFixture struct {
	g      *Gateway
	faults []*faultdrv.Faults
	urls   []string
	admin  security.Principal
}

func newFaultFixture(t *testing.T, cfg Config) *faultFixture {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "faultsite"
	}
	fx := &faultFixture{
		g:     New(cfg),
		admin: security.Principal{Name: "admin", Roles: []string{"operator"}},
	}
	t.Cleanup(fx.g.Close)
	for i, proto := range []string{"fa", "fb", "fc"} {
		inner := &memDriver{name: "fault-" + proto, proto: proto,
			hosts: []string{proto + "1"}, load: float64(i + 1)}
		faults := faultdrv.NewFaults()
		wrapped := faultdrv.New(inner.name, inner, faults)
		if err := fx.g.RegisterDriver(wrapped, inner.schema()); err != nil {
			t.Fatal(err)
		}
		url := "gridrm:" + proto + "://agent:1"
		if err := fx.g.AddSource(SourceConfig{URL: url}); err != nil {
			t.Fatal(err)
		}
		fx.faults = append(fx.faults, faults)
		fx.urls = append(fx.urls, url)
	}
	return fx
}

func (fx *faultFixture) status(t *testing.T, resp *Response, url string) SourceStatus {
	t.Helper()
	for _, s := range resp.Sources {
		if s.Source == url {
			return s
		}
	}
	t.Fatalf("no status for %s in %+v", url, resp.Sources)
	return SourceStatus{}
}

// TestHungSourceYieldsPartialResponse is the acceptance scenario: three
// sources, one hung, and the query still answers within the configured
// deadline with the two live sources' rows, the hung one marked timed out.
// Every deadline layer is exercised — the per-source harvest timeout, a
// caller-supplied context deadline, and the gateway's own query timeout —
// against both a context-aware driver and a legacy driver behind the
// goroutine shim.
func TestHungSourceYieldsPartialResponse(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		ctxAware bool
		reqCtx   func() (context.Context, context.CancelFunc)
	}{
		{
			name:     "harvest timeout, context-aware driver",
			cfg:      Config{HarvestTimeout: 80 * time.Millisecond},
			ctxAware: true,
		},
		{
			name:     "harvest timeout, legacy driver via shim",
			cfg:      Config{HarvestTimeout: 80 * time.Millisecond},
			ctxAware: false,
		},
		{
			name:     "caller deadline, harvest timeout off",
			cfg:      Config{HarvestTimeout: -1},
			ctxAware: true,
			reqCtx: func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 80*time.Millisecond)
			},
		},
		{
			name:     "gateway query timeout, harvest timeout off",
			cfg:      Config{HarvestTimeout: -1, QueryTimeout: 80 * time.Millisecond},
			ctxAware: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFaultFixture(t, tc.cfg)
			hung := fx.faults[2]
			hung.ContextAware(tc.ctxAware)
			hung.SetHangQuery(true)
			t.Cleanup(hung.Release)

			ctx := context.Background()
			if tc.reqCtx != nil {
				c, cancel := tc.reqCtx()
				defer cancel()
				ctx = c
			}
			start := time.Now()
			resp, err := fx.g.QueryContext(ctx, QueryOptions{Principal: fx.admin,
				SQL: "SELECT HostName FROM Processor ORDER BY HostName", Mode: ModeRealTime})
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("partial failure escalated: %v", err)
			}
			if elapsed > 2*time.Second {
				t.Fatalf("query took %s, deadline not enforced", elapsed)
			}
			if resp.ResultSet.Len() != 2 {
				t.Errorf("rows = %d, want 2 from the live sources", resp.ResultSet.Len())
			}
			for _, url := range fx.urls[:2] {
				if s := fx.status(t, resp, url); s.Err != "" {
					t.Errorf("live source %s reported %q", url, s.Err)
				}
			}
			if s := fx.status(t, resp, fx.urls[2]); s.Err != ErrTimedOut {
				t.Errorf("hung source Err = %q, want %q", s.Err, ErrTimedOut)
			}
			if n := fx.g.Stats().Timeouts; n < 1 {
				t.Errorf("Stats.Timeouts = %d, want >= 1", n)
			}
		})
	}
}

// TestBreakerOpensAndRecovers drives one source's breaker around the full
// closed -> open -> half-open -> closed cycle, and through a failed
// half-open probe that re-opens without recounting the open transition.
func TestBreakerOpensAndRecovers(t *testing.T) {
	now := time.Unix(90000, 0)
	g := New(Config{Name: "breaksite",
		Clock:   func() time.Time { return now },
		Breaker: breaker.Options{Threshold: 2, Cooldown: 30 * time.Second}})
	defer g.Close()
	drv := &memDriver{name: "jdbc-mem", proto: "mem", hosts: []string{"h1"}, load: 1}
	if err := g.RegisterDriver(drv, drv.schema()); err != nil {
		t.Fatal(err)
	}
	url := "gridrm:mem://agent:1"
	if err := g.AddSource(SourceConfig{URL: url}); err != nil {
		t.Fatal(err)
	}
	admin := security.Principal{Name: "admin", Roles: []string{"operator"}}
	query := func() SourceStatus {
		t.Helper()
		resp, err := g.QueryContext(context.Background(), QueryOptions{Principal: admin, SQL: "SELECT * FROM Processor", Mode: ModeRealTime})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Sources) != 1 {
			t.Fatalf("statuses = %+v", resp.Sources)
		}
		return resp.Sources[0]
	}
	breakerState := func() string {
		t.Helper()
		info, ok := g.Source(url)
		if !ok {
			t.Fatal("source vanished")
		}
		return info.Breaker
	}

	drv.fail.Store(true)
	query() // failure 1 of 2: breaker still closed
	if s := breakerState(); s != "closed" {
		t.Fatalf("after 1 failure breaker = %q", s)
	}
	query() // failure 2: breaker opens
	if s := breakerState(); s != "open" {
		t.Fatalf("after %d failures breaker = %q, want open", 2, s)
	}
	if n := g.Stats().BreakerOpens; n != 1 {
		t.Errorf("BreakerOpens = %d, want 1", n)
	}

	// While open, harvests are skipped without touching the source.
	errsBefore := g.Stats().HarvestErrors
	if s := query(); s.Err != ErrCircuitOpen {
		t.Fatalf("open-breaker status = %q, want %q", s.Err, ErrCircuitOpen)
	}
	if n := g.Stats().BreakerSkipped; n != 1 {
		t.Errorf("BreakerSkipped = %d, want 1", n)
	}
	if got := g.Stats().HarvestErrors; got != errsBefore {
		t.Errorf("skipped harvest still reached the source (errors %d -> %d)", errsBefore, got)
	}

	// Cooldown elapses and the agent recovers: the half-open probe closes it.
	now = now.Add(31 * time.Second)
	if s := breakerState(); s != "half-open" {
		t.Fatalf("after cooldown breaker = %q, want half-open", s)
	}
	drv.fail.Store(false)
	if s := query(); s.Err != "" || s.Rows != 1 {
		t.Fatalf("half-open probe status = %+v", s)
	}
	if s := breakerState(); s != "closed" {
		t.Errorf("after successful probe breaker = %q", s)
	}

	// A failed half-open probe re-opens for another cooldown, and the
	// re-open is not counted as a fresh closed->open transition.
	drv.fail.Store(true)
	query()
	query()
	if n := g.Stats().BreakerOpens; n != 2 {
		t.Fatalf("BreakerOpens = %d, want 2", n)
	}
	now = now.Add(31 * time.Second)
	if s := query(); s.Err == ErrCircuitOpen {
		t.Fatal("half-open probe was not admitted")
	}
	if s := breakerState(); s != "open" {
		t.Errorf("after failed probe breaker = %q, want open", s)
	}
	if n := g.Stats().BreakerOpens; n != 2 {
		t.Errorf("failed probe recounted opens: %d", n)
	}
	if s := query(); s.Err != ErrCircuitOpen {
		t.Errorf("re-opened breaker admitted a harvest: %+v", s)
	}
}

// TestCancellationReleasesResources proves abandoned queries do not leak:
// after repeated timed-out queries against a hung legacy (shim-path) source,
// releasing the hang returns the goroutine count to its baseline and the
// pool keeps serving all three sources.
func TestCancellationReleasesResources(t *testing.T) {
	// Breaker off: five consecutive timeouts would otherwise open it and
	// the post-release query would be skipped rather than served.
	fx := newFaultFixture(t, Config{HarvestTimeout: 60 * time.Millisecond,
		Breaker: breaker.Options{Threshold: -1}})
	req := QueryOptions{Principal: fx.admin, SQL: "SELECT * FROM Processor", Mode: ModeRealTime}

	// Warm the pool with one clean pass.
	if resp, err := fx.g.QueryContext(context.Background(), req); err != nil || resp.ResultSet.Len() != 3 {
		t.Fatalf("warm-up: %v, %v", resp, err)
	}
	baseline := runtime.NumGoroutine()

	hung := fx.faults[2]
	hung.ContextAware(false) // legacy path: each timeout parks a shim goroutine
	hung.SetHangQuery(true)
	for i := 0; i < 5; i++ {
		resp, err := fx.g.QueryContext(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if s := fx.status(t, resp, fx.urls[2]); s.Err != ErrTimedOut {
			t.Fatalf("round %d: hung source status %q", i, s.Err)
		}
	}
	if served := hung.HangsServed(); served < 5 {
		t.Fatalf("hangs served = %d, want >= 5", served)
	}

	// Releasing the hang must let every parked goroutine unwind.
	hung.SetHangQuery(false)
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, baseline %d: timed-out harvests leaked",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The gateway is fully serviceable again.
	hung.ContextAware(true)
	resp, err := fx.g.QueryContext(context.Background(), req)
	if err != nil || resp.ResultSet.Len() != 3 {
		t.Fatalf("post-release query: %v, %v", resp, err)
	}
	for _, s := range resp.Sources {
		if s.Err != "" {
			t.Errorf("post-release status %+v", s)
		}
	}
}

// TestLateConnectionAdoptedByPool: when a connect outlives the caller's
// deadline the dial is not abandoned to leak — the eventual connection is
// adopted into the idle pool and serves the next query.
func TestLateConnectionAdoptedByPool(t *testing.T) {
	fx := newFaultFixture(t, Config{HarvestTimeout: 50 * time.Millisecond})
	slow := fx.faults[0]
	slow.SetConnectLatency(250 * time.Millisecond)
	req := QueryOptions{Principal: fx.admin, SQL: "SELECT * FROM Processor",
		Sources: []string{fx.urls[0]}, Mode: ModeRealTime}

	resp, err := fx.g.QueryContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if s := fx.status(t, resp, fx.urls[0]); s.Err != ErrTimedOut {
		t.Fatalf("slow connect status = %q, want %q", s.Err, ErrTimedOut)
	}

	// The dial finishes after the deadline; the pool adopts the connection.
	deadline := time.Now().Add(2 * time.Second)
	for fx.g.Pool().IdleCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("late connection was not adopted (idle = %d)", fx.g.Pool().IdleCount())
		}
		time.Sleep(10 * time.Millisecond)
	}

	slow.SetConnectLatency(0)
	hitsBefore := fx.g.Pool().Stats().Hits
	resp, err = fx.g.QueryContext(context.Background(), req)
	if err != nil || resp.ResultSet.Len() != 1 {
		t.Fatalf("follow-up query: %v, %v", resp, err)
	}
	if hits := fx.g.Pool().Stats().Hits; hits <= hitsBefore {
		t.Errorf("adopted connection not reused (hits %d -> %d)", hitsBefore, hits)
	}
}

// TestRetryRecoversTransientFailure: with one retry configured, an
// every-other-query fault is invisible to clients and surfaces only in the
// Retries counter.
func TestRetryRecoversTransientFailure(t *testing.T) {
	fx := newFaultFixture(t, Config{Retry: RetryOptions{Attempts: 1, Backoff: time.Millisecond}})
	fx.faults[0].SetErrorEvery(2) // inner queries 2, 4, 6... fail
	req := QueryOptions{Principal: fx.admin, SQL: "SELECT * FROM Processor",
		Sources: []string{fx.urls[0]}, Mode: ModeRealTime}

	for round := 1; round <= 2; round++ {
		resp, err := fx.g.QueryContext(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if s := fx.status(t, resp, fx.urls[0]); s.Err != "" || s.Rows != 1 {
			t.Fatalf("round %d status = %+v", round, s)
		}
	}
	// Round 2's first attempt failed (query #2) and the retry (query #3)
	// answered, so the client saw two clean responses.
	if n := fx.g.Stats().Retries; n != 1 {
		t.Errorf("Stats.Retries = %d, want 1", n)
	}
	if n := fx.g.Stats().HarvestErrors; n != 0 {
		t.Errorf("Stats.HarvestErrors = %d, want 0 (retry recovered)", n)
	}
}

// hangingRouter is a Global layer whose remote queries block until released,
// modelling an unreachable peer gateway behind a router that ignores its
// context.
type hangingRouter struct {
	release chan struct{}
}

func (r *hangingRouter) RemoteQueryContext(_ context.Context, site string, req QueryOptions) (*Response, error) {
	<-r.release
	return nil, errors.New("released late")
}

func (r *hangingRouter) FanoutPlan(context.Context) ([]FanoutLeg, error) {
	return []FanoutLeg{{Target: "siteSlow"}}, nil
}

// TestAllSitesStragglerTimesOut: an all-sites fan-out with one unreachable
// site still returns the local rows at the deadline, with the straggler site
// reported timed out.
func TestAllSitesStragglerTimesOut(t *testing.T) {
	fx := newFaultFixture(t, Config{})
	router := &hangingRouter{release: make(chan struct{})}
	fx.g.SetGlobalRouter(router)
	t.Cleanup(func() { close(router.release) })

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	resp, err := fx.g.QueryContext(ctx, QueryOptions{Principal: fx.admin,
		SQL: "SELECT * FROM Processor", Site: AllSites, Mode: ModeRealTime})
	if err != nil {
		t.Fatalf("all-sites query failed outright: %v", err)
	}
	if resp.ResultSet.Len() != 3 {
		t.Errorf("rows = %d, want 3 local rows", resp.ResultSet.Len())
	}
	var slow *SourceStatus
	for i := range resp.Sources {
		if resp.Sources[i].Source == "site:siteSlow" {
			slow = &resp.Sources[i]
		}
	}
	if slow == nil {
		t.Fatalf("no status for the hung site: %+v", resp.Sources)
	}
	if !strings.HasPrefix(slow.Err, ErrTimedOut) {
		t.Errorf("hung site Err = %q, want %q prefix", slow.Err, ErrTimedOut)
	}
	if n := fx.g.Stats().Timeouts; n < 1 {
		t.Errorf("Stats.Timeouts = %d, want >= 1", n)
	}
}
