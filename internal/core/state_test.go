package core

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/breaker"
	"gridrm/internal/driver"
	"gridrm/internal/event"
	"gridrm/internal/glue"
	"gridrm/internal/metrics"
	"gridrm/internal/security"
	"gridrm/internal/trace"
)

// stateFixture is a gateway on a fake clock with one memDriver source per
// driver given, so each source can be failed on its own.
type stateFixture struct {
	g    *Gateway
	now  *time.Time
	urls []string
}

func newStateFixture(t *testing.T, cfg Config, drvs ...*memDriver) *stateFixture {
	t.Helper()
	now := time.Unix(300000, 0)
	fx := &stateFixture{now: &now}
	cfg.Name = "statesite"
	cfg.Clock = func() time.Time { return now }
	fx.g = New(cfg)
	t.Cleanup(fx.g.Close)
	for _, d := range drvs {
		fx.add(t, d, d)
	}
	return fx
}

// add registers d, whose schema and protocol are md's, and one source on it.
func (fx *stateFixture) add(t *testing.T, d driver.Driver, md *memDriver) {
	t.Helper()
	if err := fx.g.RegisterDriver(d, md.schema()); err != nil {
		t.Fatal(err)
	}
	url := "gridrm:" + md.proto + "://agent:1"
	if err := fx.g.AddSource(SourceConfig{URL: url, Drivers: []string{md.name}}); err != nil {
		t.Fatal(err)
	}
	fx.urls = append(fx.urls, url)
}

func (fx *stateFixture) source(t *testing.T, url string) SourceInfo {
	t.Helper()
	info, ok := fx.g.Source(url)
	if !ok {
		t.Fatalf("source %s vanished", url)
	}
	return info
}

// query runs one real-time query of every source under ctx.
func (fx *stateFixture) query(ctx context.Context) (*Response, error) {
	return fx.g.QueryContext(ctx, QueryOptions{Principal: security.Principal{Name: "admin", Roles: []string{"operator"}},
		SQL: "SELECT * FROM Processor", Mode: ModeRealTime})
}

func (fx *stateFixture) events(name string) []event.Event {
	return fx.g.Events().History(event.Filter{Name: name}, time.Time{})
}

// TestProbeAllTracksStates: sweeps move a failing source healthy → degraded
// → down at the breaker's threshold and straight back to healthy on one
// success after the cooldown, with one source-state event per edge, while a
// live source stays healthy and raises none.
func TestProbeAllTracksStates(t *testing.T) {
	a := &memDriver{name: "jdbc-a", proto: "a", hosts: []string{"h1"}, load: 1}
	b := &memDriver{name: "jdbc-b", proto: "b", hosts: []string{"h1"}, load: 1}
	fx := newStateFixture(t, Config{Breaker: breaker.Options{Threshold: 3, Cooldown: 30 * time.Second}}, a, b)
	srcA, srcB := fx.urls[0], fx.urls[1]
	if info := fx.source(t, srcB); info.Health != "healthy" || info.Failures != 0 {
		t.Fatalf("a new source reads %q with %d failures", info.Health, info.Failures)
	}

	b.fail.Store(true)
	fx.g.ProbeAll(context.Background())
	if info := fx.source(t, srcA); info.Health != "healthy" {
		t.Errorf("src-a health = %q", info.Health)
	}
	info := fx.source(t, srcB)
	if info.Health != "degraded" || info.Failures != 1 || !strings.HasSuffix(info.LastError, "jdbc-b: unreachable") {
		t.Fatalf("src-b after 1 failure: %+v", info)
	}

	// Two more failures reach the threshold: down, and the breaker open.
	fx.g.ProbeAll(context.Background())
	fx.g.ProbeAll(context.Background())
	if info := fx.source(t, srcB); info.Health != "down" || info.Failures != 3 || info.Breaker != "open" {
		t.Fatalf("src-b after 3 failures: %+v", info)
	}

	// Recovery resets everything in one sweep once the cooldown is over.
	b.fail.Store(false)
	*fx.now = fx.now.Add(31 * time.Second)
	fx.g.ProbeAll(context.Background())
	if info := fx.source(t, srcB); info.Health != "healthy" || info.Failures != 0 || info.LastError != "" {
		t.Fatalf("src-b after recovery: %+v", info)
	}

	want := []string{
		"Alert healthy -> degraded: " + info.LastError,
		"Alert degraded -> down: " + info.LastError,
		"Status down -> healthy",
	}
	evs := fx.events("source-state")
	if len(evs) != len(want) {
		t.Fatalf("source-state events = %+v, want %q", evs, want)
	}
	for i, ev := range evs {
		if got := ev.Severity + " " + ev.Detail; ev.Source != srcB || got != want[i] {
			t.Errorf("event %d: %s %q, want %s %q", i, ev.Source, got, srcB, want[i])
		}
	}
	st := fx.g.Stats()
	if st.Probes != 8 || st.ProbeFailures != 3 || st.ProbeSkipped != 0 || st.SourceTransitions != 3 {
		t.Errorf("stats: probes %d, failures %d, skipped %d, transitions %d",
			st.Probes, st.ProbeFailures, st.ProbeSkipped, st.SourceTransitions)
	}
}

// TestSkippedProbesCarryNoInformation: a sweep that meets an open breaker
// mid-cooldown passes the source over and leaves its record as it was — an
// open breaker's cooldown must not read as a new failure.
func TestSkippedProbesCarryNoInformation(t *testing.T) {
	a := &memDriver{name: "jdbc-a", proto: "a", hosts: []string{"h1"}, load: 1}
	fx := newStateFixture(t, Config{Breaker: breaker.Options{Threshold: 1, Cooldown: 30 * time.Second}}, a)
	a.fail.Store(true)
	fx.g.ProbeAll(context.Background())
	before := fx.source(t, fx.urls[0])
	if before.Health != "down" {
		t.Fatalf("after a failed probe: %+v", before)
	}

	*fx.now = fx.now.Add(10 * time.Second)
	fx.g.ProbeAll(context.Background())
	after := fx.source(t, fx.urls[0])
	if after.Health != before.Health || after.Failures != before.Failures || after.Breaker != before.Breaker ||
		after.LastError != before.LastError || after.LastErrorAt != before.LastErrorAt {
		t.Errorf("skipped probe changed the source: %+v -> %+v", before, after)
	}
	st := fx.g.Stats()
	if st.ProbeSkipped != 1 || st.Probes != 1 || st.ProbeFailures != 1 || st.SourceTransitions != 1 {
		t.Errorf("stats: probes %d, failures %d, skipped %d, transitions %d",
			st.Probes, st.ProbeFailures, st.ProbeSkipped, st.SourceTransitions)
	}
}

// TestStartIsNoOpWithoutInterval: with no ProbeInterval the background loop
// sweeps nothing, and Close does not wait on a sweep.
func TestStartIsNoOpWithoutInterval(t *testing.T) {
	for _, interval := range []time.Duration{0, -time.Second} {
		a := &memDriver{name: "jdbc-a", proto: "a", hosts: []string{"h1"}, load: 1}
		fx := newStateFixture(t, Config{ProbeInterval: interval}, a)
		fx.g.Close()
		if n := fx.g.Stats().Probes; n != 0 {
			t.Errorf("interval %s: %d probes", interval, n)
		}
	}
}

// TestStartStopLifecycle: with ProbeInterval set the background loop sweeps
// on its own, and Shutdown joins it: once Close returns no further sweep
// runs, though a manual ProbeAll still does.
func TestStartStopLifecycle(t *testing.T) {
	a := &memDriver{name: "jdbc-a", proto: "a", hosts: []string{"h1"}, load: 1}
	fx := newStateFixture(t, Config{ProbeInterval: time.Millisecond}, a)
	waitFor(t, "two background probes", func() bool { return fx.g.Stats().Probes >= 2 })
	fx.g.Close()
	n := fx.g.Stats().Probes
	fx.g.ProbeAll(context.Background())
	if after := fx.g.Stats().Probes; after != n+1 {
		t.Errorf("manual probe after Close: probes %d -> %d, want exactly one more", n, after)
	}
}

// TestQueriesAloneDriveSourceState: with no probe ever run, real-time
// queries that fail take a source down at the breaker's threshold — on
// Source and on gridrm_sources_down — and one successful query after the
// cooldown brings it back with one Status source-state event.
func TestQueriesAloneDriveSourceState(t *testing.T) {
	a := &memDriver{name: "jdbc-a", proto: "a", hosts: []string{"h1"}, load: 1}
	fx := newStateFixture(t, Config{Breaker: breaker.Options{Threshold: 2, Cooldown: 30 * time.Second}}, a)
	down := func() float64 {
		ex, err := metrics.Scrape(fx.g.Metrics())
		if err != nil {
			t.Fatal(err)
		}
		return ex.Samples["gridrm_sources_down"]
	}
	a.fail.Store(true)
	for i := 0; i < 2; i++ {
		if _, err := fx.query(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if info := fx.source(t, fx.urls[0]); info.Health != "down" || info.Failures != 2 || info.Breaker != "open" {
		t.Fatalf("after 2 failed queries: %+v", info)
	}
	if n := down(); n != 1 {
		t.Errorf("gridrm_sources_down = %v, want 1", n)
	}

	a.fail.Store(false)
	*fx.now = fx.now.Add(31 * time.Second)
	resp, err := fx.query(context.Background())
	if err != nil || resp.Sources[0].Err != "" {
		t.Fatalf("recovery query: %v %+v", err, resp)
	}
	if info := fx.source(t, fx.urls[0]); info.Health != "healthy" || info.Failures != 0 {
		t.Errorf("after the recovery query: %+v", info)
	}
	if n := down(); n != 0 {
		t.Errorf("gridrm_sources_down = %v, want 0", n)
	}
	var status int
	for _, ev := range fx.events("source-state") {
		if ev.Severity == event.SeverityStatus {
			status++
		}
	}
	if status != 1 {
		t.Errorf("%d Status source-state events, want 1", status)
	}
	if st := fx.g.Stats(); st.Probes != 0 || st.ProbeSkipped != 0 {
		t.Errorf("a probe ran: %+v", st)
	}
}

// TestDisabledBreakerSourceNeverDown: with the breaker disabled every call
// goes through, and failures still count: the source reads degraded, never
// down.
func TestDisabledBreakerSourceNeverDown(t *testing.T) {
	a := &memDriver{name: "jdbc-a", proto: "a", hosts: []string{"h1"}, load: 1}
	fx := newStateFixture(t, Config{Breaker: breaker.Options{Threshold: -1}}, a)
	a.fail.Store(true)
	for i := 0; i < 10; i++ {
		fx.g.ProbeAll(context.Background())
	}
	if info := fx.source(t, fx.urls[0]); info.Health != "degraded" || info.Failures != 10 || info.Breaker != "closed" {
		t.Errorf("after 10 failures: %+v", info)
	}
	if st := fx.g.Stats(); st.Probes != 10 || st.SourceTransitions != 1 {
		t.Errorf("probes %d, transitions %d", st.Probes, st.SourceTransitions)
	}
}

// TestAbandonedHarvestReleasesHalfOpenSlot: the source goroutine of a
// real-time query whose context is already cancelled claims the half-open
// slot of an open breaker whose cooldown is over, then abandons its harvest
// before the driver. The slot goes back unused and nothing is noted, so the
// next query harvests. (harvestSource is called directly: the query itself
// returns before its straggler goroutine runs.)
func TestAbandonedHarvestReleasesHalfOpenSlot(t *testing.T) {
	a := &memDriver{name: "jdbc-a", proto: "a", hosts: []string{"h1"}, load: 1}
	fx := newStateFixture(t, Config{Breaker: breaker.Options{Threshold: 1, Cooldown: 30 * time.Second}}, a)
	a.fail.Store(true)
	if _, err := fx.query(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.fail.Store(false)
	*fx.now = fx.now.Add(31 * time.Second)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	st, _ := fx.g.harvestSource(cancelled, cancelled, ModeRealTime, fx.urls[0],
		glue.MustLookup(glue.GroupProcessor), harvestSQL(glue.GroupProcessor), trace.Span{})
	if st.Err != ErrTimedOut || a.harvests.Load() != 0 {
		t.Fatalf("abandoned harvest: status %+v, %d driver harvests", st, a.harvests.Load())
	}
	if info := fx.source(t, fx.urls[0]); info.Failures != 1 || !strings.HasSuffix(info.LastError, "jdbc-a: unreachable") {
		t.Errorf("the abandoned harvest was noted: %+v", info)
	}

	resp, err := fx.query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s := resp.Sources[0]; s.Err != "" || s.Rows != 1 {
		t.Fatalf("query after the abandoned one: %+v", s)
	}
	if info := fx.source(t, fx.urls[0]); info.Health != "healthy" || info.Breaker != "closed" {
		t.Errorf("after the recovery query: %+v", info)
	}
}

// hangingDriver is a memDriver whose connects, while hang is set, block
// until release is closed: a dial that hangs until its caller gives up.
type hangingDriver struct {
	*memDriver
	hang    atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (d *hangingDriver) Connect(url string, props driver.Properties) (driver.Conn, error) {
	if d.hang.Load() {
		d.entered <- struct{}{}
		<-d.release
	}
	return d.memDriver.Connect(url, props)
}

// TestCancelledProbeNotesNothing: a probe whose sweep is cancelled mid-dial,
// as Shutdown cancels one, charges the source nothing — no failure, no
// poll-failed event, no state edge — and gives back the half-open slot it
// claimed.
func TestCancelledProbeNotesNothing(t *testing.T) {
	d := &hangingDriver{memDriver: &memDriver{name: "jdbc-a", proto: "a", hosts: []string{"h1"}, load: 1},
		entered: make(chan struct{}), release: make(chan struct{})}
	fx := newStateFixture(t, Config{Breaker: breaker.Options{Threshold: 1, Cooldown: 30 * time.Second}})
	fx.add(t, d, d.memDriver)
	d.fail.Store(true)
	fx.g.ProbeAll(context.Background())
	before := fx.source(t, fx.urls[0])
	if before.Health != "down" {
		t.Fatalf("after a failed probe: %+v", before)
	}
	d.fail.Store(false)
	*fx.now = fx.now.Add(31 * time.Second)

	d.hang.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		fx.g.ProbeAll(ctx)
	}()
	<-d.entered
	cancel()
	<-swept
	d.hang.Store(false)
	close(d.release)

	if after := fx.source(t, fx.urls[0]); after.Failures != before.Failures || after.LastError != before.LastError ||
		after.LastErrorAt != before.LastErrorAt {
		t.Errorf("the cancelled probe was noted: %+v -> %+v", before, after)
	}
	if n := len(fx.events("poll-failed")); n != 1 {
		t.Errorf("%d poll-failed events, want the first probe's 1", n)
	}
	if st := fx.g.Stats(); st.Probes != 1 || st.ProbeFailures != 1 || st.SourceTransitions != 1 {
		t.Errorf("probes %d, failures %d, transitions %d", st.Probes, st.ProbeFailures, st.SourceTransitions)
	}

	// The slot went back: the next sweep claims it and the source recovers.
	fx.g.ProbeAll(context.Background())
	if info := fx.source(t, fx.urls[0]); info.Health != "healthy" {
		t.Errorf("after the next sweep: %+v", info)
	}
	if evs := fx.events("source-state"); len(evs) != 2 || !strings.HasPrefix(evs[1].Detail, "down -> healthy") {
		t.Errorf("source-state events = %+v", evs)
	}
}

// TestClientCancelMidHarvestChargesNothing: a client that cancels its
// real-time query while the harvest waits on the driver says nothing about
// the source. Threshold such cancellations leave it healthy, with no
// failure, no harvest error and no source-state event, where each used to
// count as a failure and the last took the source down; and the next query
// harvests.
func TestClientCancelMidHarvestChargesNothing(t *testing.T) {
	const threshold = 3
	d := &hangingDriver{memDriver: &memDriver{name: "jdbc-a", proto: "a", hosts: []string{"h1"}, load: 1},
		entered: make(chan struct{}), release: make(chan struct{})}
	fx := newStateFixture(t, Config{Breaker: breaker.Options{Threshold: threshold, Cooldown: 30 * time.Second}})
	fx.add(t, d, d.memDriver)
	d.hang.Store(true)
	for i := 0; i < threshold; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		queried := make(chan struct{})
		go func() {
			defer close(queried)
			_, _ = fx.query(ctx)
		}()
		<-d.entered
		cancel()
		<-queried
		// The query answers at its cancellation; its harvest's leader
		// notes (or not) just after.
		deadline := time.Now().Add(5 * time.Second)
		for fx.g.inflightHarvests.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("cancellation %d: the harvest never ended", i+1)
			}
			time.Sleep(time.Millisecond)
		}
	}
	d.hang.Store(false)
	close(d.release)

	if info := fx.source(t, fx.urls[0]); info.Health != "healthy" || info.Failures != 0 || info.LastError != "" ||
		info.Breaker != "closed" {
		t.Errorf("after %d cancelled queries: %+v", threshold, info)
	}
	if st := fx.g.Stats(); st.HarvestErrors != 0 || st.SourceTransitions != 0 {
		t.Errorf("harvest errors %d, transitions %d; want 0 and 0", st.HarvestErrors, st.SourceTransitions)
	}
	if evs := fx.events("source-state"); len(evs) != 0 {
		t.Errorf("source-state events = %+v, want none", evs)
	}
	resp, err := fx.query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s := resp.Sources[0]; s.Err != "" || s.Rows != 1 {
		t.Fatalf("query after the cancelled ones: %+v", s)
	}
}
