package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/breaker"
	"gridrm/internal/driver"
	"gridrm/internal/drivers/faultdrv"
	"gridrm/internal/resultset"
	"gridrm/internal/security"
	"gridrm/internal/trace"
)

// dyingDriver is a memDriver whose sessions can die while the agent lives
// on: kill fails every statement and ping on the connections opened so far,
// as a restarted agent's old sockets do, and new connects succeed. With
// pingGate set, a ping blocks until the gate is closed.
type dyingDriver struct {
	*memDriver
	gen      atomic.Int64
	connects atomic.Int64
	pings    atomic.Int64
	pingGate chan struct{}
}

func (d *dyingDriver) kill() { d.gen.Add(1) }

func (d *dyingDriver) Connect(url string, props driver.Properties) (driver.Conn, error) {
	inner, err := d.memDriver.Connect(url, props)
	if err != nil {
		return nil, err
	}
	d.connects.Add(1)
	return &dyingConn{Conn: inner, d: d, gen: d.gen.Load()}, nil
}

type dyingConn struct {
	driver.Conn
	d   *dyingDriver
	gen int64
}

var errBrokenPipe = errors.New("write: broken pipe")

func (c *dyingConn) dead() bool { return c.gen != c.d.gen.Load() }

func (c *dyingConn) Ping() error {
	c.d.pings.Add(1)
	if c.d.pingGate != nil {
		<-c.d.pingGate
	}
	if c.dead() {
		return errBrokenPipe
	}
	return c.Conn.Ping()
}

func (c *dyingConn) CreateStatement() (driver.Stmt, error) {
	inner, err := c.Conn.CreateStatement()
	if err != nil {
		return nil, err
	}
	return &dyingStmt{Stmt: inner, c: c}, nil
}

type dyingStmt struct {
	driver.Stmt
	c *dyingConn
}

func (s *dyingStmt) ExecuteQuery(sql string) (*resultset.ResultSet, error) {
	if s.c.dead() {
		return nil, errBrokenPipe
	}
	return s.Stmt.ExecuteQuery(sql)
}

// staleFixture is a one-source gateway over a dyingDriver, behind faultdrv
// when faults is set, whose breaker opens on the first failure it is told of.
type staleFixture struct {
	g     *Gateway
	drv   *dyingDriver
	url   string
	admin security.Principal
}

func newStaleFixture(t *testing.T, cfg Config, faults *faultdrv.Faults) *staleFixture {
	t.Helper()
	cfg.Name = "stalesite"
	cfg.Breaker = breaker.Options{Threshold: 1, Cooldown: time.Hour}
	fx := &staleFixture{
		g:     New(cfg),
		drv:   &dyingDriver{memDriver: &memDriver{name: "jdbc-dying", proto: "dying", hosts: []string{"h1"}, load: 1}},
		url:   "gridrm:dying://agent:1",
		admin: security.Principal{Name: "admin", Roles: []string{"operator"}},
	}
	t.Cleanup(fx.g.Close)
	var d driver.Driver = fx.drv
	if faults != nil {
		d = faultdrv.New(fx.drv.name, fx.drv, faults)
	}
	if err := fx.g.RegisterDriver(d, fx.drv.schema()); err != nil {
		t.Fatal(err)
	}
	if err := fx.g.AddSource(SourceConfig{URL: fx.url}); err != nil {
		t.Fatal(err)
	}
	return fx
}

func (fx *staleFixture) poll(t *testing.T) (SourceStatus, *Response) {
	t.Helper()
	resp, err := fx.g.QueryContext(context.Background(), QueryOptions{Principal: fx.admin,
		SQL: "SELECT * FROM Processor", Mode: ModeRealTime, Trace: trace.DecideOn})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Sources[0], resp
}

// harvestCounters are the counters a harvest's outcome moves.
type harvestCounters struct {
	Harvests, HarvestErrors, Retries, Timeouts, BreakerOpens int64
	PingFailures, Opens, Closes                              int64
}

func (fx *staleFixture) counters() harvestCounters {
	s, p := fx.g.Stats(), fx.g.Pool().Stats()
	return harvestCounters{s.Harvests, s.HarvestErrors, s.Retries, s.Timeouts, s.BreakerOpens,
		p.PingFailures, p.Opens, p.Closes}
}

func (a harvestCounters) minus(b harvestCounters) harvestCounters {
	return harvestCounters{a.Harvests - b.Harvests, a.HarvestErrors - b.HarvestErrors, a.Retries - b.Retries,
		a.Timeouts - b.Timeouts, a.BreakerOpens - b.BreakerOpens,
		a.PingFailures - b.PingFailures, a.Opens - b.Opens, a.Closes - b.Closes}
}

// spansNamed collects a stored trace's spans of one name.
func spansNamed(t *testing.T, g *Gateway, traceID, name string) []trace.SpanData {
	t.Helper()
	td, ok := g.Tracer().Trace(traceID)
	if !ok {
		t.Fatalf("trace %q not stored", traceID)
	}
	var out []trace.SpanData
	var walk func(n *trace.Node)
	walk = func(n *trace.Node) {
		if n.Name == name {
			out = append(out, n.SpanData)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range td.Roots {
		walk(r)
	}
	return out
}

// TestStalePooledConnectionRedialed is pool.TestStalePingDiscarded where the
// behaviour now lives: the pooled connection died between two harvests, and
// the second harvest finds that out from its statement, asks with one ping,
// and re-runs on a fresh dial inside the same attempt. The client sees a clean
// answer; the pool counts one stale connection; nothing is retried, no error
// is counted and the breaker (threshold 1) hears of no failure. Bare, and
// behind a faultdrv wrapper with one retry to spend.
func TestStalePooledConnectionRedialed(t *testing.T) {
	for _, wrapped := range []bool{false, true} {
		var faults *faultdrv.Faults
		if wrapped {
			faults = faultdrv.NewFaults()
		}
		fx := newStaleFixture(t, Config{Retry: RetryOptions{Attempts: 1, Backoff: time.Millisecond}}, faults)
		if s, _ := fx.poll(t); s.Err != "" {
			t.Fatalf("wrapped=%v: priming poll: %+v", wrapped, s)
		}
		fx.drv.kill()
		before := fx.counters()
		s, resp := fx.poll(t)
		if s.Err != "" || s.Rows != 1 || s.Driver != "jdbc-dying" {
			t.Fatalf("wrapped=%v: poll over a dead pooled connection: %+v", wrapped, s)
		}
		want := harvestCounters{Harvests: 1, PingFailures: 1, Opens: 1, Closes: 1}
		if got := fx.counters().minus(before); got != want {
			t.Errorf("wrapped=%v: counters moved %+v, want %+v", wrapped, got, want)
		}
		if n := fx.drv.connects.Load(); n != 2 {
			t.Errorf("wrapped=%v: %d connects, want 2", wrapped, n)
		}
		if n := fx.drv.pings.Load(); n != 1 {
			t.Errorf("wrapped=%v: %d pings, want 1 (asked once, after the failure)", wrapped, n)
		}
		if info, _ := fx.g.Source(fx.url); info.Breaker != "closed" || info.LastError != "" {
			t.Errorf("wrapped=%v: source heard of a failure: breaker %s, last error %q", wrapped, info.Breaker, info.LastError)
		}
		if idle := fx.g.Pool().Stats().Idle; idle != 1 {
			t.Errorf("wrapped=%v: idle = %d, want the fresh connection pooled", wrapped, idle)
		}

		// The trace says why: two runs of the statement, the second marked.
		runs := spansNamed(t, fx.g, resp.TraceID, "driver-execute")
		if len(runs) != 2 || runs[0].Err == "" || runs[0].Attrs["redialed"] != "" ||
			runs[1].Err != "" || runs[1].Attrs["redialed"] != "true" {
			t.Errorf("wrapped=%v: driver-execute spans %+v, want a failed run then a clean one with redialed=true", wrapped, runs)
		}
		outs := spansNamed(t, fx.g, resp.TraceID, "pool-checkout")
		if len(outs) != 2 || outs[0].Attrs["reused"] != "true" || outs[1].Attrs["reused"] != "false" {
			t.Errorf("wrapped=%v: pool-checkout spans %+v, want reused then not", wrapped, outs)
		}
	}
}

// TestStatementErrorOnHealthyConnection: an error on a reused connection that
// then answers its ping is the statement's own. It is reported once and moves
// the counters exactly as it did while the pool pinged before every checkout
// (the want rows were written by running this test at 308c47c): the error is
// counted, the connection discarded, the breaker told, nothing retried that
// the retry policy did not ask for.
func TestStatementErrorOnHealthyConnection(t *testing.T) {
	cases := []struct {
		name    string
		retry   RetryOptions
		wantErr string
		want    harvestCounters
		queries int64 // statements that reached the wrapper
	}{
		{name: "no retry", wantErr: "injected fault (query 2)",
			want: harvestCounters{HarvestErrors: 1, BreakerOpens: 1, Closes: 1}, queries: 2},
		{name: "one retry", retry: RetryOptions{Attempts: 1, Backoff: time.Millisecond},
			want: harvestCounters{Harvests: 1, Retries: 1, Opens: 1, Closes: 1}, queries: 3},
	}
	for _, tc := range cases {
		faults := faultdrv.NewFaults()
		fx := newStaleFixture(t, Config{Retry: tc.retry}, faults)
		if s, _ := fx.poll(t); s.Err != "" {
			t.Fatalf("%s: priming poll: %+v", tc.name, s)
		}
		faults.SetErrorEvery(2)
		before := fx.counters()
		s, _ := fx.poll(t)
		if tc.wantErr == "" && s.Err != "" || !strings.Contains(s.Err, tc.wantErr) {
			t.Errorf("%s: status %+v, want error containing %q", tc.name, s, tc.wantErr)
		}
		if got := fx.counters().minus(before); got != tc.want {
			t.Errorf("%s: counters moved %+v, want %+v", tc.name, got, tc.want)
		}
		if n := faults.Queries(); n != tc.queries {
			t.Errorf("%s: %d statements reached the driver, want %d", tc.name, n, tc.queries)
		}
	}
}

// TestDeadlineDuringPostFailurePing: the statement on a dead pooled
// connection fails at once and the ping that would say why hangs. The harvest
// gives up at its deadline as a timeout, not as the statement's error, and
// once the ping returns nothing is left behind: the goroutine that waited for
// it is gone and the connection is closed and accounted for.
func TestDeadlineDuringPostFailurePing(t *testing.T) {
	fx := newStaleFixture(t, Config{HarvestTimeout: 30 * time.Millisecond}, nil)
	if s, _ := fx.poll(t); s.Err != "" {
		t.Fatalf("priming poll: %+v", s)
	}
	goroutines := runtime.NumGoroutine()
	fx.drv.pingGate = make(chan struct{})
	fx.drv.kill()
	before := fx.counters()

	s, _ := fx.poll(t)
	if s.Err != ErrTimedOut {
		t.Fatalf("status %+v, want %q", s, ErrTimedOut)
	}
	if n := fx.drv.connects.Load(); n != 1 {
		t.Errorf("%d connects, want 1: nothing is redialled on a verdict that never came", n)
	}
	close(fx.drv.pingGate)

	deadline := time.Now().Add(2 * time.Second)
	for {
		p := fx.g.Pool().Stats()
		settled := int64(p.Idle)+p.Closes == p.Opens && runtime.NumGoroutine() <= goroutines
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("not settled: pool %+v, goroutines %d (were %d)",
				p, runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := harvestCounters{HarvestErrors: 1, Timeouts: 1, BreakerOpens: 1, PingFailures: 1, Closes: 1}
	if got := fx.counters().minus(before); got != want {
		t.Errorf("counters moved %+v, want %+v", got, want)
	}
}
