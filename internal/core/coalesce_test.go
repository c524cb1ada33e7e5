package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/driver"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/schema"
	"gridrm/internal/security"
)

// gateDriver serves one Processor row per host, stamped (LoadLast1Min) with
// the harvest's call number; each harvest can block on the gate channel
// (released by closing it) and optionally sleep, and the driver tracks how
// many harvests ran and the deepest concurrency seen.
type gateDriver struct {
	name, proto string
	hosts       []string
	gate        chan struct{}
	delay       time.Duration

	calls       atomic.Int64
	inflight    atomic.Int64
	maxInflight atomic.Int64
}

func (d *gateDriver) Name() string { return d.name }

func (d *gateDriver) AcceptsURL(url string) bool {
	u, err := driver.ParseURL(url)
	return err == nil && u.Protocol == d.proto
}

func (d *gateDriver) Connect(url string, props driver.Properties) (driver.Conn, error) {
	return &gateConn{d: d, url: url}, nil
}

func (d *gateDriver) schema() *schema.DriverSchema {
	return &schema.DriverSchema{
		Driver: d.name,
		Groups: map[string]*schema.GroupMapping{
			glue.GroupProcessor: {Group: glue.GroupProcessor, Fields: []schema.FieldMapping{
				{GLUEField: "HostName", Native: "host"},
				{GLUEField: "LoadLast1Min", Native: "load"},
			}},
		},
	}
}

type gateConn struct {
	driver.UnimplementedConn
	d   *gateDriver
	url string
}

func (c *gateConn) URL() string                           { return c.url }
func (c *gateConn) Driver() string                        { return c.d.name }
func (c *gateConn) Ping() error                           { return nil }
func (c *gateConn) CreateStatement() (driver.Stmt, error) { return &gateStmt{c: c}, nil }

type gateStmt struct {
	driver.UnimplementedStmt
	c *gateConn
}

func (s *gateStmt) ExecuteQuery(sql string) (*resultset.ResultSet, error) {
	d := s.c.d
	call := d.calls.Add(1)
	cur := d.inflight.Add(1)
	defer d.inflight.Add(-1)
	for {
		max := d.maxInflight.Load()
		if cur <= max || d.maxInflight.CompareAndSwap(max, cur) {
			break
		}
	}
	if d.gate != nil {
		<-d.gate
	}
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	g := glue.MustLookup(glue.GroupProcessor)
	meta, err := resultset.MetadataForGroup(g, nil)
	if err != nil {
		return nil, err
	}
	b := resultset.NewBuilder(meta)
	for _, h := range d.hosts {
		row := make([]any, len(g.Fields))
		row[g.FieldIndex("HostName")] = h
		row[g.FieldIndex("LoadLast1Min")] = float64(call)
		b.Append(row...)
	}
	return b.Build()
}

var coalescePrincipal = security.Principal{Name: "admin", Roles: []string{"operator"}}

func newGateFixture(t testing.TB, d *gateDriver, cfg Config, sources int) *Gateway {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "siteA"
	}
	g := New(cfg)
	t.Cleanup(g.Close)
	if err := g.RegisterDriver(d, d.schema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sources; i++ {
		url := fmt.Sprintf("gridrm:%s://h%d:1", d.proto, i)
		if err := g.AddSource(SourceConfig{URL: url, Drivers: []string{d.name}}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescedHarvestSingleFlight is the acceptance test: 16 concurrent
// clients querying one cold source cost the driver exactly one harvest.
func TestCoalescedHarvestSingleFlight(t *testing.T) {
	d := &gateDriver{name: "gate", proto: "gate", hosts: []string{"h"}, gate: make(chan struct{})}
	g := newGateFixture(t, d, Config{}, 1)

	const clients = 16
	var wg sync.WaitGroup
	responses := make([]*Response, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = g.QueryContext(context.Background(), QueryOptions{
				Principal: coalescePrincipal,
				SQL:       "SELECT * FROM Processor",
				Mode:      ModeCached,
			})
		}(i)
	}
	// Let the leader enter the driver and every follower join the flight,
	// then open the gate. Joining is observed through the flight group's
	// waiter count, so no scheduling assumptions are needed.
	waitFor(t, "leader harvest", func() bool { return d.calls.Load() == 1 })
	waitFor(t, "followers joined flight", func() bool {
		return g.flights.totalWaiters() == clients-1
	})
	close(d.gate)
	wg.Wait()

	if n := d.calls.Load(); n != 1 {
		t.Fatalf("driver observed %d harvests, want exactly 1", n)
	}
	for i := range responses {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if responses[i].ResultSet.Len() != 1 {
			t.Errorf("client %d rows = %d", i, responses[i].ResultSet.Len())
		}
		if e := responses[i].Sources[0].Err; e != "" {
			t.Errorf("client %d source error %q", i, e)
		}
	}
	st := g.Stats()
	if st.Harvests != 1 {
		t.Errorf("Stats.Harvests = %d, want 1", st.Harvests)
	}
	if st.Coalesced == 0 {
		t.Error("Stats.Coalesced = 0, want > 0")
	}
	// Every non-leader client either joined the flight or (arriving after
	// the leader filled the cache) was served from it.
	if st.Coalesced+st.CacheServed != clients-1 {
		t.Errorf("Coalesced (%d) + CacheServed (%d) = %d, want %d",
			st.Coalesced, st.CacheServed, st.Coalesced+st.CacheServed, clients-1)
	}
}

// TestCoalescedWaiterHonoursOwnDeadline: a follower with a short deadline
// gets its partial (timed out) response while the shared harvest continues,
// and the leader still completes.
func TestCoalescedWaiterHonoursOwnDeadline(t *testing.T) {
	d := &gateDriver{name: "gate", proto: "gate", hosts: []string{"h"}, gate: make(chan struct{})}
	g := newGateFixture(t, d, Config{}, 1)

	leaderDone := make(chan *Response, 1)
	go func() {
		resp, err := g.QueryContext(context.Background(), QueryOptions{Principal: coalescePrincipal, SQL: "SELECT * FROM Processor", Mode: ModeCached})
		if err != nil {
			t.Error(err)
		}
		leaderDone <- resp
	}()
	waitFor(t, "leader harvest", func() bool { return d.calls.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	resp, err := g.QueryContext(ctx, QueryOptions{Principal: coalescePrincipal, SQL: "SELECT * FROM Processor", Mode: ModeCached})
	if err != nil {
		t.Fatalf("waiter: %v (want partial response)", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("waiter blocked %v past its deadline", took)
	}
	if e := resp.Sources[0].Err; e != ErrTimedOut {
		t.Fatalf("waiter source err = %q, want %q", e, ErrTimedOut)
	}

	close(d.gate)
	leader := <-leaderDone
	if leader.ResultSet.Len() != 1 {
		t.Errorf("leader rows = %d after waiter gave up", leader.ResultSet.Len())
	}
	if n := d.calls.Load(); n != 1 {
		t.Errorf("driver observed %d harvests", n)
	}
}

// TestMaxConcurrentHarvests: the semaphore bounds the fan-out of a single
// query across many sources.
func TestMaxConcurrentHarvests(t *testing.T) {
	d := &gateDriver{name: "gate", proto: "gate", hosts: []string{"h"}, delay: 20 * time.Millisecond}
	g := newGateFixture(t, d, Config{MaxConcurrentHarvests: 2}, 6)

	resp, err := g.QueryContext(context.Background(), QueryOptions{Principal: coalescePrincipal, SQL: "SELECT * FROM Processor", Mode: ModeRealTime})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultSet.Len() != 6 {
		t.Fatalf("rows = %d, want 6", resp.ResultSet.Len())
	}
	if max := d.maxInflight.Load(); max > 2 {
		t.Errorf("max concurrent harvests = %d, want <= 2", max)
	}
	if n := d.calls.Load(); n != 6 {
		t.Errorf("harvests = %d, want 6", n)
	}
}
