package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/breaker"
	"gridrm/internal/driver"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/schema"
	"gridrm/internal/security"
)

// gateDriver serves one Processor row per host, stamped (LoadLast1Min) with
// the harvest's call number; each harvest can block on the gate channel
// (released by closing it), and the driver counts how many harvests ran.
type gateDriver struct {
	name, proto string
	hosts       []string
	gate        chan struct{}

	calls atomic.Int64
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
	if d.gate != nil {
		<-d.gate
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

// TestDoneContextHarvestsNothing: a harvest leader whose context is already
// done returns that error before the driver is called, and leaves every
// counter, the breaker and the source's health as they were.
func TestDoneContextHarvestsNothing(t *testing.T) {
	d := &gateDriver{name: "gate", proto: "gate", hosts: []string{"h"}}
	g := newGateFixture(t, d, Config{Breaker: breaker.Options{Threshold: 1}}, 1)
	url := g.Sources()[0].URL
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res := g.harvestLeader(ctx, ctx, url, glue.MustLookup(glue.GroupProcessor), "SELECT * FROM Processor")
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", res.err)
	}
	if n := d.calls.Load(); n != 0 {
		t.Errorf("driver called %d times", n)
	}
	if st := g.Stats(); st != (Stats{}) {
		t.Errorf("stats moved: %+v", st)
	}
	if n := g.Pool().Stats().Opens; n != 0 {
		t.Errorf("pool dialled %d connections", n)
	}
	info, _ := g.Source(url)
	if info.Breaker != "closed" || info.LastError != "" {
		t.Errorf("source noted: breaker %q, last error %q", info.Breaker, info.LastError)
	}
}
