// Package memdrv provides an in-memory GridRM driver for tests, examples
// and benchmarks. It serves Processor and Memory rows for a configurable
// host list from a shared Backend, with injectable connect/query latency
// and failure switches — the knobs the E1–E3 and E6 benchmarks turn to
// model "driver connections typically incur an overhead when a data source
// is first connected" (paper §3.1.2) without network noise.
package memdrv

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gridrm/internal/driver"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/schema"
	"gridrm/internal/sqlparse"
)

// Backend is the shared in-memory data source state.
type Backend struct {
	mu    sync.RWMutex
	hosts []string
	load  float64
	ram   int64

	failConnect  atomic.Bool
	failQuery    atomic.Bool
	connectDelay atomic.Int64 // nanoseconds
	queryDelay   atomic.Int64 // nanoseconds

	connects atomic.Int64
	queries  atomic.Int64
}

// NewBackend creates a backend serving the given hosts with load 1.0 and
// 1024 MB of RAM per host.
func NewBackend(hosts []string) *Backend {
	return &Backend{hosts: append([]string(nil), hosts...), load: 1.0, ram: 1024}
}

// SetLoad sets every host's reported 1-minute load.
func (b *Backend) SetLoad(load float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.load = load
}

// SetFailConnect makes subsequent connects fail.
func (b *Backend) SetFailConnect(fail bool) { b.failConnect.Store(fail) }

// SetFailQuery makes subsequent queries fail.
func (b *Backend) SetFailQuery(fail bool) { b.failQuery.Store(fail) }

// SetConnectDelay injects per-connect latency.
func (b *Backend) SetConnectDelay(d time.Duration) { b.connectDelay.Store(int64(d)) }

// SetQueryDelay injects per-query latency.
func (b *Backend) SetQueryDelay(d time.Duration) { b.queryDelay.Store(int64(d)) }

// Connects returns how many connects the backend has served.
func (b *Backend) Connects() int64 { return b.connects.Load() }

// Queries returns how many queries the backend has served.
func (b *Backend) Queries() int64 { return b.queries.Load() }

// Driver is an in-memory GridRM driver over a Backend.
type Driver struct {
	name    string
	proto   string
	backend *Backend
	plans   *sqlparse.PlanCache
}

// New creates a driver with registration name and URL protocol.
func New(name, proto string, backend *Backend) *Driver {
	return &Driver{name: name, proto: proto, backend: backend, plans: sqlparse.NewPlanCache(sqlparse.DriverPlans)}
}

// Name implements driver.Driver.
func (d *Driver) Name() string { return d.name }

// Version implements driver.Versioned.
func (d *Driver) Version() string { return "mem" }

// AcceptsURL implements driver.Driver.
func (d *Driver) AcceptsURL(url string) bool {
	u, err := driver.ParseURL(url)
	if err != nil {
		return false
	}
	return u.Protocol == "" || u.Protocol == d.proto
}

// Connect implements driver.Driver.
func (d *Driver) Connect(url string, props driver.Properties) (driver.Conn, error) {
	if delay := d.backend.connectDelay.Load(); delay > 0 {
		time.Sleep(time.Duration(delay))
	}
	if d.backend.failConnect.Load() {
		return nil, fmt.Errorf("%s: connect refused", d.name)
	}
	d.backend.connects.Add(1)
	return &conn{d: d, url: url}, nil
}

// Schema returns the driver's GLUE mapping (Processor and Memory).
func (d *Driver) Schema() *schema.DriverSchema {
	return &schema.DriverSchema{
		Driver: d.name,
		Groups: map[string]*schema.GroupMapping{
			glue.GroupProcessor: {Group: glue.GroupProcessor, Fields: []schema.FieldMapping{
				{GLUEField: "HostName", Native: "host"},
				{GLUEField: "LoadLast1Min", Native: "load"},
			}},
			glue.GroupMemory: {Group: glue.GroupMemory, Fields: []schema.FieldMapping{
				{GLUEField: "HostName", Native: "host"},
				{GLUEField: "RAMSize", Native: "ram"},
				{GLUEField: "RAMAvailable", Native: "ram_free"},
			}},
		},
	}
}

type conn struct {
	driver.UnimplementedConn
	d      *Driver
	url    string
	closed atomic.Bool
}

func (c *conn) URL() string    { return c.url }
func (c *conn) Driver() string { return c.d.name }

func (c *conn) Ping() error {
	if c.closed.Load() {
		return driver.ErrClosed
	}
	if c.d.backend.failConnect.Load() {
		return fmt.Errorf("%s: agent gone", c.d.name)
	}
	return nil
}

func (c *conn) Close() error {
	c.closed.Store(true)
	return nil
}

func (c *conn) CreateStatement() (driver.Stmt, error) {
	if c.closed.Load() {
		return nil, driver.ErrClosed
	}
	return &stmt{c: c}, nil
}

type stmt struct {
	driver.UnimplementedStmt
	c *conn
}

var _ driver.StmtContext = (*stmt)(nil)

func (s *stmt) Close() error { return nil }

func (s *stmt) ExecuteQuery(sql string) (*resultset.ResultSet, error) {
	return s.ExecuteQueryContext(context.Background(), sql)
}

// ExecuteQueryContext implements driver.StmtContext: injected query latency
// is interruptible, so cancelled queries return promptly with ctx.Err().
func (s *stmt) ExecuteQueryContext(ctx context.Context, sql string) (*resultset.ResultSet, error) {
	b := s.c.d.backend
	if delay := b.queryDelay.Load(); delay > 0 {
		t := time.NewTimer(time.Duration(delay))
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if b.failQuery.Load() {
		return nil, fmt.Errorf("%s: query failed", s.c.d.name)
	}
	b.queries.Add(1)
	q, err := s.c.d.plans.Parse(sql)
	if err != nil {
		return nil, err
	}
	g, ok := glue.Lookup(q.Table)
	if !ok {
		return nil, fmt.Errorf("memdrv: unknown group %q", q.Table)
	}
	meta, err := resultset.MetadataForGroup(g, nil)
	if err != nil {
		return nil, err
	}
	b.mu.RLock()
	hosts := append([]string(nil), b.hosts...)
	load, ram := b.load, b.ram
	b.mu.RUnlock()
	rb := resultset.NewBuilder(meta)
	for _, h := range hosts {
		row := make([]any, len(g.Fields))
		switch g.Name {
		case glue.GroupProcessor:
			row[g.FieldIndex("HostName")] = h
			row[g.FieldIndex("LoadLast1Min")] = load
		case glue.GroupMemory:
			row[g.FieldIndex("HostName")] = h
			row[g.FieldIndex("RAMSize")] = ram
			row[g.FieldIndex("RAMAvailable")] = ram / 2
		default:
			return nil, fmt.Errorf("memdrv: unsupported group %q", g.Name)
		}
		rb.Append(row...)
	}
	full, err := rb.Build()
	if err != nil {
		return nil, err
	}
	return sqlparse.ApplyToResultSet(q, full)
}
