package sim

import (
	"context"
	"fmt"
	"sync/atomic"

	"gridrm/internal/driver"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/schema"
	"gridrm/internal/sqlparse"
)

// FleetDriver name and URL protocol.
const (
	FleetDriverName = "gridrm-fleet"
	FleetProtocol   = "fleet"
)

// FleetDriver is the in-memory GridRM driver the simulator registers with
// every gateway. It resolves the URL host against the shared Fleet and
// serves Processor and Memory rows for that source's hosts; a killed source
// refuses connects, pings and queries, so the real breaker/degradation
// machinery reacts exactly as it would to a dead agent. The harness wraps
// it in faultdrv per site, which layers latency, error and panic injection
// on top.
type FleetDriver struct {
	fleet *Fleet
	plans *sqlparse.PlanCache
}

// NewFleetDriver creates a driver over the fleet. Gateways must not share
// driver instances' registrations, so the harness creates one per gateway —
// all views of the same Fleet.
func NewFleetDriver(fleet *Fleet) *FleetDriver {
	return &FleetDriver{fleet: fleet, plans: sqlparse.NewPlanCache(sqlparse.DriverPlans)}
}

// Name implements driver.Driver.
func (d *FleetDriver) Name() string { return FleetDriverName }

// Version implements driver.Versioned.
func (d *FleetDriver) Version() string { return "sim" }

// AcceptsURL implements driver.Driver.
func (d *FleetDriver) AcceptsURL(url string) bool {
	u, err := driver.ParseURL(url)
	if err != nil {
		return false
	}
	return u.Protocol == "" || u.Protocol == FleetProtocol
}

// Connect implements driver.Driver.
func (d *FleetDriver) Connect(url string, props driver.Properties) (driver.Conn, error) {
	u, err := driver.ParseURL(url)
	if err != nil {
		return nil, err
	}
	src, ok := d.fleet.Source(url)
	if !ok {
		// Accept lookup by host too, so URLs with a path or port still
		// resolve to the canonical source.
		for _, site := range d.fleet.Sites() {
			for _, s := range d.fleet.SiteSources(site) {
				if s.Name == u.Host {
					src = s
					ok = true
				}
			}
		}
	}
	if !ok {
		return nil, fmt.Errorf("fleetdrv: unknown source %q", u.Host)
	}
	if src.Down() {
		return nil, fmt.Errorf("fleetdrv: %s: connection refused (source down)", src.Name)
	}
	return &fleetConn{d: d, src: src, url: url}, nil
}

// Schema returns the driver's GLUE mapping (Processor and Memory).
func (d *FleetDriver) Schema() *schema.DriverSchema {
	return &schema.DriverSchema{
		Driver: FleetDriverName,
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

type fleetConn struct {
	driver.UnimplementedConn
	d      *FleetDriver
	src    *FleetSource
	url    string
	closed atomic.Bool
}

func (c *fleetConn) URL() string    { return c.url }
func (c *fleetConn) Driver() string { return FleetDriverName }

func (c *fleetConn) Ping() error {
	if c.closed.Load() {
		return driver.ErrClosed
	}
	if c.src.Down() {
		return fmt.Errorf("fleetdrv: %s: source down", c.src.Name)
	}
	return nil
}

func (c *fleetConn) Close() error {
	c.closed.Store(true)
	return nil
}

func (c *fleetConn) CreateStatement() (driver.Stmt, error) {
	if c.closed.Load() {
		return nil, driver.ErrClosed
	}
	return &fleetStmt{c: c}, nil
}

type fleetStmt struct {
	driver.UnimplementedStmt
	c *fleetConn
}

var _ driver.StmtContext = (*fleetStmt)(nil)

func (s *fleetStmt) Close() error { return nil }

func (s *fleetStmt) ExecuteQuery(sql string) (*resultset.ResultSet, error) {
	return s.ExecuteQueryContext(context.Background(), sql)
}

// ExecuteQueryContext implements driver.StmtContext.
func (s *fleetStmt) ExecuteQueryContext(ctx context.Context, sql string) (*resultset.ResultSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	src := s.c.src
	if src.Down() {
		return nil, fmt.Errorf("fleetdrv: %s: query failed (source down)", src.Name)
	}
	n := src.queries.Add(1)
	q, err := s.c.d.plans.Parse(sql)
	if err != nil {
		return nil, err
	}
	g, ok := glue.Lookup(q.Table)
	if !ok {
		return nil, fmt.Errorf("fleetdrv: unknown group %q", q.Table)
	}
	meta, err := resultset.MetadataForGroup(g, nil)
	if err != nil {
		return nil, err
	}
	// Load wobbles deterministically with the source's own query count, so
	// consecutive harvests see movement without any global randomness.
	load := src.BaseLoad + 0.1*float64(n%5)
	// Typed cells straight into the two or three columns the group fills:
	// every benchmark workload harvests through here, so nothing is boxed.
	rb := resultset.NewBuilder(meta)
	put := func(i int, field string, v resultset.Cell) { rb.Put(i, g.FieldIndex(field), v) }
	switch g.Name {
	case glue.GroupProcessor:
		rb.Grow(len(src.Hosts), 2)
		for i, h := range src.Hosts {
			put(i, "HostName", resultset.Cell{Kind: glue.String, Str: h})
			put(i, "LoadLast1Min", resultset.Cell{Kind: glue.Float, Float: load})
		}
	case glue.GroupMemory:
		rb.Grow(len(src.Hosts), 3)
		for i, h := range src.Hosts {
			put(i, "HostName", resultset.Cell{Kind: glue.String, Str: h})
			put(i, "RAMSize", resultset.Cell{Kind: glue.Int, Int: src.RAMMB})
			put(i, "RAMAvailable", resultset.Cell{Kind: glue.Int, Int: src.RAMMB / 2})
		}
	default:
		return nil, fmt.Errorf("fleetdrv: unsupported group %q", g.Name)
	}
	rb.Rows(len(src.Hosts))
	full, err := rb.Build()
	if err != nil {
		return nil, err
	}
	return sqlparse.ApplyToResultSet(q, full)
}
