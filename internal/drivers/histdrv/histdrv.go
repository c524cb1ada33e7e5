// Package histdrv implements the JDBC driver over the gateway's internal
// historical database — the "SQL" plug-in of the paper's Fig 2 Abstract
// Data Layer. It lets clients treat the gateway's own history store as just
// another data source: SQL in, ResultSets out, with the same GLUE groups
// plus the SourceURL and SampledAt provenance columns.
//
// URLs: gridrm:hist://local[/source-filter]. The driver only answers for
// the explicit "hist" protocol; it never volunteers during dynamic
// selection of network agents.
package histdrv

import (
	"fmt"
	"time"

	"gridrm/internal/driver"
	"gridrm/internal/glue"
	"gridrm/internal/history"
	"gridrm/internal/resultset"
	"gridrm/internal/schema"
	"gridrm/internal/sqlparse"
)

// DriverName is the registration name.
const DriverName = "jdbc-hist"

// Driver is the historical-store driver.
type Driver struct {
	store *history.Store
	plans *sqlparse.PlanCache
}

// New creates the driver bound to a history store.
func New(store *history.Store) *Driver {
	return &Driver{store: store, plans: sqlparse.NewPlanCache(sqlparse.DriverPlans)}
}

// Name implements driver.Driver.
func (d *Driver) Name() string { return DriverName }

// Version implements driver.Versioned.
func (d *Driver) Version() string { return "1.0" }

// AcceptsURL implements driver.Driver: explicit "hist" protocol only.
func (d *Driver) AcceptsURL(url string) bool {
	u, err := driver.ParseURL(url)
	return err == nil && u.Protocol == "hist"
}

// Connect implements driver.Driver.
func (d *Driver) Connect(url string, props driver.Properties) (driver.Conn, error) {
	u, err := driver.ParseURL(url)
	if err != nil {
		return nil, err
	}
	if u.Protocol != "hist" {
		return nil, fmt.Errorf("histdrv: URL %s is not a hist: URL", url)
	}
	if d.store == nil {
		return nil, fmt.Errorf("histdrv: no history store bound")
	}
	var since, until time.Time
	if v := props.Get("since", ""); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			return nil, fmt.Errorf("histdrv: bad since %q", v)
		}
		since = t
	}
	if v := props.Get("until", ""); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			return nil, fmt.Errorf("histdrv: bad until %q", v)
		}
		until = t
	}
	return &Conn{drv: d, url: url, sourceFilter: u.Path, since: since, until: until}, nil
}

// Conn is a historical-store connection. The URL path, when present,
// restricts results to one recorded source URL; "since"/"until" properties
// (RFC 3339) bound the window.
type Conn struct {
	driver.UnimplementedConn
	drv          *Driver
	url          string
	sourceFilter string
	since, until time.Time
	closed       bool
}

// URL implements driver.Conn.
func (c *Conn) URL() string { return c.url }

// Driver implements driver.Conn.
func (c *Conn) Driver() string { return DriverName }

// Ping implements driver.Conn; the store is always reachable.
func (c *Conn) Ping() error {
	if c.closed {
		return driver.ErrClosed
	}
	return nil
}

// Close implements driver.Conn.
func (c *Conn) Close() error { c.closed = true; return nil }

// CreateStatement implements driver.Conn.
func (c *Conn) CreateStatement() (driver.Stmt, error) {
	if c.closed {
		return nil, driver.ErrClosed
	}
	return &Stmt{conn: c}, nil
}

// Stmt executes SQL against the history store.
type Stmt struct {
	driver.UnimplementedStmt
	conn   *Conn
	closed bool
}

// Close implements driver.Stmt.
func (s *Stmt) Close() error { s.closed = true; return nil }

// ExecuteQuery implements driver.Stmt.
func (s *Stmt) ExecuteQuery(sql string) (*resultset.ResultSet, error) {
	if s.closed || s.conn.closed {
		return nil, driver.ErrClosed
	}
	q, err := s.conn.drv.plans.Parse(sql)
	if err != nil {
		return nil, err
	}
	if _, ok := glue.Lookup(q.Table); !ok {
		return nil, fmt.Errorf("histdrv: unknown group %q", q.Table)
	}
	rs, err := s.conn.drv.store.Query(q.Table, s.conn.sourceFilter, s.conn.since, s.conn.until)
	if err != nil {
		return nil, err
	}
	return sqlparse.ApplyToResultSet(q, rs)
}

// Schema returns the driver's GLUE mapping: every group, every field — the
// store holds whatever the harvesting driver produced, NULLs included.
func Schema() *schema.DriverSchema {
	ds := &schema.DriverSchema{Driver: DriverName, Groups: make(map[string]*schema.GroupMapping)}
	for _, g := range glue.Groups() {
		gm := &schema.GroupMapping{Group: g.Name}
		for _, f := range g.Fields {
			gm.Fields = append(gm.Fields, schema.FieldMapping{GLUEField: f.Name, Native: "stored:" + f.Name})
		}
		ds.Groups[g.Name] = gm
	}
	return ds
}
