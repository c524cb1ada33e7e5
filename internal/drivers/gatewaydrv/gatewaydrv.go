// Package gatewaydrv implements the JDBC-GridRM driver: a plug-in that
// treats a *remote GridRM gateway* as just another data source. The paper
// anticipates hierarchies of gateways (§2: "in a hierarchy of GridRM
// Gateways, security decisions can be deferred to the local Gateway
// responsible for a given resource") and lists further drivers as near
// future work (§5.1); this driver realises both: a parent gateway
// aggregates child sites through the same SQL-in/ResultSet-out contract it
// uses for SNMP or Ganglia, so consolidation, caching, history and events
// compose recursively.
//
// URLs: gridrm:gridrm://host:port — the child gateway's servlet endpoint.
// The driver forwards queries over the servlet interface with a principal
// from the connection properties ("user", "roles"), so the child's own
// CGSL/FGSL make the final call (deferred security).
package gatewaydrv

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/driver"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/schema"
	"gridrm/internal/security"
	"gridrm/internal/sqlparse"
	"gridrm/internal/web"
)

// DriverName is the registration name.
const DriverName = "jdbc-gridrm"

// Driver is the gateway-of-gateways driver.
type Driver struct {
	schemas *schema.Manager
	plans   *sqlparse.PlanCache
}

// New creates the driver; the SchemaManager may be nil.
func New(sm *schema.Manager) *Driver {
	return &Driver{schemas: sm, plans: sqlparse.NewPlanCache(sqlparse.DriverPlans)}
}

// Name implements driver.Driver.
func (d *Driver) Name() string { return DriverName }

// Version implements driver.Versioned.
func (d *Driver) Version() string { return "1.0" }

// AcceptsURL implements driver.Driver: explicit "gridrm" protocol only —
// a child gateway is never guessed during dynamic scans of plain agents.
func (d *Driver) AcceptsURL(url string) bool {
	u, err := driver.ParseURL(url)
	return err == nil && u.Protocol == "gridrm"
}

// Connect implements driver.Driver, verifying the endpoint by fetching the
// child gateway's status.
func (d *Driver) Connect(url string, props driver.Properties) (driver.Conn, error) {
	u, err := driver.ParseURL(url)
	if err != nil {
		return nil, err
	}
	if u.Protocol != "gridrm" {
		return nil, fmt.Errorf("gatewaydrv: URL %s is not a gridrm: URL", url)
	}
	if u.Port == 0 {
		return nil, fmt.Errorf("gatewaydrv: URL %s needs an explicit port", url)
	}
	principal := security.Principal{Name: props.Get("user", "gateway")}
	if roles := props.Get("roles", ""); roles != "" {
		principal.Roles = strings.Split(roles, ",")
	}
	timeout := 5 * time.Second
	if t := props.Get("timeout", ""); t != "" {
		parsed, err := time.ParseDuration(t)
		if err != nil {
			return nil, fmt.Errorf("gatewaydrv: bad timeout %q", t)
		}
		timeout = parsed
	}
	client := &web.Client{
		BaseURL:    "http://" + u.Address(0),
		Principal:  principal,
		HTTPClient: &http.Client{Timeout: timeout},
	}
	status, err := client.Status(context.Background())
	if err != nil {
		return nil, fmt.Errorf("gatewaydrv: %s does not answer as a GridRM gateway: %w", url, err)
	}
	return &Conn{drv: d, client: client, url: url, childSite: status.Site}, nil
}

// Conn is a connection to a child gateway.
type Conn struct {
	driver.UnimplementedConn
	drv       *Driver
	client    *web.Client
	url       string
	childSite string
	closed    bool
}

// URL implements driver.Conn.
func (c *Conn) URL() string { return c.url }

// Driver implements driver.Conn.
func (c *Conn) Driver() string { return DriverName }

// ChildSite returns the child gateway's site name.
func (c *Conn) ChildSite() string { return c.childSite }

// Ping implements driver.Conn with a status fetch.
func (c *Conn) Ping() error {
	if c.closed {
		return driver.ErrClosed
	}
	_, err := c.client.Status(context.Background())
	return err
}

// Close implements driver.Conn.
func (c *Conn) Close() error { c.closed = true; return nil }

// SourceInfo implements driver.MetadataProvider.
func (c *Conn) SourceInfo() driver.SourceInfo {
	return driver.SourceInfo{Protocol: "gridrm", AgentVersion: c.childSite,
		Groups: glue.GroupNames()}
}

// CreateStatement implements driver.Conn.
func (c *Conn) CreateStatement() (driver.Stmt, error) {
	if c.closed {
		return nil, driver.ErrClosed
	}
	return &Stmt{conn: c}, nil
}

// Stmt forwards SQL to the child gateway.
type Stmt struct {
	driver.UnimplementedStmt
	conn   *Conn
	closed bool
}

// Close implements driver.Stmt.
func (s *Stmt) Close() error { s.closed = true; return nil }

// ExecuteQuery implements driver.Stmt: the SQL is validated locally, then
// forwarded verbatim — the child gateway consolidates its own sources and
// applies its own security before answering.
func (s *Stmt) ExecuteQuery(sql string) (*resultset.ResultSet, error) {
	return s.ExecuteQueryContext(context.Background(), sql)
}

// ExecuteQueryContext implements driver.StmtContext: the forwarded HTTP
// request is cancelled with ctx, so a hung child gateway cannot stall the
// parent past its deadline.
func (s *Stmt) ExecuteQueryContext(ctx context.Context, sql string) (*resultset.ResultSet, error) {
	if s.closed || s.conn.closed {
		return nil, driver.ErrClosed
	}
	q, err := s.conn.drv.plans.Parse(sql)
	if err != nil {
		return nil, err
	}
	if _, ok := glue.Lookup(q.Table); !ok {
		return nil, fmt.Errorf("gatewaydrv: unknown group %q", q.Table)
	}
	resp, err := s.conn.client.Query(ctx, core.QueryOptions{SQL: sql, Mode: core.ModeCached})
	if err != nil {
		return nil, fmt.Errorf("gatewaydrv: child %s: %w", s.conn.childSite, err)
	}
	return resp.ResultSet, nil
}

var _ driver.StmtContext = (*Stmt)(nil)

// Schema returns the driver's GLUE mapping: a child gateway can answer for
// every group (whatever its own drivers cover; groups its sources cannot
// serve fail at query time like any other driver error).
func Schema() *schema.DriverSchema {
	ds := &schema.DriverSchema{Driver: DriverName, Groups: make(map[string]*schema.GroupMapping)}
	for _, g := range glue.Groups() {
		gm := &schema.GroupMapping{Group: g.Name}
		for _, f := range g.Fields {
			gm.Fields = append(gm.Fields, schema.FieldMapping{GLUEField: f.Name, Native: "child:" + f.Name})
		}
		ds.Groups[g.Name] = gm
	}
	return ds
}
