// Package drvkit is the shell every native-agent driver shares, written
// once. The paper's extensibility claim (§3.2, and the incremental recipe
// of §3.2.1) is that supporting a new agent means writing its protocol and
// its GLUE mapping and nothing else; the kit is the "nothing else".
//
// The kit owns: the Table 2 URL match (the driver's protocol, or none),
// URL and "timeout"/"cache_ttl" property parsing, closing the session when
// the connect handshake fails, the SchemaManager lookup and the Fig 5
// generation re-check before every query, connection and statement
// lifecycle (driver.ErrClosed, SourceInfo, the Unimplemented* super-classes),
// and the statement algorithm: SQL text → GLUE group → the driver's mapping
// → full rows from the session → WHERE/ORDER/LIMIT/projection. It also
// carries the two helpers more than one protocol needs: a line-protocol
// TCP client (LineClient) and a TTL-cached fetch (Cached).
//
// A driver supplies a Spec — names, default port, its Schema, and Open —
// and a Session with Ping, Close and Fetch. See the package example for a
// complete driver.
package drvkit

import (
	"fmt"
	"time"

	"gridrm/internal/driver"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/schema"
	"gridrm/internal/sqlparse"
)

const (
	defaultTimeout  = 2 * time.Second
	defaultCacheTTL = time.Second
)

// MaxAgentResponse bounds what a driver buffers of one agent response. The
// largest a bundled agent sends is gmond's whole-cluster XML dump, about
// 1.5 KB per host as agents/ganglia renders it; this is twice the dump of a
// 10,000-host cluster.
const MaxAgentResponse = 32 << 20

// Spec declares one native driver.
type Spec struct {
	// Name is the registration name, e.g. "jdbc-scms".
	Name string
	// Protocol is the URL protocol the driver answers for, e.g. "scms";
	// protocol-less URLs are accepted too and settled by the handshake.
	// Errors the kit raises are prefixed Protocol+"drv", the driver
	// packages' naming convention.
	Protocol string
	// DefaultPort is the agent port assumed when the URL has none.
	DefaultPort int
	// Agent names the far end in the handshake error, e.g. "an SCMS agent".
	Agent string
	// Schema returns the built-in GLUE mapping, used when no SchemaManager
	// is bound or it holds no mapping for Name.
	Schema func() *schema.DriverSchema
	// Open dials the agent and performs the protocol handshake that proves
	// it speaks Protocol. When the handshake fails Open returns the session
	// together with the error and Connect closes it; a dial failure returns
	// a nil session.
	Open func(t Target) (Session, error)
}

// Target is what Open needs to know about one data source.
type Target struct {
	// URL is the parsed data-source URL.
	URL *driver.URL
	// Addr is URL's host:port with the driver's default port applied.
	Addr string
	// Timeout bounds the dial and every later exchange: the "timeout"
	// property (default 2s, always positive).
	Timeout time.Duration
	// CacheTTL is the "cache_ttl" property (default 1s; zero or negative
	// means no caching), for sessions that keep a Cached response.
	CacheTTL time.Duration
	// Props are the connection properties, for protocol-specific keys.
	Props driver.Properties
	// Clock is the driver's clock (SetClock), for Cached.
	Clock func() time.Time
}

// Session is a driver's live exchange with one agent.
type Session interface {
	// Ping round-trips the agent. No harvest pays for one: the gateway asks
	// only after a statement on a pooled connection failed, to tell a dead
	// session from a failed query, and when its prober checks liveness.
	Ping() error
	// Close releases the transport.
	Close() error
	// Fetch performs the native retrieval for rows.Group and adds one full
	// GLUE row per entity the agent reports.
	Fetch(rows *Rows) error
}

// AgentVersioner is optionally implemented by sessions whose agent reports
// a version, surfaced as SourceInfo.AgentVersion.
type AgentVersioner interface {
	AgentVersion() string
}

// Rows collects the full-width GLUE rows of one group during a Fetch.
type Rows struct {
	// Group is the GLUE group being harvested.
	Group *glue.Group
	// Mapping is the driver's GLUE → native mapping for Group.
	Mapping *schema.GroupMapping
	b       resultset.Builder
}

// Add builds one row through the mapping: resolve supplies the value of a
// native name, or false when the agent does not have it (→ NULL).
func (r *Rows) Add(resolve func(native string) (any, bool)) error {
	row, err := schema.BuildRow(r.Group, r.Mapping, resolve)
	if err != nil {
		return err
	}
	r.b.Append(row...)
	return nil
}

// Append adds a row the session assembled itself, in Group's field order.
func (r *Rows) Append(row []any) { r.b.Append(row...) }

// Driver is a native driver: a Spec behind the shared shell.
type Driver struct {
	spec    Spec
	prefix  string
	schemas *schema.Manager
	plans   *sqlparse.PlanCache
	clock   func() time.Time
}

// New creates the driver; the SchemaManager may be nil, in which case the
// built-in mapping is used without revalidation.
func New(spec Spec, sm *schema.Manager) *Driver {
	return &Driver{spec: spec, prefix: spec.Protocol + "drv", schemas: sm,
		plans: sqlparse.NewPlanCache(sqlparse.DriverPlans), clock: time.Now}
}

// SetClock injects the clock sessions see as Target.Clock, for cache tests.
func (d *Driver) SetClock(clock func() time.Time) { d.clock = clock }

// Name implements driver.Driver.
func (d *Driver) Name() string { return d.spec.Name }

// Version implements driver.Versioned.
func (d *Driver) Version() string { return "1.0" }

// AcceptsURL implements driver.Driver: the URL must parse and either name
// the driver's protocol or leave the protocol open for dynamic selection.
func (d *Driver) AcceptsURL(url string) bool {
	u, err := driver.ParseURL(url)
	return err == nil && (u.Protocol == "" || u.Protocol == d.spec.Protocol)
}

// Connect implements driver.Driver: it opens a session and keeps it only if
// the handshake succeeded, so dynamic selection binds a driver only to an
// agent that really speaks its protocol.
func (d *Driver) Connect(url string, props driver.Properties) (driver.Conn, error) {
	u, err := driver.ParseURL(url)
	if err != nil {
		return nil, err
	}
	timeout, err := d.duration(props, "timeout", defaultTimeout)
	if err != nil {
		return nil, err
	}
	if timeout <= 0 {
		// Zero would mean "no dial timeout" and then an already-expired
		// deadline on every exchange: a healthy agent reported as absent.
		return nil, fmt.Errorf("%s: bad timeout %q", d.prefix, props["timeout"])
	}
	ttl, err := d.duration(props, "cache_ttl", defaultCacheTTL)
	if err != nil {
		return nil, err
	}
	sess, err := d.spec.Open(Target{URL: u, Addr: u.Address(d.spec.DefaultPort),
		Timeout: timeout, CacheTTL: ttl, Props: props, Clock: d.clock})
	if sess == nil {
		return nil, fmt.Errorf("%s: %w", d.prefix, err)
	}
	if err != nil {
		_ = sess.Close()
		return nil, fmt.Errorf("%s: %s does not answer as %s: %w", d.prefix, url, d.spec.Agent, err)
	}
	c := &Conn{drv: d, url: url, sess: sess}
	c.mapping, c.gen = d.lookupSchema()
	return c, nil
}

func (d *Driver) duration(props driver.Properties, key string, def time.Duration) (time.Duration, error) {
	v := props.Get(key, "")
	if v == "" {
		return def, nil
	}
	parsed, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("%s: bad %s %q", d.prefix, key, v)
	}
	return parsed, nil
}

func (d *Driver) lookupSchema() (*schema.DriverSchema, int64) {
	if d.schemas != nil {
		if ds, gen, ok := d.schemas.Lookup(d.spec.Name); ok {
			return ds, gen
		}
	}
	return d.spec.Schema(), 0
}

// Conn is a native driver connection. Per Fig 5, the schema mapping is
// cached when the connection is created.
type Conn struct {
	driver.UnimplementedConn
	drv     *Driver
	url     string
	sess    Session
	mapping *schema.DriverSchema
	gen     int64
	closed  bool
}

// Session returns the driver's session behind the connection.
func (c *Conn) Session() Session { return c.sess }

// URL implements driver.Conn.
func (c *Conn) URL() string { return c.url }

// Driver implements driver.Conn.
func (c *Conn) Driver() string { return c.drv.spec.Name }

// Ping implements driver.Conn.
func (c *Conn) Ping() error {
	if c.closed {
		return driver.ErrClosed
	}
	return c.sess.Ping()
}

// Close implements driver.Conn.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.sess.Close()
}

// SourceInfo implements driver.MetadataProvider.
func (c *Conn) SourceInfo() driver.SourceInfo {
	info := driver.SourceInfo{Protocol: c.drv.spec.Protocol, Groups: c.mapping.GroupNames()}
	if v, ok := c.sess.(AgentVersioner); ok {
		info.AgentVersion = v.AgentVersion()
	}
	return info
}

// CreateStatement implements driver.Conn.
func (c *Conn) CreateStatement() (driver.Stmt, error) {
	if c.closed {
		return nil, driver.ErrClosed
	}
	return &stmt{conn: c}, nil
}

type stmt struct {
	driver.UnimplementedStmt
	conn   *Conn
	closed bool
}

// Close implements driver.Stmt.
func (s *stmt) Close() error { s.closed = true; return nil }

// ExecuteQuery implements driver.Stmt: it resolves the SQL (the canonical
// harvest text is parsed once a driver), has the session
// fetch the target group's full rows through the current mapping, and
// finishes WHERE/ORDER/LIMIT/projection locally.
func (s *stmt) ExecuteQuery(sql string) (*resultset.ResultSet, error) {
	c := s.conn
	if s.closed || c.closed {
		return nil, driver.ErrClosed
	}
	// Check schema-cache consistency before using the cached instance
	// (Fig 5).
	if d := c.drv; d.schemas != nil && !d.schemas.Valid(d.spec.Name, c.gen) {
		c.mapping, c.gen = d.lookupSchema()
	}
	q, err := c.drv.plans.Parse(sql)
	if err != nil {
		return nil, err
	}
	g, ok := glue.Lookup(q.Table)
	if !ok {
		return nil, fmt.Errorf("%s: unknown group %q", c.drv.prefix, q.Table)
	}
	gm, ok := c.mapping.Groups[g.Name]
	if !ok {
		return nil, fmt.Errorf("%s: group %s not supported by this driver", c.drv.prefix, g.Name)
	}
	meta, err := resultset.MetadataForGroup(g, nil)
	if err != nil {
		return nil, err
	}
	rows := Rows{Group: g, Mapping: gm, b: *resultset.NewBuilder(meta)}
	if err := c.sess.Fetch(&rows); err != nil {
		return nil, err
	}
	full, err := rows.b.Build()
	if err != nil {
		return nil, err
	}
	return sqlparse.ApplyToResultSet(q, full)
}
