// Package driver defines GridRM's pluggable data-source driver contract and
// the GridRMDriverManager that registers drivers and allocates them to
// resources (paper §3.1.3 and §3.2).
//
// The contract mirrors the JDBC surface the paper builds on:
//
//	Driver      ≈ java.sql.Driver      (AcceptsURL, Connect)
//	Conn        ≈ java.sql.Connection  (session with a data source)
//	Stmt        ≈ java.sql.Statement   (SQL in, ResultSet out)
//	ResultSet   ≈ javax.sql.ResultSet  (see internal/resultset)
//
// The paper's incremental-implementation idiom — JDBC interfaces stubbed to
// throw SQLException, used as super-classes so partial drivers behave like
// full drivers that failed — is reproduced by the Unimplemented* types in
// base.go, which every bundled driver embeds.
package driver

import (
	"errors"
	"fmt"
	"strings"

	"gridrm/internal/resultset"
)

// ErrNotImplemented is the analogue of the SQLException the paper's stubbed
// JDBC methods throw: calling a driver method the implementation has not
// provided yields this error, exactly as one would expect "from a fully
// implemented driver that had experienced errors" (§3.2.1).
var ErrNotImplemented = errors.New("driver: method not implemented")

// ErrBadURL reports a malformed GridRM data-source URL.
var ErrBadURL = errors.New("driver: malformed data source URL")

// ErrNoDriver reports that no registered driver accepts a URL.
var ErrNoDriver = errors.New("driver: no suitable driver")

// ErrClosed reports use of a closed connection or statement.
var ErrClosed = errors.New("driver: closed")

// Properties carries per-connection options (community strings, timeouts,
// cache TTLs ...), the analogue of JDBC's java.util.Properties.
type Properties map[string]string

// Get returns the property value or def when absent.
func (p Properties) Get(key, def string) string {
	if p == nil {
		return def
	}
	if v, ok := p[key]; ok {
		return v
	}
	return def
}

// Clone returns a copy of the properties (nil stays nil).
func (p Properties) Clone() Properties {
	if p == nil {
		return nil
	}
	out := make(Properties, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Driver is implemented by every data-source plug-in.
type Driver interface {
	// Name returns the driver's registration name, e.g. "jdbc-snmp".
	Name() string
	// AcceptsURL reports whether the driver believes it can operate with
	// the data source named by the URL. Like the paper's Table 2 scan,
	// this is a cheap syntactic check; Connect may still fail.
	AcceptsURL(url string) bool
	// Connect opens a session with the data source.
	Connect(url string, props Properties) (Conn, error)
}

// Versioned is optionally implemented by drivers that report a version.
type Versioned interface {
	Version() string
}

// Conn is a session with one data source (≈ java.sql.Connection).
type Conn interface {
	// CreateStatement returns a statement for executing queries. Per the
	// paper (Fig 5), schema mapping metadata is typically cached when the
	// connection is created and consulted by statements.
	CreateStatement() (Stmt, error)
	// Close releases the session.
	Close() error
	// Ping verifies the data source is still reachable. The gateway asks
	// after a statement on a pooled connection failed, to tell a dead
	// session from a failed query, and when its source sweep checks liveness;
	// a harvest that succeeds never pings.
	Ping() error
	// URL returns the data-source URL the connection was opened with.
	URL() string
	// Driver returns the name of the driver that produced the connection.
	Driver() string
}

// Stmt executes SQL against a data source (≈ java.sql.Statement). As in
// JDBC, one statement may run many queries, one at a time: the gateway's pool
// makes a connection's statement on first use, keeps it with the connection
// while the connection is idle, and closes it when it closes the connection.
type Stmt interface {
	// ExecuteQuery translates the SQL query to the source's native
	// protocol, performs the retrieval, and populates a ResultSet whose
	// columns conform to the GLUE naming schema.
	ExecuteQuery(sql string) (*resultset.ResultSet, error)
	// Close releases the statement.
	Close() error
}

// MaxRowsSetter is optionally implemented by statements that honour a row
// cap (≈ java.sql.Statement#setMaxRows).
type MaxRowsSetter interface {
	SetMaxRows(n int) error
}

// MetadataProvider is optionally implemented by connections that expose
// data-source metadata (≈ java.sql.DatabaseMetaData).
type MetadataProvider interface {
	// SourceInfo describes the agent behind the connection.
	SourceInfo() SourceInfo
}

// SourceInfo describes a connected data source.
type SourceInfo struct {
	// Protocol is the native protocol name ("snmp", "ganglia", ...).
	Protocol string
	// AgentVersion is the remote agent's self-reported version.
	AgentVersion string
	// Groups lists the GLUE groups the driver can answer for this source.
	Groups []string
}

// URL is the parsed form of a GridRM data-source URL:
//
//	gridrm:[protocol]://host[:port][/path]
//
// An empty protocol ("gridrm://...") asks the DriverManager to locate any
// compatible driver dynamically; a named protocol ("gridrm:nws://...")
// guides selection, mirroring the paper's jdbc:nws://snowboard.workgroup
// example (§3.2.2).
type URL struct {
	// Protocol is the requested driver protocol; empty means "any".
	Protocol string
	// Host is the agent host name or address.
	Host string
	// Port is the agent port; zero means the driver default.
	Port int
	// Path is the remainder after host:port, without the leading slash.
	Path string
	raw  string
}

// String returns the original URL text.
func (u *URL) String() string { return u.raw }

// Address returns "host:port" with the given default port when the URL
// does not carry one.
func (u *URL) Address(defaultPort int) string {
	port := u.Port
	if port == 0 {
		port = defaultPort
	}
	return fmt.Sprintf("%s:%d", u.Host, port)
}

// ParseURL parses a GridRM data-source URL.
func ParseURL(raw string) (*URL, error) {
	rest, ok := strings.CutPrefix(raw, "gridrm:")
	if !ok {
		return nil, fmt.Errorf("%w: %q must start with gridrm:", ErrBadURL, raw)
	}
	u := &URL{raw: raw}
	if i := strings.Index(rest, "//"); i >= 0 {
		u.Protocol = rest[:i]
		rest = rest[i+2:]
	} else {
		return nil, fmt.Errorf("%w: %q missing //", ErrBadURL, raw)
	}
	u.Protocol = strings.TrimSuffix(strings.ToLower(u.Protocol), ":")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		u.Path = rest[i+1:]
		rest = rest[:i]
	}
	if rest == "" {
		return nil, fmt.Errorf("%w: %q has no host", ErrBadURL, raw)
	}
	host := rest
	if i := strings.LastIndexByte(rest, ':'); i >= 0 {
		host = rest[:i]
		var port int
		if _, err := fmt.Sscanf(rest[i+1:], "%d", &port); err != nil || port <= 0 || port > 65535 {
			return nil, fmt.Errorf("%w: %q has bad port", ErrBadURL, raw)
		}
		u.Port = port
	}
	if host == "" {
		return nil, fmt.Errorf("%w: %q has empty host", ErrBadURL, raw)
	}
	u.Host = host
	return u, nil
}

// FormatURL builds a GridRM URL string from parts; protocol may be empty.
func FormatURL(protocol, host string, port int, path string) string {
	var sb strings.Builder
	sb.WriteString("gridrm:")
	if protocol != "" {
		sb.WriteString(protocol)
		sb.WriteString(":")
	}
	sb.WriteString("//")
	sb.WriteString(host)
	if port > 0 {
		fmt.Fprintf(&sb, ":%d", port)
	}
	if path != "" {
		sb.WriteByte('/')
		sb.WriteString(strings.TrimPrefix(path, "/"))
	}
	return sb.String()
}
