// Package gangliadrv implements the JDBC-Ganglia driver (paper Fig 3).
//
// Ganglia is the paper's example of a coarse-grained data source (§3.2.3):
// any query costs a whole-cluster XML dump that must be parsed, so "a
// greater overhead is required to parse values from the response" and
// driver implementations "should address these issues by using caching
// policies within the plug-in". This driver therefore caches the parsed
// cluster document per connection for a TTL (property "cache_ttl",
// default 1s); every GLUE group served within the TTL reuses one dump.
//
// URLs: gridrm:ganglia://host:port. Protocol-less URLs are accepted and
// verified at connect time by fetching and parsing a dump.
package gangliadrv

import (
	"encoding/xml"
	"fmt"
	"net"
	"strconv"
	"time"

	"gridrm/internal/agents/ganglia"
	"gridrm/internal/drivers/drvkit"
	"gridrm/internal/glue"
	"gridrm/internal/httpjson"
	"gridrm/internal/schema"
)

// DriverName is the registration name.
const DriverName = "jdbc-ganglia"

// DefaultPort is the gmond port assumed when the URL has none.
const DefaultPort = 8649

// New creates the driver; the SchemaManager may be nil.
func New(sm *schema.Manager) *drvkit.Driver {
	return drvkit.New(drvkit.Spec{Name: DriverName, Protocol: "ganglia", DefaultPort: DefaultPort,
		Agent: "a gmond agent", Schema: Schema, Open: open}, sm)
}

// session holds the per-plug-in dump cache; gmond closes the socket after
// each dump, so there is no standing connection.
type session struct {
	addr    string
	timeout time.Duration
	dump    *drvkit.Cached[*ganglia.Document]
}

// open verifies the agent by fetching and parsing one dump.
func open(t drvkit.Target) (drvkit.Session, error) {
	s := &session{addr: t.Addr, timeout: t.Timeout}
	s.dump = drvkit.NewCached(t, s.fetch)
	_, err := s.dump.Get()
	return s, err
}

// Ping implements drvkit.Session by dialling the agent.
func (s *session) Ping() error {
	tcp, err := net.DialTimeout("tcp", s.addr, s.timeout)
	if err != nil {
		return fmt.Errorf("gangliadrv: %w", err)
	}
	return tcp.Close()
}

// Close implements drvkit.Session.
func (s *session) Close() error { return nil }

// AgentVersion implements drvkit.AgentVersioner from the last dump.
func (s *session) AgentVersion() string {
	if doc, ok := s.dump.Last(); ok {
		return doc.Version
	}
	return ""
}

func (s *session) fetch() (*ganglia.Document, error) {
	tcp, err := net.DialTimeout("tcp", s.addr, s.timeout)
	if err != nil {
		return nil, err
	}
	defer tcp.Close()
	_ = tcp.SetReadDeadline(time.Now().Add(s.timeout))
	data, err := httpjson.ReadBody(tcp, -1, drvkit.MaxAgentResponse)
	if err != nil {
		return nil, err
	}
	return parseDocument(data)
}

// parseDocument parses one gmond dump, at most drvkit.MaxAgentResponse bytes
// as fetch reads it. It is the driver's whole surface to a hostile agent
// (FuzzGangliaDocument).
func parseDocument(data []byte) (*ganglia.Document, error) {
	var doc ganglia.Document
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parsing gmond XML: %w", err)
	}
	return &doc, nil
}

// Fetch implements drvkit.Session: one row per host of the cluster dump.
func (s *session) Fetch(rows *drvkit.Rows) error {
	doc, err := s.dump.Get()
	if err != nil {
		return err
	}
	for _, host := range doc.Cluster.Hosts {
		if err := rows.Add(hostResolver(rows.Group, rows.Mapping, host)); err != nil {
			return err
		}
	}
	return nil
}

// hostResolver translates gmond metric names (plus the pseudo-metrics
// "hostname" and "ip") into GLUE-typed values for one host, parsing the
// string VALs the coarse XML response carries. A VAL the field it maps to
// cannot hold (text where gm puts a number) is unavailable, so NULL, as a
// metric gmond does not report is: one odd metric does not fail the harvest.
func hostResolver(g *glue.Group, gm *schema.GroupMapping, host ganglia.Host) func(string) (any, bool) {
	metrics := make(map[string]ganglia.Metric, len(host.Metrics))
	for _, m := range host.Metrics {
		metrics[m.Name] = m
	}
	return func(native string) (any, bool) {
		v, ok := hostValue(host, metrics, native)
		if !ok {
			return nil, false
		}
		for _, fm := range gm.Fields {
			if fm.Native != native {
				continue
			}
			if i := g.FieldIndex(fm.GLUEField); i >= 0 && glue.CheckValue(g.Fields[i], v) != nil {
				return nil, false
			}
		}
		return v, true
	}
}

// hostValue is one native value of host, whose metrics are by name.
func hostValue(host ganglia.Host, metrics map[string]ganglia.Metric, native string) (any, bool) {
	switch native {
	case "hostname":
		return host.Name, true
	case "ip":
		if host.IP == "" {
			return nil, false
		}
		return host.IP, true
	}
	if len(native) > 6 && native[:6] == "const:" {
		// Synthetic key values for gmond's cluster-wide aggregates.
		return native[6:], true
	}
	name, conv, hasConv := cutConv(native)
	m, ok := metrics[name]
	if !ok {
		return nil, false
	}
	f, err := strconv.ParseFloat(m.Val, 64)
	if m.Type == "string" || err != nil {
		if hasConv {
			return nil, false
		}
		return m.Val, true
	}
	if hasConv {
		if conv == "idle-to-util" {
			return 100 - f, true
		}
		if conv == "gb-to-mb" {
			f *= 1024
		}
		// The other conversions are integral: a reading no int64 holds
		// is NULL.
		n, ok := schema.Int64(f)
		if !ok {
			return nil, false
		}
		switch conv {
		case "kb-to-mb":
			return n / 1024, true
		case "gb-to-mb", "int":
			return n, true
		case "unix-to-time":
			return time.Unix(n, 0).UTC(), true
		}
		return nil, false
	}
	// Default numeric: kind decided by the GLUE field at BuildRow;
	// return float unless integral metric type.
	if m.Type == "uint32" {
		n, ok := schema.Int64(f)
		if !ok {
			return nil, false
		}
		return n, true
	}
	return f, true
}

// cutConv splits "metric|conversion" natives.
func cutConv(native string) (name, conv string, ok bool) {
	for i := 0; i < len(native); i++ {
		if native[i] == '|' {
			return native[:i], native[i+1:], true
		}
	}
	return native, "", false
}
