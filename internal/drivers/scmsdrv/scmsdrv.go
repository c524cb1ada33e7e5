// Package scmsdrv implements the JDBC-SCMS driver: SQL queries against GLUE
// groups are answered from SCMS cluster-status lines. SCMS rounds out the
// paper's initial driver set (§3.2.3); its key=value lines parse trivially,
// so the driver carries no response cache, but like Ganglia a single STATUS
// answer covers the whole cluster.
//
// URLs: gridrm:scms://host:port. Protocol-less URLs are verified with a
// NODES handshake at connect time.
package scmsdrv

import (
	"fmt"
	"strconv"
	"strings"

	"gridrm/internal/agents/scms"
	"gridrm/internal/drivers/drvkit"
	"gridrm/internal/glue"
	"gridrm/internal/schema"
)

// DriverName is the registration name.
const DriverName = "jdbc-scms"

// DefaultPort is the SCMS port assumed when the URL has none.
const DefaultPort = 2933

// New creates the driver; the SchemaManager may be nil.
func New(sm *schema.Manager) *drvkit.Driver {
	return drvkit.New(drvkit.Spec{Name: DriverName, Protocol: "scms", DefaultPort: DefaultPort,
		Agent: "an SCMS agent", Schema: Schema, Open: open}, sm)
}

// session is one TCP connection to the SCMS daemon.
type session struct{ *drvkit.LineClient }

// open dials the daemon and verifies it with a NODES handshake.
func open(t drvkit.Target) (drvkit.Session, error) {
	line, err := drvkit.DialLine(t.Addr, t.Timeout)
	if err != nil {
		return nil, err
	}
	s := &session{line}
	return s, s.Ping()
}

// Ping implements drvkit.Session with a NODES round trip.
func (s *session) Ping() error { return s.Command("NODES", nil) }

// Fetch implements drvkit.Session. Site-level element groups come from the
// CLUSTER command; per-host groups from STATUS.
func (s *session) Fetch(rows *drvkit.Rows) error {
	kind := clusterKind(rows.Group.Name)
	cmd := "STATUS"
	if kind != "" {
		cmd = "CLUSTER"
	}
	return s.Command(cmd, func(line string) error {
		var fields map[string]string
		var err error
		if kind != "" {
			fields, err = scms.ParseFields(line)
			if err == nil && fields["kind"] != kind {
				return nil
			}
		} else {
			fields, err = scms.ParseStatus(line)
		}
		if err != nil {
			return fmt.Errorf("scmsdrv: %w", err)
		}
		return rows.Add(func(native string) (any, bool) {
			return resolve(native, fields)
		})
	})
}

// clusterKind returns the CLUSTER line kind tag serving a GLUE group, or
// "" for per-host groups.
func clusterKind(group string) string {
	switch group {
	case glue.GroupComputeElement:
		return "ce"
	case glue.GroupStorageElement:
		return "se"
	case glue.GroupNetworkElement:
		return "ne"
	}
	return ""
}

// resolve maps "key", "key|int" or "key|float" natives onto parsed status
// fields.
func resolve(native string, fields map[string]string) (any, bool) {
	name, conv, _ := strings.Cut(native, "|")
	v, ok := fields[name]
	if !ok {
		return nil, false
	}
	switch conv {
	case "int":
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, false
		}
		return n, true
	case "float":
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, false
		}
		return f, true
	case "":
		return v, true
	}
	return nil, false
}

// Schema returns the driver's GLUE mapping. Native names are SCMS status
// keys, optionally suffixed "|int" or "|float". SCMS is the only bundled
// driver that fills the full CPU identity (model, vendor, clock, cache)
// AND OS version, but it knows nothing about disks or the network.
func Schema() *schema.DriverSchema {
	return &schema.DriverSchema{
		Driver: DriverName,
		Groups: map[string]*schema.GroupMapping{
			glue.GroupProcessor: {Group: glue.GroupProcessor, Fields: []schema.FieldMapping{
				{GLUEField: "HostName", Native: "host"},
				{GLUEField: "Model", Native: "cpu_model"},
				{GLUEField: "Vendor", Native: "cpu_vendor"},
				{GLUEField: "ClockSpeed", Native: "cpu_mhz|int"},
				{GLUEField: "CacheSize", Native: "cpu_cache_kb|int"},
				{GLUEField: "CPUCount", Native: "ncpus|int"},
				{GLUEField: "LoadLast1Min", Native: "load1|float"},
				{GLUEField: "LoadLast5Min", Native: "load5|float"},
				{GLUEField: "LoadLast15Min", Native: "load15|float"},
				{GLUEField: "Utilization", Native: "util|float"},
			}},
			glue.GroupMemory: {Group: glue.GroupMemory, Fields: []schema.FieldMapping{
				{GLUEField: "HostName", Native: "host"},
				{GLUEField: "RAMSize", Native: "mem_total_mb|int"},
				{GLUEField: "RAMAvailable", Native: "mem_free_mb|int"},
			}},
			glue.GroupOperatingSystem: {Group: glue.GroupOperatingSystem, Fields: []schema.FieldMapping{
				{GLUEField: "HostName", Native: "host"},
				{GLUEField: "Name", Native: "os_name"},
				{GLUEField: "Release", Native: "os_release"},
				{GLUEField: "Version", Native: "os_version"},
				{GLUEField: "Uptime", Native: "uptime_s|int"},
				// BootTime is not an SCMS field → NULL.
			}},
			glue.GroupComputeElement: {Group: glue.GroupComputeElement, Fields: []schema.FieldMapping{
				{GLUEField: "CEId", Native: "id"},
				{GLUEField: "HostName", Native: "host"},
				{GLUEField: "LRMSType", Native: "lrms"},
				{GLUEField: "TotalCPUs", Native: "total_cpus|int"},
				{GLUEField: "FreeCPUs", Native: "free_cpus|int"},
				{GLUEField: "RunningJobs", Native: "running|int"},
				{GLUEField: "WaitingJobs", Native: "waiting|int"},
				{GLUEField: "Status", Native: "status"},
			}},
			glue.GroupStorageElement: {Group: glue.GroupStorageElement, Fields: []schema.FieldMapping{
				{GLUEField: "SEId", Native: "id"},
				{GLUEField: "HostName", Native: "host"},
				{GLUEField: "Protocol", Native: "protocol"},
				{GLUEField: "TotalSize", Native: "total_gb|int"},
				{GLUEField: "UsedSize", Native: "used_gb|int"},
				{GLUEField: "Status", Native: "status"},
			}},
			glue.GroupNetworkElement: {Group: glue.GroupNetworkElement, Fields: []schema.FieldMapping{
				{GLUEField: "Name", Native: "name"},
				{GLUEField: "Type", Native: "type"},
				{GLUEField: "PortCount", Native: "ports|int"},
				{GLUEField: "Status", Native: "status"},
			}},
		},
	}
}
