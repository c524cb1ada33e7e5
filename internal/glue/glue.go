// Package glue implements the common naming schema GridRM uses to present a
// homogeneous view of heterogeneous resource data.
//
// The schema is modelled on the Grid Laboratory Uniform Environment (GLUE)
// schema referenced by the paper (§3.1.4): data is logically organised into
// named groups (ComputeElement, Processor, Memory, ...), each group
// prescribing a set of typed, unit-annotated fields. A group is directly
// comparable to a table of a relational database; clients SELECT from group
// names and drivers are responsible for mapping native agent data onto the
// group's fields. Where a translation is not possible for a field, drivers
// return NULL (a nil value) for it, per §3.1.4.
package glue

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind enumerates the value types a GLUE field may carry.
type Kind int

// The supported field kinds.
const (
	String Kind = iota
	Int
	Float
	Bool
	Time
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case Time:
		return "time"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Field describes one attribute of a GLUE group.
type Field struct {
	// Name is the canonical field name, unique within its group.
	Name string
	// Kind is the value type the field carries.
	Kind Kind
	// Unit is the unit of measure ("MB", "MHz", "%", ...); empty for
	// dimensionless or string fields.
	Unit string
	// Desc is a one-line human description.
	Desc string
	// Key marks fields that identify the entity a row describes
	// (for example HostName, or HostName+DeviceName for disks).
	Key bool
}

// Group is a named collection of fields; the unit of querying in GridRM
// ("SELECT * FROM Processor").
type Group struct {
	// Name is the canonical group name.
	Name string
	// Desc is a one-line human description.
	Desc string
	// Fields lists the group's attributes in canonical order.
	Fields []Field

	index map[string]int
}

// FieldNames returns the canonical field names in order.
func (g *Group) FieldNames() []string {
	names := make([]string, len(g.Fields))
	for i, f := range g.Fields {
		names[i] = f.Name
	}
	return names
}

// Field returns the field with the given name (case-insensitive) and
// whether it exists.
func (g *Group) Field(name string) (Field, bool) {
	i := g.FieldIndex(name)
	if i < 0 {
		return Field{}, false
	}
	return g.Fields[i], true
}

// FieldIndex returns the position of the named field (case-insensitive)
// in the group's canonical order, or -1 if the group has no such field.
// The index holds canonical and lower-case spellings, so only a name in
// some third spelling pays for folding.
func (g *Group) FieldIndex(name string) int {
	if i, ok := g.index[name]; ok {
		return i
	}
	if i, ok := g.index[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// KeyFields returns the names of the group's key fields in canonical order.
func (g *Group) KeyFields() []string {
	var keys []string
	for _, f := range g.Fields {
		if f.Key {
			keys = append(keys, f.Name)
		}
	}
	return keys
}

// Canonical group names.
const (
	GroupComputeElement  = "ComputeElement"
	GroupProcessor       = "Processor"
	GroupMemory          = "Memory"
	GroupDisk            = "Disk"
	GroupNetworkAdapter  = "NetworkAdapter"
	GroupOperatingSystem = "OperatingSystem"
	GroupProcess         = "Process"
	GroupStorageElement  = "StorageElement"
	GroupNetworkElement  = "NetworkElement"
)

var groups = map[string]*Group{}
var groupNames []string

func register(g *Group) *Group {
	g.index = make(map[string]int, 2*len(g.Fields))
	for i, f := range g.Fields {
		key := strings.ToLower(f.Name)
		if _, dup := g.index[key]; dup {
			panic("glue: duplicate field " + f.Name + " in group " + g.Name)
		}
		g.index[key] = i
		g.index[f.Name] = i
	}
	lower := strings.ToLower(g.Name)
	if _, dup := groups[lower]; dup {
		panic("glue: duplicate group " + g.Name)
	}
	groups[lower] = g
	groups[g.Name] = g
	groupNames = append(groupNames, g.Name)
	sort.Strings(groupNames)
	return g
}

// Lookup returns the group with the given name (case-insensitive). Like
// FieldIndex, it folds only a name that is neither canonical nor lower-case.
func Lookup(name string) (*Group, bool) {
	if g, ok := groups[name]; ok {
		return g, true
	}
	g, ok := groups[strings.ToLower(name)]
	return g, ok
}

// FieldSpelled returns the group and the field whose canonical names are
// exactly group and name, or nil. It folds nothing and makes no string, so a
// decoder holding the two names as bytes can take the schema's own strings
// for them instead of allocating its own.
func FieldSpelled(group, name []byte) (*Group, *Field) {
	g, ok := groups[string(group)]
	if !ok || g.Name != string(group) {
		return nil, nil
	}
	i, ok := g.index[string(name)]
	if !ok || g.Fields[i].Name != string(name) {
		return nil, nil
	}
	return g, &g.Fields[i]
}

// MustLookup is like Lookup but panics if the group does not exist. It is
// intended for initialisation paths with literal group names.
func MustLookup(name string) *Group {
	g, ok := Lookup(name)
	if !ok {
		panic("glue: unknown group " + name)
	}
	return g
}

// GroupNames returns the canonical names of all schema groups, sorted.
func GroupNames() []string {
	out := make([]string, len(groupNames))
	copy(out, groupNames)
	return out
}

// Groups returns all schema groups sorted by name.
func Groups() []*Group {
	out := make([]*Group, 0, len(groupNames))
	for _, n := range groupNames {
		g, _ := Lookup(n)
		out = append(out, g)
	}
	return out
}

// The schema definition. Field sets follow the GLUE compute/storage/network
// element conceptual schemas, trimmed to the attributes the paper's agent
// set can plausibly supply.
var (
	// ComputeElement describes a site-level batch/compute endpoint.
	ComputeElement = register(&Group{
		Name: GroupComputeElement,
		Desc: "A compute service endpoint (cluster head or batch queue).",
		Fields: []Field{
			{Name: "CEId", Kind: String, Desc: "Unique compute element identifier", Key: true},
			{Name: "HostName", Kind: String, Desc: "Head node host name"},
			{Name: "LRMSType", Kind: String, Desc: "Local resource management system type"},
			{Name: "TotalCPUs", Kind: Int, Desc: "Total CPUs available"},
			{Name: "FreeCPUs", Kind: Int, Desc: "CPUs currently free"},
			{Name: "RunningJobs", Kind: Int, Desc: "Jobs currently running"},
			{Name: "WaitingJobs", Kind: Int, Desc: "Jobs currently queued"},
			{Name: "Status", Kind: String, Desc: "Operational status"},
		},
	})

	// Processor describes per-host CPU identity and load.
	Processor = register(&Group{
		Name: GroupProcessor,
		Desc: "Per-host processor identity and load.",
		Fields: []Field{
			{Name: "HostName", Kind: String, Desc: "Host name", Key: true},
			{Name: "Model", Kind: String, Desc: "Processor model string"},
			{Name: "Vendor", Kind: String, Desc: "Processor vendor"},
			{Name: "ClockSpeed", Kind: Int, Unit: "MHz", Desc: "Clock speed"},
			{Name: "CacheSize", Kind: Int, Unit: "KB", Desc: "L2 cache size"},
			{Name: "CPUCount", Kind: Int, Desc: "Number of processors"},
			{Name: "LoadLast1Min", Kind: Float, Desc: "1-minute load average"},
			{Name: "LoadLast5Min", Kind: Float, Desc: "5-minute load average"},
			{Name: "LoadLast15Min", Kind: Float, Desc: "15-minute load average"},
			{Name: "Utilization", Kind: Float, Unit: "%", Desc: "Instantaneous CPU utilisation"},
		},
	})

	// Memory describes per-host physical and virtual memory.
	Memory = register(&Group{
		Name: GroupMemory,
		Desc: "Per-host physical and virtual memory.",
		Fields: []Field{
			{Name: "HostName", Kind: String, Desc: "Host name", Key: true},
			{Name: "RAMSize", Kind: Int, Unit: "MB", Desc: "Physical memory size"},
			{Name: "RAMAvailable", Kind: Int, Unit: "MB", Desc: "Physical memory available"},
			{Name: "VirtualSize", Kind: Int, Unit: "MB", Desc: "Virtual memory size"},
			{Name: "VirtualAvailable", Kind: Int, Unit: "MB", Desc: "Virtual memory available"},
			{Name: "SwapInRate", Kind: Float, Unit: "pages/s", Desc: "Swap-in rate"},
			{Name: "SwapOutRate", Kind: Float, Unit: "pages/s", Desc: "Swap-out rate"},
		},
	})

	// Disk describes one storage device on a host.
	Disk = register(&Group{
		Name: GroupDisk,
		Desc: "Per-device disk capacity and throughput.",
		Fields: []Field{
			{Name: "HostName", Kind: String, Desc: "Host name", Key: true},
			{Name: "DeviceName", Kind: String, Desc: "Device name", Key: true},
			{Name: "Size", Kind: Int, Unit: "MB", Desc: "Device capacity"},
			{Name: "Available", Kind: Int, Unit: "MB", Desc: "Free capacity"},
			{Name: "ReadRate", Kind: Float, Unit: "MB/s", Desc: "Current read throughput"},
			{Name: "WriteRate", Kind: Float, Unit: "MB/s", Desc: "Current write throughput"},
		},
	})

	// NetworkAdapter describes one network interface on a host.
	NetworkAdapter = register(&Group{
		Name: GroupNetworkAdapter,
		Desc: "Per-interface network identity and counters.",
		Fields: []Field{
			{Name: "HostName", Kind: String, Desc: "Host name", Key: true},
			{Name: "InterfaceName", Kind: String, Desc: "Interface name", Key: true},
			{Name: "IPAddress", Kind: String, Desc: "IPv4 address"},
			{Name: "MTU", Kind: Int, Unit: "bytes", Desc: "Maximum transmission unit"},
			{Name: "Bandwidth", Kind: Float, Unit: "Mb/s", Desc: "Nominal link bandwidth"},
			{Name: "Latency", Kind: Float, Unit: "ms", Desc: "Measured round-trip latency"},
			{Name: "BytesIn", Kind: Int, Unit: "bytes", Desc: "Octets received"},
			{Name: "BytesOut", Kind: Int, Unit: "bytes", Desc: "Octets transmitted"},
			{Name: "PacketsIn", Kind: Int, Desc: "Packets received"},
			{Name: "PacketsOut", Kind: Int, Desc: "Packets transmitted"},
		},
	})

	// OperatingSystem describes per-host OS identity and uptime.
	OperatingSystem = register(&Group{
		Name: GroupOperatingSystem,
		Desc: "Per-host operating system identity.",
		Fields: []Field{
			{Name: "HostName", Kind: String, Desc: "Host name", Key: true},
			{Name: "Name", Kind: String, Desc: "Operating system name"},
			{Name: "Release", Kind: String, Desc: "Kernel release"},
			{Name: "Version", Kind: String, Desc: "Operating system version"},
			{Name: "Uptime", Kind: Int, Unit: "s", Desc: "Seconds since boot"},
			{Name: "BootTime", Kind: Time, Desc: "Boot timestamp"},
		},
	})

	// Process describes one process on a host.
	Process = register(&Group{
		Name: GroupProcess,
		Desc: "Per-process resource usage.",
		Fields: []Field{
			{Name: "HostName", Kind: String, Desc: "Host name", Key: true},
			{Name: "PID", Kind: Int, Desc: "Process identifier", Key: true},
			{Name: "Name", Kind: String, Desc: "Process name"},
			{Name: "State", Kind: String, Desc: "Scheduler state"},
			{Name: "User", Kind: String, Desc: "Owning user"},
			{Name: "CPUPercent", Kind: Float, Unit: "%", Desc: "CPU share"},
			{Name: "MemoryKB", Kind: Int, Unit: "KB", Desc: "Resident memory"},
		},
	})

	// StorageElement describes a site-level storage endpoint.
	StorageElement = register(&Group{
		Name: GroupStorageElement,
		Desc: "A storage service endpoint.",
		Fields: []Field{
			{Name: "SEId", Kind: String, Desc: "Unique storage element identifier", Key: true},
			{Name: "HostName", Kind: String, Desc: "Service host name"},
			{Name: "Protocol", Kind: String, Desc: "Access protocol"},
			{Name: "TotalSize", Kind: Int, Unit: "GB", Desc: "Total capacity"},
			{Name: "UsedSize", Kind: Int, Unit: "GB", Desc: "Used capacity"},
			{Name: "Status", Kind: String, Desc: "Operational status"},
		},
	})

	// NetworkElement describes network infrastructure (hubs, routers,
	// gateways) per the paper's §1 resource taxonomy.
	NetworkElement = register(&Group{
		Name: GroupNetworkElement,
		Desc: "Network infrastructure device.",
		Fields: []Field{
			{Name: "Name", Kind: String, Desc: "Device name", Key: true},
			{Name: "Type", Kind: String, Desc: "Device type (router, switch, hub)"},
			{Name: "PortCount", Kind: Int, Desc: "Number of ports"},
			{Name: "Status", Kind: String, Desc: "Operational status"},
		},
	})
)

// CheckValue reports whether v is acceptable for field f: nil (NULL) is
// always acceptable; otherwise the dynamic type must match the field kind.
func CheckValue(f Field, v any) error {
	if v == nil {
		return nil
	}
	ok := false
	switch f.Kind {
	case String:
		_, ok = v.(string)
	case Int:
		_, ok = v.(int64)
	case Float:
		_, ok = v.(float64)
	case Bool:
		_, ok = v.(bool)
	case Time:
		_, ok = v.(time.Time)
	}
	if !ok {
		return fmt.Errorf("glue: field %s expects %s, got %T", f.Name, f.Kind, v)
	}
	return nil
}
