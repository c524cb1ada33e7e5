// Package snmpdrv implements the JDBC-SNMP driver of the paper (Fig 3):
// SQL queries against GLUE groups are translated into fine-grained SNMP
// Get/GetNext requests, and the returned varbinds are mapped onto GLUE
// fields through the SchemaManager.
//
// Interaction style (paper §3.2.3): requests are fine-grained — scalar
// groups cost one Get round trip over the exact OIDs needed, table groups
// cost one GetNext walk of the relevant subtree — and "generally little or
// no parsing [is] required to read the native data value into the GridRM
// driver", so the driver carries no response cache.
//
// URLs: gridrm:snmp://host:port[/community] — the path overrides the
// "community" property. Protocol-less URLs (gridrm://host:port) are
// accepted and verified by a sysName probe at connect time, which is what
// lets the GridRMDriverManager locate this driver dynamically.
package snmpdrv

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"gridrm/internal/agents/snmp"
	"gridrm/internal/drivers/drvkit"
	"gridrm/internal/glue"
	"gridrm/internal/schema"
)

// DriverName is the registration name.
const DriverName = "jdbc-snmp"

// DefaultPort is the agent port assumed when the URL has none.
const DefaultPort = 1161

// New creates the driver. The SchemaManager may be nil, in which case the
// built-in mapping is used without revalidation.
func New(sm *schema.Manager) *drvkit.Driver {
	return drvkit.New(drvkit.Spec{Name: DriverName, Protocol: "snmp", DefaultPort: DefaultPort,
		Agent: "an SNMP agent", Schema: Schema, Open: open}, sm)
}

// session is one UDP client bound to an agent, plus the sysName its table
// rows are keyed by.
type session struct {
	client  *snmp.Client
	sysName string
}

// open binds a UDP client and verifies the agent by fetching sysName, so
// that dynamic selection only succeeds when the data source really speaks
// this protocol.
func open(t drvkit.Target) (drvkit.Session, error) {
	community := t.Props.Get("community", snmp.DefaultCommunity)
	if t.URL.Path != "" {
		community = t.URL.Path
	}
	client, err := snmp.Dial(t.Addr, community, t.Timeout)
	if err != nil {
		return nil, err
	}
	s := &session{client: client}
	vbs, err := client.Get(snmp.OIDSysName)
	if err != nil {
		return s, err
	}
	if len(vbs) == 0 || vbs[0].Value.Type != snmp.TypeString {
		return s, fmt.Errorf("no sysName")
	}
	s.sysName = vbs[0].Value.Str
	return s, nil
}

// Ping implements drvkit.Session with a sysUpTime fetch.
func (s *session) Ping() error {
	_, err := s.client.Get(snmp.OIDSysUpTime)
	return err
}

// Close implements drvkit.Session.
func (s *session) Close() error { return s.client.Close() }

// AgentVersion implements drvkit.AgentVersioner.
func (s *session) AgentVersion() string { return fmt.Sprintf("v%d", snmp.Version) }

// Fetch implements drvkit.Session: scalar groups cost one Get, table groups
// one walk per table.
func (s *session) Fetch(rows *drvkit.Rows) error {
	switch rows.Group.Name {
	case glue.GroupProcessor, glue.GroupMemory, glue.GroupOperatingSystem:
		row, err := s.fetchScalarRow(rows.Group, rows.Mapping)
		if err != nil {
			return err
		}
		rows.Append(row)
		return nil
	case glue.GroupDisk:
		return s.appendStorageRows(rows)
	case glue.GroupNetworkAdapter:
		return s.appendIfRows(rows)
	case glue.GroupProcess:
		return s.appendProcessRows(rows)
	}
	return fmt.Errorf("snmpdrv: group %s not supported by this driver", rows.Group.Name)
}

// fetchScalarRow performs one Get over every scalar OID the mapping needs
// and assembles the GLUE row directly (two mappings may pull different
// fields out of the same OID, e.g. OS Name and Release from sysDescr, so
// translation is per field, not per OID).
func (s *session) fetchScalarRow(g *glue.Group, gm *schema.GroupMapping) ([]any, error) {
	oids := make([]snmp.OID, len(gm.Fields))
	for i, f := range gm.Fields {
		oid, err := snmp.ParseOID(f.Native)
		if err != nil {
			return nil, fmt.Errorf("snmpdrv: mapping for %s is not an OID: %w", f.GLUEField, err)
		}
		oids[i] = oid
	}
	// One fine-grained round trip for the whole scalar group. An error
	// status with varbinds means some OIDs are absent on this agent:
	// refetch individually so present values still translate and absent
	// ones become NULL. An error with no varbinds is a transport failure
	// and propagates.
	vbs, err := s.client.Get(oids...)
	if err != nil {
		if len(vbs) == 0 {
			return nil, fmt.Errorf("snmpdrv: %w", err)
		}
		vbs = vbs[:0]
		for _, oid := range oids {
			single, gerr := s.client.Get(oid)
			if gerr != nil {
				if len(single) == 0 {
					return nil, fmt.Errorf("snmpdrv: %w", gerr)
				}
				vbs = append(vbs, snmp.Varbind{OID: oid, Value: snmp.NullValue})
				continue
			}
			vbs = append(vbs, single[0])
		}
	}
	if len(vbs) != len(gm.Fields) {
		return nil, fmt.Errorf("snmpdrv: agent answered %d of %d varbinds", len(vbs), len(gm.Fields))
	}
	row := make([]any, len(g.Fields))
	for i, fm := range gm.Fields {
		f, ok := g.Field(fm.GLUEField)
		if !ok {
			continue
		}
		if v, ok := translate(vbs[i].Value, f, fm.Note); ok {
			row[g.FieldIndex(fm.GLUEField)] = v
		}
	}
	return row, nil
}

// translate converts one SNMP value to the GLUE field's kind, applying the
// unit conversion named by the mapping note.
func translate(v snmp.Value, f glue.Field, note string) (any, bool) {
	if v.Type == snmp.TypeNull {
		return nil, false
	}
	var out any
	switch v.Type {
	case snmp.TypeInt:
		out = v.Int
	case snmp.TypeCounter, snmp.TypeTicks:
		out = int64(v.Uint)
	case snmp.TypeString:
		out = v.Str
	default:
		return nil, false
	}
	// Unit conversions recorded in the mapping notes.
	switch note {
	case "kb-to-mb":
		n, ok := out.(int64)
		if !ok {
			return nil, false
		}
		out = n / 1024
	case "ticks-to-seconds":
		n, ok := out.(int64)
		if !ok {
			return nil, false
		}
		out = n / 100
	case "bps-to-mbps":
		n, ok := out.(int64)
		if !ok {
			return nil, false
		}
		out = float64(n) / 1e6
	case "centi-percent":
		n, ok := out.(int64)
		if !ok {
			return nil, false
		}
		out = float64(n) / 100
	case "unix-to-time":
		n, ok := out.(int64)
		if !ok {
			return nil, false
		}
		out = time.Unix(n, 0).UTC()
	case "sysdescr-field-0", "sysdescr-field-1", "sysdescr-field-2":
		str, ok := out.(string)
		if !ok {
			return nil, false
		}
		idx := int(note[len(note)-1] - '0')
		parts := strings.SplitN(str, " ", 3)
		if idx >= len(parts) {
			return nil, false
		}
		out = parts[idx]
	case "swrun-state":
		n, ok := out.(int64)
		if !ok {
			return nil, false
		}
		out = swRunState(n)
	}
	// Coerce to the field kind where the wire type is close enough.
	switch f.Kind {
	case glue.Float:
		switch x := out.(type) {
		case int64:
			out = float64(x)
		case string:
			fv, err := strconv.ParseFloat(x, 64)
			if err != nil {
				return nil, false
			}
			out = fv
		}
	case glue.Int:
		if x, ok := out.(string); ok {
			n, err := strconv.ParseInt(x, 10, 64)
			if err != nil {
				return nil, false
			}
			out = n
		}
	}
	if glue.CheckValue(f, out) != nil {
		return nil, false
	}
	return out, true
}

func swRunState(n int64) string {
	switch n {
	case 1:
		return "R"
	case 2:
		return "S"
	case 3:
		return "D"
	}
	return "Z"
}

// tableValues walks one SNMP table subtree and returns column → index →
// value.
func (s *session) tableValues(prefix snmp.OID) (map[uint32]map[uint32]snmp.Value, error) {
	vbs, err := s.client.Walk(prefix)
	if err != nil {
		return nil, err
	}
	table := make(map[uint32]map[uint32]snmp.Value)
	for _, vb := range vbs {
		if len(vb.OID) != len(prefix)+2 {
			continue
		}
		col, idx := vb.OID[len(prefix)], vb.OID[len(prefix)+1]
		if table[col] == nil {
			table[col] = make(map[uint32]snmp.Value)
		}
		table[col][idx] = vb.Value
	}
	return table, nil
}

func sortedIndices(col map[uint32]snmp.Value) []uint32 {
	out := make([]uint32, 0, len(col))
	for idx := range col {
		out = append(out, idx)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// appendStorageRows renders hrStorageTable disk rows (index ≥ 2; index 1 is
// physical memory).
func (s *session) appendStorageRows(rows *drvkit.Rows) error {
	table, err := s.tableValues(snmp.OIDHrStorage)
	if err != nil {
		return err
	}
	descr := table[snmp.HrStorageColDescr]
	size := table[snmp.HrStorageColSize]
	used := table[snmp.HrStorageColUsed]
	for _, idx := range sortedIndices(descr) {
		if idx < 2 {
			continue
		}
		values := map[string]any{"sysName": s.sysName}
		if v := descr[idx]; v.Type == snmp.TypeString {
			values["hrStorageDescr"] = strings.TrimPrefix(v.Str, "/dev/")
		}
		var sz, us int64
		var haveSize, haveUsed bool
		if v, ok := size[idx]; ok && v.Type == snmp.TypeInt {
			sz, haveSize = v.Int, true
			values["hrStorageSize"] = sz
		}
		if v, ok := used[idx]; ok && v.Type == snmp.TypeInt {
			us, haveUsed = v.Int, true
		}
		if haveSize && haveUsed {
			values["hrStorageFree"] = sz - us
		}
		if err := rows.Add(func(native string) (any, bool) {
			v, ok := values[native]
			return v, ok
		}); err != nil {
			return err
		}
	}
	return nil
}

// appendIfRows renders ifTable rows.
func (s *session) appendIfRows(rows *drvkit.Rows) error {
	table, err := s.tableValues(snmp.OIDIfTable)
	if err != nil {
		return err
	}
	descr := table[snmp.IfColDescr]
	for _, idx := range sortedIndices(descr) {
		values := map[string]any{"sysName": s.sysName}
		put := func(native string, col uint32, conv func(snmp.Value) (any, bool)) {
			if v, ok := table[col][idx]; ok {
				if out, ok := conv(v); ok {
					values[native] = out
				}
			}
		}
		asStr := func(v snmp.Value) (any, bool) { return v.Str, v.Type == snmp.TypeString }
		asInt := func(v snmp.Value) (any, bool) {
			switch v.Type {
			case snmp.TypeInt:
				return v.Int, true
			case snmp.TypeCounter, snmp.TypeTicks:
				return int64(v.Uint), true
			}
			return nil, false
		}
		put("ifDescr", snmp.IfColDescr, asStr)
		put("ifAddr", snmp.IfColAddr, asStr)
		put("ifMtu", snmp.IfColMTU, asInt)
		put("ifSpeed", snmp.IfColSpeed, func(v snmp.Value) (any, bool) {
			if v.Type != snmp.TypeCounter {
				return nil, false
			}
			return float64(v.Uint) / 1e6, true
		})
		put("ifInOctets", snmp.IfColInOctets, asInt)
		put("ifOutOctets", snmp.IfColOutOctets, asInt)
		put("ifInUcastPkts", snmp.IfColInPkts, asInt)
		put("ifOutUcastPkts", snmp.IfColOutPkts, asInt)
		if err := rows.Add(func(native string) (any, bool) {
			v, ok := values[native]
			return v, ok
		}); err != nil {
			return err
		}
	}
	return nil
}

// appendProcessRows renders hrSWRun + hrSWRunPerf rows.
func (s *session) appendProcessRows(rows *drvkit.Rows) error {
	run, err := s.tableValues(snmp.OIDHrSWRun)
	if err != nil {
		return err
	}
	perf, err := s.tableValues(snmp.OIDHrSWRunPerf)
	if err != nil {
		return err
	}
	pids := run[snmp.HrSWRunColIndex]
	for _, idx := range sortedIndices(pids) {
		values := map[string]any{"sysName": s.sysName}
		if v := pids[idx]; v.Type == snmp.TypeInt {
			values["hrSWRunIndex"] = v.Int
		}
		if v, ok := run[snmp.HrSWRunColName][idx]; ok && v.Type == snmp.TypeString {
			values["hrSWRunName"] = v.Str
		}
		if v, ok := run[snmp.HrSWRunColStatus][idx]; ok && v.Type == snmp.TypeInt {
			values["hrSWRunStatus"] = swRunState(v.Int)
		}
		if v, ok := perf[snmp.HrSWRunPerfColCPU][idx]; ok && v.Type == snmp.TypeInt {
			values["hrSWRunPerfCPU"] = float64(v.Int) / 100
		}
		if v, ok := perf[snmp.HrSWRunPerfColMem][idx]; ok && v.Type == snmp.TypeInt {
			values["hrSWRunPerfMem"] = v.Int
		}
		if err := rows.Add(func(native string) (any, bool) {
			v, ok := values[native]
			return v, ok
		}); err != nil {
			return err
		}
	}
	return nil
}
