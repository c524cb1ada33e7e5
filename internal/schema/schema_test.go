package schema

import (
	"testing"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

func validSchema() *DriverSchema {
	return &DriverSchema{
		Driver: "jdbc-test",
		Groups: map[string]*GroupMapping{
			glue.GroupProcessor: {
				Group: glue.GroupProcessor,
				Fields: []FieldMapping{
					{GLUEField: "HostName", Native: "sysName"},
					{GLUEField: "LoadLast1Min", Native: "laLoad.1"},
				},
			},
		},
	}
}

func TestRegisterAndLookup(t *testing.T) {
	m := NewManager()
	if err := m.Register(validSchema()); err != nil {
		t.Fatal(err)
	}
	ds, gen, ok := m.Lookup("jdbc-test")
	if !ok || ds.Driver != "jdbc-test" || gen != 1 {
		t.Fatalf("Lookup = %v, %d, %v", ds, gen, ok)
	}
	if !m.Valid("jdbc-test", gen) {
		t.Error("fresh generation invalid")
	}
	// Re-registering bumps generation.
	if err := m.Register(validSchema()); err != nil {
		t.Fatal(err)
	}
	if m.Valid("jdbc-test", gen) {
		t.Error("old generation still valid after re-register")
	}
	if m.Lookups() < 1 {
		t.Error("lookups not counted")
	}
	if got := m.Drivers(); len(got) != 1 || got[0] != "jdbc-test" {
		t.Errorf("Drivers = %v", got)
	}
}

func TestRegisterValidation(t *testing.T) {
	m := NewManager()
	if err := m.Register(nil); err == nil {
		t.Error("nil schema accepted")
	}
	if err := m.Register(&DriverSchema{}); err == nil {
		t.Error("unnamed schema accepted")
	}
	bad := validSchema()
	bad.Groups["Nope"] = &GroupMapping{Group: "Nope"}
	if err := m.Register(bad); err == nil {
		t.Error("unknown group accepted")
	}
	bad = validSchema()
	bad.Groups[glue.GroupProcessor].Fields = append(bad.Groups[glue.GroupProcessor].Fields,
		FieldMapping{GLUEField: "Bogus", Native: "x"})
	if err := m.Register(bad); err == nil {
		t.Error("unknown field accepted")
	}
	bad = validSchema()
	bad.Groups[glue.GroupProcessor].Fields = append(bad.Groups[glue.GroupProcessor].Fields,
		FieldMapping{GLUEField: "HostName", Native: "again"})
	if err := m.Register(bad); err == nil {
		t.Error("duplicate field accepted")
	}
	bad = validSchema()
	bad.Groups[glue.GroupProcessor].Fields[0].Native = ""
	if err := m.Register(bad); err == nil {
		t.Error("empty native name accepted")
	}
	bad = validSchema()
	bad.Groups[glue.GroupMemory] = &GroupMapping{Group: glue.GroupProcessor}
	if err := m.Register(bad); err == nil {
		t.Error("mismatched group key accepted")
	}
}

func TestDeregister(t *testing.T) {
	m := NewManager()
	_ = m.Register(validSchema())
	_, gen, _ := m.Lookup("jdbc-test")
	m.Deregister("jdbc-test")
	if _, _, ok := m.Lookup("jdbc-test"); ok {
		t.Error("deregistered schema still present")
	}
	if m.Valid("jdbc-test", gen) {
		t.Error("generation valid after deregister")
	}
}

func TestGroupNamesAndCoverage(t *testing.T) {
	ds := validSchema()
	ds.Groups[glue.GroupMemory] = &GroupMapping{Group: glue.GroupMemory,
		Fields: []FieldMapping{{GLUEField: "RAMSize", Native: "mem_total"}}}
	names := ds.GroupNames()
	if len(names) != 2 || names[0] != glue.GroupMemory || names[1] != glue.GroupProcessor {
		t.Errorf("GroupNames = %v", names)
	}
	mapped, total := ds.Coverage(glue.GroupProcessor)
	if mapped != 2 || total != len(glue.MustLookup(glue.GroupProcessor).Fields) {
		t.Errorf("Coverage = %d/%d", mapped, total)
	}
	mapped, total = ds.Coverage(glue.GroupDisk)
	if mapped != 0 {
		t.Errorf("unmapped group coverage = %d/%d", mapped, total)
	}
	if m, tot := ds.Coverage("Nope"); m != 0 || tot != 0 {
		t.Errorf("unknown group coverage = %d/%d", m, tot)
	}
}

func TestBuildRow(t *testing.T) {
	g := glue.MustLookup(glue.GroupProcessor)
	gm := &GroupMapping{Group: g.Name, Fields: []FieldMapping{
		{GLUEField: "HostName", Native: "name"},
		{GLUEField: "LoadLast1Min", Native: "load"},
		{GLUEField: "CPUCount", Native: "ncpu"},
	}}
	values := map[string]any{"name": "n1", "load": 1.5}
	row, err := BuildRow(g, gm, func(native string) (any, bool) {
		v, ok := values[native]
		return v, ok
	})
	if err != nil {
		t.Fatal(err)
	}
	if row[g.FieldIndex("HostName")] != "n1" {
		t.Error("mapped string missing")
	}
	if row[g.FieldIndex("LoadLast1Min")] != 1.5 {
		t.Error("mapped float missing")
	}
	// ncpu mapped but unavailable → NULL; Model unmapped → NULL.
	if row[g.FieldIndex("CPUCount")] != nil || row[g.FieldIndex("Model")] != nil {
		t.Error("NULL rule violated")
	}
	meta, err := resultset.MetadataForGroup(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resultset.NewBuilder(meta).Append(row...).Build(); err != nil {
		t.Errorf("built row invalid: %v", err)
	}
}

func TestBuildRowTypeMismatch(t *testing.T) {
	g := glue.MustLookup(glue.GroupProcessor)
	gm := &GroupMapping{Group: g.Name, Fields: []FieldMapping{
		{GLUEField: "LoadLast1Min", Native: "load"},
	}}
	_, err := BuildRow(g, gm, func(string) (any, bool) { return "not a float", true })
	if err == nil {
		t.Error("mistyped native value accepted")
	}
}

func TestMappedLookup(t *testing.T) {
	gm := &GroupMapping{Group: glue.GroupProcessor, Fields: []FieldMapping{
		{GLUEField: "HostName", Native: "sysName"},
	}}
	if n, ok := gm.Mapped("HostName"); !ok || n != "sysName" {
		t.Errorf("Mapped = %q, %v", n, ok)
	}
	if _, ok := gm.Mapped("Model"); ok {
		t.Error("unmapped field reported mapped")
	}
}
