package glue

import (
	"strings"
	"testing"
	"time"
)

func TestLookupKnownGroups(t *testing.T) {
	for _, name := range []string{
		GroupComputeElement, GroupProcessor, GroupMemory, GroupDisk,
		GroupNetworkAdapter, GroupOperatingSystem, GroupProcess,
		GroupStorageElement, GroupNetworkElement,
	} {
		g, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) not found", name)
		}
		if g.Name != name {
			t.Errorf("Lookup(%q).Name = %q", name, g.Name)
		}
		if len(g.Fields) == 0 {
			t.Errorf("group %q has no fields", name)
		}
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	for _, v := range []string{"processor", "PROCESSOR", "pRoCeSsOr"} {
		if _, ok := Lookup(v); !ok {
			t.Errorf("Lookup(%q) should find Processor", v)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("NoSuchGroup"); ok {
		t.Error("Lookup of unknown group succeeded")
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLookup of unknown group did not panic")
		}
	}()
	MustLookup("NoSuchGroup")
}

func TestGroupNamesSortedAndComplete(t *testing.T) {
	names := GroupNames()
	if len(names) != 9 {
		t.Fatalf("expected 9 groups, got %d: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("GroupNames not sorted: %q >= %q", names[i-1], names[i])
		}
	}
	// Mutating the returned slice must not affect the schema.
	names[0] = "mutated"
	if GroupNames()[0] == "mutated" {
		t.Error("GroupNames returned shared slice")
	}
}

func TestGroupsMatchesGroupNames(t *testing.T) {
	gs := Groups()
	names := GroupNames()
	if len(gs) != len(names) {
		t.Fatalf("Groups()=%d, GroupNames()=%d", len(gs), len(names))
	}
	for i, g := range gs {
		if g.Name != names[i] {
			t.Errorf("Groups()[%d]=%q, want %q", i, g.Name, names[i])
		}
	}
}

func TestFieldLookup(t *testing.T) {
	p := MustLookup(GroupProcessor)
	f, ok := p.Field("loadlast1min")
	if !ok {
		t.Fatal("case-insensitive field lookup failed")
	}
	if f.Name != "LoadLast1Min" || f.Kind != Float {
		t.Errorf("unexpected field %+v", f)
	}
	if _, ok := p.Field("Nope"); ok {
		t.Error("unknown field lookup succeeded")
	}
}

func TestFieldIndex(t *testing.T) {
	p := MustLookup(GroupProcessor)
	if i := p.FieldIndex("HostName"); i != 0 {
		t.Errorf("HostName index = %d, want 0", i)
	}
	if i := p.FieldIndex("nope"); i != -1 {
		t.Errorf("unknown field index = %d, want -1", i)
	}
	for i, f := range p.Fields {
		if j := p.FieldIndex(f.Name); j != i {
			t.Errorf("FieldIndex(%q) = %d, want %d", f.Name, j, i)
		}
	}
}

func TestFieldNamesOrder(t *testing.T) {
	m := MustLookup(GroupMemory)
	names := m.FieldNames()
	if names[0] != "HostName" || names[1] != "RAMSize" {
		t.Errorf("unexpected canonical order: %v", names)
	}
	if len(names) != len(m.Fields) {
		t.Errorf("FieldNames length %d != Fields length %d", len(names), len(m.Fields))
	}
}

func TestKeyFields(t *testing.T) {
	tests := []struct {
		group string
		want  []string
	}{
		{GroupProcessor, []string{"HostName"}},
		{GroupDisk, []string{"HostName", "DeviceName"}},
		{GroupProcess, []string{"HostName", "PID"}},
		{GroupNetworkAdapter, []string{"HostName", "InterfaceName"}},
	}
	for _, tc := range tests {
		got := MustLookup(tc.group).KeyFields()
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%s keys = %v, want %v", tc.group, got, tc.want)
		}
	}
}

func TestCheckValue(t *testing.T) {
	cases := []struct {
		f  Field
		v  any
		ok bool
	}{
		{Field{Name: "s", Kind: String}, "x", true},
		{Field{Name: "s", Kind: String}, int64(1), false},
		{Field{Name: "i", Kind: Int}, int64(1), true},
		{Field{Name: "i", Kind: Int}, 1, false}, // plain int is rejected
		{Field{Name: "i", Kind: Int}, 1.0, false},
		{Field{Name: "f", Kind: Float}, 1.5, true},
		{Field{Name: "f", Kind: Float}, int64(1), false},
		{Field{Name: "b", Kind: Bool}, true, true},
		{Field{Name: "b", Kind: Bool}, "true", false},
		{Field{Name: "t", Kind: Time}, time.Now(), true},
		{Field{Name: "t", Kind: Time}, "2020-01-01", false},
		{Field{Name: "n", Kind: Int}, nil, true}, // NULL always acceptable
	}
	for _, c := range cases {
		err := CheckValue(c.f, c.v)
		if (err == nil) != c.ok {
			t.Errorf("CheckValue(%v kind=%v, %#v): err=%v, want ok=%v", c.f.Name, c.f.Kind, c.v, err, c.ok)
		}
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{String: "string", Int: "int", Float: "float", Bool: "bool", Time: "time"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind formatted as %q", Kind(99).String())
	}
}

func TestEveryGroupHasKeyAndHostContext(t *testing.T) {
	for _, g := range Groups() {
		if len(g.KeyFields()) == 0 {
			t.Errorf("group %s has no key fields", g.Name)
		}
		for _, f := range g.Fields {
			if f.Name == "" {
				t.Errorf("group %s has unnamed field", g.Name)
			}
			if f.Desc == "" {
				t.Errorf("group %s field %s has no description", g.Name, f.Name)
			}
		}
	}
}

// Lookups by a canonical (or lower-case) name are on every query's path and
// must not fold, which allocates; any other spelling still resolves.
func TestCanonicalLookupsDoNotAllocate(t *testing.T) {
	p := MustLookup(GroupProcessor)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := Lookup("Processor"); !ok {
			t.Fatal("Processor missing")
		}
		if _, ok := Lookup("processor"); !ok {
			t.Fatal("processor missing")
		}
		if p.FieldIndex("LoadLast1Min") != 6 || p.FieldIndex("loadlast1min") != 6 {
			t.Fatal("LoadLast1Min misplaced")
		}
		if f, ok := p.Field("HostName"); !ok || !f.Key {
			t.Fatal("HostName missing")
		}
	})
	if allocs != 0 {
		t.Errorf("canonical lookups allocate %.0f times", allocs)
	}
	if p.FieldIndex("LOADLAST1MIN") != 6 || p.FieldIndex("loadLast1min") != 6 {
		t.Error("folded field lookup lost")
	}
	if _, ok := p.Field("hOSTnAME"); !ok {
		t.Error("folded Field lost")
	}
}

// FieldSpelled finds only the schema's own spelling, and never allocates: it
// is how a wire decoder trades the names it was sent for the schema's.
func TestFieldSpelled(t *testing.T) {
	p := MustLookup(GroupProcessor)
	g, f := FieldSpelled([]byte("Processor"), []byte("LoadLast1Min"))
	if g != p || f != &p.Fields[6] {
		t.Fatalf("FieldSpelled(Processor, LoadLast1Min) = %v, %v", g, f)
	}
	for _, miss := range [][2]string{{"processor", "LoadLast1Min"}, {"Processor", "loadlast1min"},
		{"Processor", "Bogus"}, {"Quantum", "HostName"}, {"", "HostName"}, {"Processor", ""}} {
		if g, f := FieldSpelled([]byte(miss[0]), []byte(miss[1])); g != nil || f != nil {
			t.Errorf("FieldSpelled(%q, %q) found %v, %v", miss[0], miss[1], g, f)
		}
	}
	group, name := []byte("Processor"), []byte("HostName")
	if allocs := testing.AllocsPerRun(100, func() { FieldSpelled(group, name) }); allocs != 0 {
		t.Errorf("FieldSpelled allocates %.0f times", allocs)
	}
}
