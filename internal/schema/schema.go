// Package schema implements the GridRM SchemaManager (paper §3.1.4): the
// registry of mapping and translation metadata that tells each data-source
// driver how its native values realise the GLUE naming schema.
//
// Each driver registers a DriverSchema — per GLUE group, the list of GLUE
// fields it can supply and the native identifier (OID, metric name, ULM
// event, status key ...) each one comes from. Statements ask the manager
// for the mapping when a connection is created and cache it; the manager
// keeps a generation counter per driver so cached mappings can be
// revalidated cheaply before use, reproducing Fig 5's "schema is cached
// when the connection is created; Statement checks cache consistency
// before using schema instance".
//
// The translation rule of §3.1.4 is enforced by BuildRow: any GLUE field a
// driver has not mapped, or whose native value the agent cannot supply,
// comes back NULL — "indicating a translation was either not possible or
// currently not implemented".
package schema

import (
	"fmt"
	"sort"
	"sync"

	"gridrm/internal/glue"
)

// FieldMapping binds one GLUE field to the native datum that realises it.
type FieldMapping struct {
	// GLUEField is the field name within the group.
	GLUEField string
	// Native identifies the value in the source's own vocabulary
	// (an OID, a gmond metric name, a ULM event, ...).
	Native string
	// Note optionally documents unit or semantic conversion applied.
	Note string
}

// GroupMapping is a driver's realisation of one GLUE group.
type GroupMapping struct {
	// Group is the GLUE group name.
	Group string
	// Fields lists the mapped fields; unmapped fields are NULL.
	Fields []FieldMapping
}

// Mapped returns the native identifier for a GLUE field, if mapped.
func (gm *GroupMapping) Mapped(field string) (string, bool) {
	for _, f := range gm.Fields {
		if f.GLUEField == field {
			return f.Native, true
		}
	}
	return "", false
}

// DriverSchema is everything the SchemaManager knows about one driver's
// GLUE implementation.
type DriverSchema struct {
	// Driver is the driver's registration name.
	Driver string
	// Groups maps GLUE group name → mapping.
	Groups map[string]*GroupMapping
}

// GroupNames returns the GLUE groups the driver implements, sorted.
func (ds *DriverSchema) GroupNames() []string {
	names := make([]string, 0, len(ds.Groups))
	for n := range ds.Groups {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Coverage reports how many of a group's GLUE fields the driver maps.
func (ds *DriverSchema) Coverage(group string) (mapped, total int) {
	g, ok := glue.Lookup(group)
	if !ok {
		return 0, 0
	}
	total = len(g.Fields)
	if gm, ok := ds.Groups[group]; ok {
		mapped = len(gm.Fields)
	}
	return mapped, total
}

// Manager is the SchemaManager.
type Manager struct {
	mu      sync.RWMutex
	schemas map[string]*DriverSchema
	gens    map[string]int64
}

// NewManager returns an empty SchemaManager.
func NewManager() *Manager {
	return &Manager{schemas: make(map[string]*DriverSchema), gens: make(map[string]int64)}
}

// Register installs (or replaces) a driver's schema after validating every
// group and field against the GLUE definition. Re-registering bumps the
// driver's generation, invalidating cached lookups.
func (m *Manager) Register(ds *DriverSchema) error {
	if ds == nil || ds.Driver == "" {
		return fmt.Errorf("schema: driver schema must name its driver")
	}
	for name, gm := range ds.Groups {
		g, ok := glue.Lookup(name)
		if !ok {
			return fmt.Errorf("schema: driver %s maps unknown group %q", ds.Driver, name)
		}
		if gm.Group != name {
			return fmt.Errorf("schema: driver %s: group key %q names mapping %q", ds.Driver, name, gm.Group)
		}
		seen := make(map[string]bool, len(gm.Fields))
		for _, f := range gm.Fields {
			if _, ok := g.Field(f.GLUEField); !ok {
				return fmt.Errorf("schema: driver %s group %s maps unknown field %q", ds.Driver, name, f.GLUEField)
			}
			if seen[f.GLUEField] {
				return fmt.Errorf("schema: driver %s group %s maps field %q twice", ds.Driver, name, f.GLUEField)
			}
			seen[f.GLUEField] = true
			if f.Native == "" {
				return fmt.Errorf("schema: driver %s group %s field %q has empty native name", ds.Driver, name, f.GLUEField)
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.schemas[ds.Driver] = ds
	m.gens[ds.Driver]++
	return nil
}

// Deregister removes a driver's schema.
func (m *Manager) Deregister(driver string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.schemas, driver)
	m.gens[driver]++
}

// Lookup returns a driver's schema and its current generation. Connections
// cache both and revalidate with Valid.
func (m *Manager) Lookup(driver string) (*DriverSchema, int64, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ds, ok := m.schemas[driver]
	return ds, m.gens[driver], ok
}

// Valid reports whether a cached generation is still current for a driver.
func (m *Manager) Valid(driver string, gen int64) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.gens[driver] == gen
}

// Drivers returns the names of drivers with registered schemas, sorted.
func (m *Manager) Drivers() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.schemas))
	for n := range m.schemas {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Int64 converts a native numeric reading to an integer, truncating toward
// zero as a Go conversion does. It refuses NaN, ±Inf and readings no int64
// holds, which a conversion turns into an arbitrary number: a driver reads
// such a value as NULL.
func Int64(f float64) (int64, bool) {
	if !(f >= -(1<<63) && f < 1<<63) {
		return 0, false
	}
	return int64(f), true
}

// BuildRow materialises one GLUE row (canonical field order) for group g
// under mapping gm, pulling native values through get. Unmapped fields and
// fields whose native value is unavailable become NULL; a native value of
// the wrong dynamic type is an error (the driver's translation is broken,
// not the data missing).
func BuildRow(g *glue.Group, gm *GroupMapping, get func(native string) (any, bool)) ([]any, error) {
	row := make([]any, len(g.Fields))
	for i, f := range g.Fields {
		native, ok := gm.Mapped(f.Name)
		if !ok {
			continue // translation not implemented → NULL
		}
		v, ok := get(native)
		if !ok {
			continue // value unavailable → NULL
		}
		if err := glue.CheckValue(f, v); err != nil {
			return nil, fmt.Errorf("schema: native %q: %w", native, err)
		}
		row[i] = v
	}
	return row, nil
}
