package core

import (
	"fmt"
	"sort"

	"gridrm/internal/event"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// metricWatch publishes one GLUE field of every harvested row as a Usage
// event — the right-hand side of the paper's Fig 3, where harvested data
// flows into the Notification Manager so threshold rules can raise
// "Threshold exceeded. Alert transmitted" without any separate polling
// loop: monitoring piggybacks on the queries clients already run.
type metricWatch struct {
	group     *glue.Group
	fieldIdx  int
	fieldName string
	hostIdx   int
}

// WatchMetric asks the gateway to publish `group.field` as a Usage event
// (named "<Group>.<Field>", host taken from the group's first string key
// field) for every row of every successful harvest of that group. Combine
// with Events().AddRule to turn harvests into alerts.
func (g *Gateway) WatchMetric(group, field string) error {
	gg, ok := glue.Lookup(group)
	if !ok {
		return fmt.Errorf("core: unknown group %q", group)
	}
	f, ok := gg.Field(field)
	if !ok {
		return fmt.Errorf("core: group %s has no field %q", group, field)
	}
	if f.Kind != glue.Int && f.Kind != glue.Float {
		return fmt.Errorf("core: field %s.%s is %s; only numeric fields can be watched",
			group, field, f.Kind)
	}
	hostIdx := -1
	for i, kf := range gg.Fields {
		if kf.Key && kf.Kind == glue.String {
			hostIdx = i
			break
		}
	}
	if hostIdx < 0 {
		return fmt.Errorf("core: group %s has no string key field to attribute events to", group)
	}
	w := metricWatch{
		group:     gg,
		fieldIdx:  gg.FieldIndex(f.Name),
		fieldName: f.Name,
		hostIdx:   hostIdx,
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, existing := range g.watches[gg.Name] {
		if existing.fieldName == w.fieldName {
			return fmt.Errorf("core: %s.%s already watched", group, field)
		}
	}
	if g.watches == nil {
		g.watches = make(map[string][]metricWatch)
	}
	g.watches[gg.Name] = append(g.watches[gg.Name], w)
	return nil
}

// WatchedMetrics lists active watches as "Group.Field" strings.
func (g *Gateway) WatchedMetrics() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []string
	for group, ws := range g.watches {
		for _, w := range ws {
			out = append(out, group+"."+w.fieldName)
		}
	}
	sort.Strings(out)
	return out
}

// publishHarvestMetrics emits watched fields of a freshly harvested
// ResultSet as Usage events.
func (g *Gateway) publishHarvestMetrics(url string, group *glue.Group, rs *resultset.ResultSet) {
	g.mu.RLock()
	watches := g.watches[group.Name]
	g.mu.RUnlock()
	if len(watches) == 0 {
		return
	}
	now := g.clock()
	for i := 0; i < rs.Len(); i++ {
		for _, w := range watches {
			v := rs.Cell(i, w.fieldIdx)
			if v.Null || !v.Numeric() {
				continue // NULL: the source cannot supply this field
			}
			host := rs.Cell(i, w.hostIdx).Str
			g.events.Publish(event.Event{
				Source:   url,
				Host:     host,
				Name:     group.Name + "." + w.fieldName,
				Severity: event.SeverityUsage,
				Value:    v.AsFloat(),
				Time:     now,
			})
		}
	}
}
