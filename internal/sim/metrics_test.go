package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode"

	"gridrm/internal/core"
	"gridrm/internal/metrics"
)

// statsRule names the metric each integer field of one Stats struct is
// exported as: gridrm_<prefix><foo>_total for an int64 counter Foo,
// gridrm_<prefix><foo> for an int gauge, or the irregular name given.
type statsRule struct {
	prefix    string
	irregular map[string]string
}

var statsRules = map[string]statsRule{
	"core.Stats": {},
	"router.Stats": {irregular: map[string]string{
		"Published": "gridrm_rows_published_total",
		"Enqueued":  "gridrm_rows_enqueued_total",
		"Dropped":   "gridrm_rows_dropped_total",
		"Evicted":   "gridrm_subscriber_evictions_total",
	}},
	"gma.Stats":   {irregular: map[string]string{"NotModified": "gridrm_remote_not_modified_total"}},
	"repub.Stats": {prefix: "repub_"},
	"tsdb.Stats": {prefix: "history_", irregular: map[string]string{
		"DiskBytes":               "gridrm_history_disk_bytes",
		"WALBytesSinceCheckpoint": "gridrm_history_wal_bytes_since_checkpoint",
	}},
}

// statsExempt lists the integer Stats fields no metric carries, and why.
var statsExempt = map[string]string{
	"router.Stats.Sinks":     "configuration fixed at start; /status lists every sink with its own counters",
	"tsdb.Stats.WALSegments": "a layout detail /status shows; disk use is gridrm_history_disk_bytes",
}

func statsMetric(typ string, field reflect.StructField) string {
	rule := statsRules[typ]
	if name, ok := rule.irregular[field.Name]; ok {
		return name
	}
	var b strings.Builder
	b.WriteString("gridrm_" + rule.prefix)
	name := field.Name
	for i, r := range name {
		lower := func(j int) bool { return j < len(name) && unicode.IsLower(rune(name[j])) }
		if i > 0 && unicode.IsUpper(r) && (lower(i-1) || lower(i+1)) {
			b.WriteByte('_')
		}
		b.WriteRune(unicode.ToLower(r))
	}
	if field.Type.Kind() == reflect.Int64 {
		b.WriteString("_total")
	}
	return b.String()
}

// TestMetricsCarryEveryStatsField walks every exported integer field of the
// Stats structs behind a federated fleet with durable history (the site
// gateway, its push router and durable store, the entry's federation
// router, the republisher): after some traffic, each is on its member's
// exposition with the value Stats reads, unless statsExempt says why not.
// So an operator's scrape, and the sim report built from it, can read every
// counter the members keep.
func TestMetricsCarryEveryStatsField(t *testing.T) {
	sc, err := ParseScenario([]byte(`
name: stats-on-metrics
duration: 1s
fleet:
  sites:
    - name: hub
      count: 1
      sources: 2
      hosts: 1
      durable_history: true
    - name: leaf
      count: 2
      sources: 1
      hosts: 1
federation:
  enabled: true
  entry_site: hub
  republishers: 1
  repub_refresh: 1h
  repub_scrape: 1h
`))
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHarness(sc, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.StartSubscribers(1, "SELECT * FROM Processor"); err != nil {
		t.Fatal(err)
	}
	entry := h.EntryGateway()
	for _, req := range []core.QueryOptions{
		{SQL: "SELECT * FROM Processor", Mode: core.ModeRealTime},
		{SQL: "SELECT * FROM Processor"},
		{SQL: "SELECT * FROM Processor", Site: "leaf-1"},
		{SQL: "SELECT * FROM Processor", Site: core.AllSites},
	} {
		req.Principal = SimPrincipal
		if _, err := entry.QueryContext(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}

	type member struct {
		name  string
		reg   *metrics.Registry
		stats func() []any
	}
	var members []member
	for _, site := range h.SiteOrder {
		gw := h.SiteGateway(site)
		members = append(members, member{site, gw.Metrics(), func() []any {
			st := []any{gw.Stats(), gw.PushRouter().Stats()}
			if d := gw.DurableHistory(); d != nil {
				st = append(st, d.Stats())
			}
			if site == h.Entry.Name {
				st = append(st, h.Router.Stats())
			}
			return st
		}})
	}
	for _, rr := range h.Repubs {
		members = append(members, member{rr.Name, rr.Gateway.Metrics(), func() []any { return []any{rr.Gateway.Stats()} }})
	}

	walked := map[string]bool{}
	for _, m := range members {
		// Background work (a feed row, a checkpoint) can move a counter
		// between two reads, so compare only a reading Stats agrees with
		// on both sides of the scrape.
		problems := []string{"Stats never held still across a scrape"}
		for attempt := 0; attempt < 50; attempt++ {
			before := m.stats()
			ex, err := metrics.Scrape(m.reg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(before, m.stats()) {
				time.Sleep(20 * time.Millisecond)
				continue
			}
			problems = nil
			for _, st := range before {
				v := reflect.ValueOf(st)
				typ := v.Type().String()
				if _, ok := statsRules[typ]; !ok {
					t.Fatalf("no naming rule for %s", typ)
				}
				walked[typ] = true
				for i := 0; i < v.NumField(); i++ {
					field := v.Type().Field(i)
					if k := field.Type.Kind(); !field.IsExported() || k != reflect.Int && k != reflect.Int64 {
						continue
					}
					key := typ + "." + field.Name
					if _, ok := statsExempt[key]; ok {
						walked[key] = true
						continue
					}
					name := statsMetric(typ, field)
					got, ok := ex.Samples[name]
					if !ok {
						problems = append(problems, key+": no "+name)
					} else if want := float64(v.Field(i).Int()); got != want {
						problems = append(problems, fmt.Sprintf("%s: %s reads %v, Stats %v", key, name, got, want))
					}
				}
			}
			break
		}
		for _, p := range problems {
			t.Errorf("%s: %s", m.name, p)
		}
	}
	for typ := range statsRules {
		if !walked[typ] {
			t.Errorf("no member carried a %s", typ)
		}
	}
	for key := range statsExempt {
		if !walked[key] {
			t.Errorf("exemption %s names no field the walk met", key)
		}
	}
}

// TestAssertionOnAbsentMetricFails: an assertion whose counter no member
// exposes fails and names it, where it once read 0 and so passed any max_
// limit and any min_ limit of 0.
func TestAssertionOnAbsentMetricFails(t *testing.T) {
	sc, err := ParseScenario([]byte(runnerScenario)) // no durable history, no subscribers
	if err != nil {
		t.Fatal(err)
	}
	sc.Assertions = map[string]float64{"min_wal_appends": 0, "max_row_drop_rate": 1}
	missing := func(r *Report) map[string]string {
		out := map[string]string{}
		for _, a := range evalAssertions(sc, r) {
			if a.OK != (a.Missing == "") {
				t.Errorf("%s: ok %v with missing %q", a.Name, a.OK, a.Missing)
			}
			out[a.Name] = a.Missing
		}
		return out
	}
	// Members that expose neither counter.
	if got := missing(&Report{}); got["min_wal_appends"] != "gridrm_history_wal_appends_total" ||
		got["max_row_drop_rate"] != "gridrm_rows_dropped_total" {
		t.Errorf("with no counters exposed, missing = %v", got)
	}
	// A real run: no site journals history, so the WAL counter is absent.
	// Every gateway registers its push router's counters, so the row drop
	// rate reads a true 0 over 0 offered rows.
	r, err := Run(sc, RunOptions{Duration: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if got := missing(r); got["min_wal_appends"] != "gridrm_history_wal_appends_total" || got["max_row_drop_rate"] != "" {
		t.Errorf("run without durable history: missing = %v", got)
	}
	if r.Passed || !strings.Contains(r.Summary(), "FAIL min_wal_appends: no member exposes gridrm_history_wal_appends_total") {
		t.Errorf("the run passed or its summary hides the missing metric:\n%s", r.Summary())
	}
}
