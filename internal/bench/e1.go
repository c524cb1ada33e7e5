package bench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/qcache"
	"gridrm/internal/security"
	"gridrm/internal/sitekit"
)

func init() {
	register(Experiment{
		ID:     "e1",
		Anchor: "Fig 3: the path of a query for resource data within the local Gateway",
		Claim: "a SQL query flows RequestManager → ConnectionManager → DriverManager → " +
			"driver → SchemaManager and returns a GLUE ResultSet from every driver; " +
			"cached-mode responses are much faster than real-time harvests",
		run: runE1,
	})
}

var benchPrincipal = security.Principal{Name: "bench", Roles: []string{"operator"}}

func runE1(r *run) error {
	// Cache TTL an hour: a cached case never re-harvests mid-measurement.
	site, err := sitekit.Start(sitekit.Options{Name: "e1", Hosts: 4, Seed: 11, CoarseCacheTTL: -1,
		Gateway: core.Config{Cache: qcache.Options{TTL: time.Hour}}})
	if err != nil {
		return err
	}
	defer site.Close()
	gw, err := sitekit.NewGateway(site.Manifest(), site.Opts, false)
	if err != nil {
		return err
	}
	defer gw.Close()

	// One source per driver type (sources carry a single static driver
	// preference in this deployment).
	type target struct {
		label string
		url   string
	}
	var targets []target
	seen := map[string]bool{}
	for _, src := range gw.Sources() {
		if len(src.Drivers) != 1 || seen[src.Drivers[0]] {
			continue
		}
		seen[src.Drivers[0]] = true
		targets = append(targets, target{src.Drivers[0], src.URL})
	}

	t := newTable(r.w, "driver", "real-time/query", "cached/query", "speedup", "rows",
		"real-time B/op", "real-time allocs/op", "cached B/op", "cached allocs/op")
	for _, tgt := range targets {
		// The first query of each case warms the pool and driver (or the
		// query cache) outside the timer.
		query := func(mode core.Mode) func(b *testing.B) error {
			return func(b *testing.B) error {
				req := core.QueryOptions{Principal: benchPrincipal,
					SQL: "SELECT * FROM Processor", Sources: []string{tgt.url}, Mode: mode}
				resp, err := gw.QueryContext(context.Background(), req)
				if err != nil {
					return err
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := gw.QueryContext(context.Background(), req); err != nil {
						return err
					}
				}
				b.ReportMetric(float64(resp.ResultSet.Len()), "rows")
				return nil
			}
		}
		rt := r.measure(tgt.label+"/real-time", query(core.ModeRealTime))
		cached := r.measure(tgt.label+"/cached", query(core.ModeCached))
		t.row(tgt.label, perOp(rt), perOp(cached),
			fmt.Sprintf("%.0fx", float64(rt.NsPerOp())/float64(cached.NsPerOp())), int(rt.Extra["rows"]),
			rt.AllocedBytesPerOp(), rt.AllocsPerOp(), cached.AllocedBytesPerOp(), cached.AllocsPerOp())
	}
	t.flush()

	// Per-stage accounting from the component counters.
	st := gw.Stats()
	ps := gw.Pool().Stats()
	ds := gw.DriverManager().Stats()
	fmt.Fprintf(r.w, "\nstage counters: harvests=%d cache-served=%d | pool hits=%d misses=%d opens=%d | driver scans=%d probes=%d last-good hits=%d\n",
		st.Harvests, st.CacheServed, ps.Hits, ps.Misses, ps.Opens, ds.Scans, ds.ScanProbes, ds.CacheHits)
	return nil
}
