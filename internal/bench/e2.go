package bench

import (
	"fmt"
	"testing"

	"gridrm/internal/driver"
	"gridrm/internal/drivers/memdrv"
)

func init() {
	register(Experiment{
		ID:     "e2",
		Anchor: "Fig 5 + Table 2: dynamically locating a GridRM data source",
		Claim: "static preferences and the last-good driver cache avoid the AcceptsURL " +
			"scan, whose cost grows with registry size; when a cached driver dies the " +
			"configured policy (retry / try-next / report) governs failover",
		run: runE2,
	})
}

// e2Registry builds a manager with n registered drivers where only the last
// one accepts the target protocol.
func e2Registry(n int) (*driver.Manager, string) {
	dm := driver.NewManager()
	backend := memdrv.NewBackend([]string{"h1"})
	for i := 0; i < n-1; i++ {
		d := memdrv.New(fmt.Sprintf("jdbc-filler-%02d", i), fmt.Sprintf("filler%02d", i), backend)
		_ = dm.RegisterDriver(d)
	}
	_ = dm.RegisterDriver(memdrv.New("jdbc-target", "target", backend))
	return dm, "gridrm:target://agent:1"
}

func runE2(r *run) error {
	sizes := pick(r.quick, []int{4, 16}, []int{1, 4, 16, 64})

	// connectLoop is the measured operation of every column: locate a
	// driver for url, connect, close.
	connectLoop := func(b *testing.B, dm *driver.Manager, url string, clearCache bool) error {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if clearCache {
				dm.ClearCache()
			}
			conn, err := dm.Connect(url, nil)
			if err != nil {
				return err
			}
			_ = conn.Close() // memdrv's Close cannot fail
		}
		return nil
	}

	t := newTable(r.w, "registered drivers", "dynamic scan", "last-good cache", "static pref", "probes/scan")
	for _, n := range sizes {
		// Dynamic: clear the cache before every connect.
		dyn := r.measure(fmt.Sprintf("dynamic-scan/drivers-%d", n), func(b *testing.B) error {
			dm, url := e2Registry(n)
			err := connectLoop(b, dm, url, true)
			st := dm.Stats()
			b.ReportMetric(float64(st.ScanProbes)/float64(st.Scans), "probes/scan")
			return err
		})
		// Cached: warm once, then reconnects hit the last-good entry.
		cached := r.measure(fmt.Sprintf("last-good-cache/drivers-%d", n), func(b *testing.B) error {
			dm, url := e2Registry(n)
			conn, err := dm.Connect(url, nil)
			if err != nil {
				return err
			}
			_ = conn.Close()
			return connectLoop(b, dm, url, false)
		})
		static := r.measure(fmt.Sprintf("static-preference/drivers-%d", n), func(b *testing.B) error {
			dm, url := e2Registry(n)
			dm.SetPreferences(url, []string{"jdbc-target"})
			return connectLoop(b, dm, url, false)
		})
		t.row(n, perOp(dyn), perOp(cached), perOp(static), fmt.Sprintf("%.1f", dyn.Extra["probes/scan"]))
	}
	t.flush()

	// Failover behaviour: cached driver dies; TryNext relocates, Report
	// surfaces the error (§3.1.3 configuration rules).
	fmt.Fprintf(r.w, "\nfailover when the cached driver dies:\n")
	ft := newTable(r.w, "policy", "retries", "outcome", "connect failures", "failovers")
	for _, policy := range []driver.Policy{
		{Retries: 0, OnFailure: driver.TryNext},
		{Retries: 2, OnFailure: driver.TryNext},
		{Retries: 0, OnFailure: driver.Report},
	} {
		dm := driver.NewManager()
		good := memdrv.NewBackend([]string{"h1"})
		dying := memdrv.NewBackend([]string{"h1"})
		_ = dm.RegisterDriver(memdrv.New("jdbc-dying", "shared", dying))
		_ = dm.RegisterDriver(memdrv.New("jdbc-backup", "shared", good))
		dm.SetPolicy(policy)
		url := "gridrm:shared://agent:1"
		if conn, err := dm.Connect(url, nil); err != nil {
			return err
		} else {
			_ = conn.Close()
		}
		dying.SetFailConnect(true)
		outcome := "reconnected via jdbc-backup"
		conn, err := dm.Connect(url, nil)
		if err != nil {
			outcome = "error reported to client"
		} else {
			outcome = "reconnected via " + conn.Driver()
			_ = conn.Close()
		}
		st := dm.Stats()
		ft.row(policy.OnFailure.String(), policy.Retries, outcome, st.ConnectFailures, st.Failovers)
	}
	ft.flush()
	return nil
}
