package bench

import (
	"context"
	"fmt"
	"math"
	"strings"

	"gridrm/internal/core"
	"gridrm/internal/sitekit"
)

func init() {
	register(Experiment{
		ID:     "e10",
		Anchor: "§1.1 / §3.2.2: a homogeneous view of heterogeneous data",
		Claim: "the same host queried through every driver yields the same GLUE values " +
			"wherever the native source carries them, and NULL where translation is not " +
			"possible — the correctness table behind GridRM's whole premise",
		run: runE10,
	})
}

func runE10(r *run) error {
	hosts := 4
	if r.quick {
		hosts = 2
	}
	site, err := sitekit.Start(sitekit.Options{Name: "e10", Hosts: hosts, Seed: 1010, CoarseCacheTTL: -1})
	if err != nil {
		return err
	}
	defer site.Close()
	gw, err := sitekit.NewGateway(site.Manifest(), site.Opts, false)
	if err != nil {
		return err
	}
	defer gw.Close()

	host := site.Sim.HostNames()[0]
	snap, _ := site.Sim.Snapshot(host)

	// Source per driver. SNMP agents are per-host, so pick the one that
	// serves the probed host (its registration names the host).
	sources := map[string]string{}
	for _, src := range gw.Sources() {
		if len(src.Drivers) != 1 {
			continue
		}
		name := src.Drivers[0]
		if name == "jdbc-snmp" {
			if strings.HasSuffix(src.Description, " "+host) {
				sources[name] = src.URL
			}
			continue
		}
		if _, dup := sources[name]; !dup {
			sources[name] = src.URL
		}
	}
	driverOrder := []string{"jdbc-snmp", "jdbc-ganglia", "jdbc-nws", "jdbc-netlogger", "jdbc-scms"}

	// Truth per checked field, from the simulator snapshot.
	type check struct {
		field string
		want  any
		tol   float64 // tolerance for floats (0 = exact)
	}
	checks := []check{
		{"HostName", snap.Name, 0},
		{"Model", snap.CPU.Model, 0},
		{"Vendor", snap.CPU.Vendor, 0},
		{"ClockSpeed", snap.CPU.ClockMHz, 0},
		{"LoadLast1Min", snap.Load1, 0},
		{"LoadLast15Min", snap.Load15, 0},
		{"Utilization", snap.UtilPct, 1.0},
	}

	fetchRow := func(url string) (map[string]any, error) {
		resp, err := gw.QueryContext(context.Background(), core.QueryOptions{
			Principal: benchPrincipal,
			SQL:       "SELECT * FROM Processor WHERE HostName = '" + host + "'",
			Sources:   []string{url},
			Mode:      core.ModeRealTime,
		})
		if err != nil {
			return nil, err
		}
		rs := resp.ResultSet
		if rs.Len() != 1 {
			return nil, fmt.Errorf("%s returned %d rows", url, rs.Len())
		}
		out := map[string]any{}
		for i, col := range rs.Metadata().Columns() {
			out[col.Name] = rs.Cell(0, i).Value()
		}
		return out, nil
	}

	rows := map[string]map[string]any{}
	for _, name := range driverOrder {
		url, ok := sources[name]
		if !ok {
			return fmt.Errorf("no source for %s", name)
		}
		row, err := fetchRow(url)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rows[name] = row
	}

	headers := append([]string{"Processor field", "sim truth"}, driverOrder...)
	t := newTable(r.w, headers...)
	mismatches := 0
	for _, c := range checks {
		cells := []any{c.field, fmt.Sprintf("%v", c.want)}
		for _, name := range driverOrder {
			v := rows[name][c.field]
			cells = append(cells, renderCell(v, c.want, c.tol, &mismatches))
		}
		t.row(cells...)
	}
	t.flush()

	if mismatches > 0 {
		return fmt.Errorf("%d value mismatches across drivers", mismatches)
	}
	fmt.Fprintf(r.w, "\nevery non-NULL cell agrees with the simulator truth (float tolerance where\n"+
		"the native encoding is lossy); NULL marks fields the source cannot translate\n"+
		"(§3.1.4). Coverage per driver:\n")
	ct := newTable(r.w, "driver", "group", "mapped fields / total")
	sm := gw.SchemaManager()
	for _, name := range driverOrder {
		ds, _, ok := sm.Lookup(name)
		if !ok {
			continue
		}
		for _, g := range ds.GroupNames() {
			mapped, total := ds.Coverage(g)
			ct.row(name, g, fmt.Sprintf("%d/%d", mapped, total))
		}
	}
	ct.flush()
	return nil
}

func renderCell(got, want any, tol float64, mismatches *int) string {
	if got == nil {
		return "NULL"
	}
	ok := false
	switch wv := want.(type) {
	case string:
		ok = got == wv
	case int64:
		switch gv := got.(type) {
		case int64:
			ok = gv == wv
		case float64:
			ok = math.Abs(gv-float64(wv)) <= tol
		}
	case float64:
		switch gv := got.(type) {
		case float64:
			ok = math.Abs(gv-wv) <= tol
		case int64:
			ok = math.Abs(float64(gv)-wv) <= tol
		}
	}
	if !ok {
		*mismatches++
		return fmt.Sprintf("%v (MISMATCH)", got)
	}
	return fmt.Sprintf("%v ok", got)
}
