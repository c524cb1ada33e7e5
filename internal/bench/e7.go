package bench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"gridrm/internal/breaker"
	"gridrm/internal/core"
	"gridrm/internal/drivers/memdrv"
	"gridrm/internal/gma"
	"gridrm/internal/web"
)

func init() {
	register(Experiment{
		ID:     "e7",
		Anchor: "Fig 1: Global and Local layers over the GMA",
		Claim: "clients connect to any gateway; remote-site queries route through the " +
			"GMA directory to the owning gateway with one extra HTTP hop, and routing " +
			"cost stays flat as the federation grows",
		run: runE7,
	})
}

type fedSite struct {
	gw  *core.Gateway
	srv *httptest.Server
}

func buildFederation(n int) (*gma.Directory, []*fedSite, error) {
	dir := gma.NewDirectory(0, nil)
	sites := make([]*fedSite, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("site%02d", i)
		gw := core.New(core.Config{Name: name})
		backend := memdrv.NewBackend([]string{name + "-n1", name + "-n2"})
		d := memdrv.New("jdbc-mem", "mem", backend)
		if err := gw.RegisterDriver(d, d.Schema()); err != nil {
			return nil, nil, err
		}
		if err := gw.AddSource(core.SourceConfig{URL: "gridrm:mem://" + name + ":1"}); err != nil {
			return nil, nil, err
		}
		srv := httptest.NewServer(web.NewServer(gw, nil, nil))
		if err := dir.RegisterContext(context.Background(), gma.Registration{Name: name, Endpoint: srv.URL}); err != nil {
			return nil, nil, err
		}
		// A bare router — no lookup cache, no breaker — so the experiment
		// times the directory round trip on every remote query.
		gw.SetGlobalRouter(gma.NewRouter(dir, web.RemoteQueryContext, name,
			gma.Config{LookupTTL: -1, Breaker: breaker.Options{Threshold: -1}}))
		sites = append(sites, &fedSite{gw: gw, srv: srv})
	}
	return dir, sites, nil
}

func closeFederation(sites []*fedSite) {
	for _, s := range sites {
		s.srv.Close()
		s.gw.Close()
	}
}

func runE7(r *run) error {
	sizes := pick(r.quick, []int{2, 4}, []int{2, 4, 8, 16})

	t := newTable(r.w, "federation size", "local query", "remote (1 hop)", "hop overhead",
		"VO-wide (site=*)", "directory lookup")
	for _, n := range sizes {
		dir, sites, err := buildFederation(n)
		if err != nil {
			closeFederation(sites)
			return err
		}
		entry := sites[0]
		client := &web.Client{BaseURL: entry.srv.URL, Principal: benchPrincipal}
		remoteSite := fmt.Sprintf("site%02d", n-1)

		local := r.measure(fmt.Sprintf("local/sites-%d", n), loop(func() error {
			_, err := client.Query(context.Background(), core.QueryOptions{SQL: "SELECT * FROM Processor", Mode: core.ModeRealTime})
			return err
		}))
		remote := r.measure(fmt.Sprintf("remote-1hop/sites-%d", n), loop(func() error {
			_, err := client.Query(context.Background(), core.QueryOptions{SQL: "SELECT * FROM Processor",
				Site: remoteSite, Mode: core.ModeRealTime})
			return err
		}))
		// One SQL statement over the whole VO: the fan-out runs in
		// parallel, so cost should track the slowest site, not the sum.
		voWide := r.measure(fmt.Sprintf("vo-wide/sites-%d", n), loop(func() error {
			resp, err := entry.gw.QueryContext(context.Background(), core.QueryOptions{
				Principal: benchPrincipal,
				SQL:       "SELECT * FROM Processor",
				Site:      core.AllSites,
				Mode:      core.ModeRealTime,
			})
			if err != nil {
				return err
			}
			if resp.ResultSet.Len() != 2*n {
				return fmt.Errorf("VO rows = %d, want %d", resp.ResultSet.Len(), 2*n)
			}
			return nil
		}))
		lookup := r.measure(fmt.Sprintf("directory-lookup/sites-%d", n), loop(func() error {
			_, ok, err := dir.LookupContext(context.Background(), remoteSite)
			if !ok {
				return fmt.Errorf("site lost")
			}
			return err
		}))
		t.row(n, perOp(local), perOp(remote), perOp(remote)-perOp(local), perOp(voWide), perOp(lookup))
		closeFederation(sites)
	}
	t.flush()

	// Registration/refresh behaviour.
	dir := gma.NewDirectory(50*time.Millisecond, nil)
	reg := gma.NewRegistrar(dir, gma.Registration{Name: "x", Endpoint: "http://x"}, 10*time.Millisecond)
	if err := reg.Start(); err != nil {
		return err
	}
	time.Sleep(120 * time.Millisecond)
	_, stillThere, _ := dir.LookupContext(context.Background(), "x")
	reg.Stop()
	time.Sleep(80 * time.Millisecond)
	_, afterStop, _ := dir.LookupContext(context.Background(), "x")
	fmt.Fprintf(r.w, "\nproducer freshness: alive under refresh=%v, gone after deregistration=%v\n",
		stillThere, !afterStop)
	return nil
}
