package bench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/drivers/memdrv"
	"gridrm/internal/pool"
	"gridrm/internal/qcache"
)

func init() {
	register(Experiment{
		ID:     "e6",
		Anchor: "§4 / Fig 9: the cached tree view limits resource intrusion",
		Claim: "with the query cache on, a heavily used gateway answers many clients " +
			"while the number of native requests reaching the agents stays nearly flat; " +
			"with the cache off, intrusion grows linearly with client load",
		run: runE6,
	})
}

func runE6(r *run) error {
	clients := pick(r.quick, []int{1, 16}, []int{1, 8, 32, 128})
	agentDelay := 300 * time.Microsecond

	// load spreads b.N queries over nClients goroutines on one gateway.
	load := func(mode core.Mode, nClients int) func(b *testing.B) error {
		return func(b *testing.B) error {
			backend := memdrv.NewBackend([]string{"h1", "h2", "h3", "h4"})
			backend.SetQueryDelay(agentDelay)
			gw := core.New(core.Config{
				Name:  "e6",
				Cache: qcache.Options{TTL: time.Hour}, // never stale within the run
				Pool:  pool.Options{MaxIdlePerSource: nClients},
			})
			defer gw.Close()
			d := memdrv.New("jdbc-mem", "mem", backend)
			if err := gw.RegisterDriver(d, d.Schema()); err != nil {
				return err
			}
			if err := gw.AddSource(core.SourceConfig{URL: "gridrm:mem://agent:1"}); err != nil {
				return err
			}
			b.ResetTimer()
			err := workers(nClients, b.N, func() error {
				_, err := gw.QueryContext(context.Background(), core.QueryOptions{
					Principal: benchPrincipal,
					SQL:       "SELECT * FROM Processor WHERE LoadLast1Min >= 0",
					Mode:      mode,
				})
				return err
			})
			b.ReportMetric(float64(backend.Queries())/float64(b.N), "agent-reqs/op")
			return err
		}
	}

	t := newTable(r.w, "clients", "mode", "queries", "elapsed", "gateway q/s", "agent requests", "intrusion/query")
	for _, n := range clients {
		for _, mode := range []core.Mode{core.ModeRealTime, core.ModeCached} {
			res := r.measure(fmt.Sprintf("%s/clients-%d", mode, n), load(mode, n))
			intrusion := res.Extra["agent-reqs/op"]
			t.row(n, mode, res.N, res.T.Round(time.Millisecond),
				fmt.Sprintf("%.0f", float64(res.N)/res.T.Seconds()),
				int64(intrusion*float64(res.N)+0.5), fmt.Sprintf("%.3f", intrusion))
		}
	}
	t.flush()
	fmt.Fprintf(r.w, "\nnote: 'agent requests' is how many queries actually reached the (rate-limited)\n"+
		"native agent — the paper's \"resource intrusion\". Cached mode pins it near 1.\n")
	return nil
}
