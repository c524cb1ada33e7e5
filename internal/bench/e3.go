package bench

import (
	"fmt"
	"testing"
	"time"

	"gridrm/internal/driver"
	"gridrm/internal/drivers/memdrv"
	"gridrm/internal/pool"
)

func init() {
	register(Experiment{
		ID:     "e3",
		Anchor: "§3.1.2: the ConnectionManager pools driver connections",
		Claim: "driver connections incur an overhead when a data source is first " +
			"connected, so pooling wins whenever connect cost is non-trivial, and the " +
			"hit ratio stays high under concurrency",
		run: runE3,
	})
}

func runE3(r *run) error {
	concurrencies := pick(r.quick, []int{1, 8}, []int{1, 4, 16, 64})
	connectCost := 500 * time.Microsecond

	// queries spreads b.N checkout-query-release rounds over workers
	// goroutines sharing one pool.
	queries := func(disabled bool, workerCount int) func(b *testing.B) error {
		return func(b *testing.B) error {
			backend := memdrv.NewBackend([]string{"h1", "h2"})
			backend.SetConnectDelay(connectCost)
			dm := driver.NewManager()
			if err := dm.RegisterDriver(memdrv.New("jdbc-mem", "mem", backend)); err != nil {
				return err
			}
			cm := pool.New(dm, pool.Options{Disabled: disabled, MaxIdlePerSource: workerCount})
			url := "gridrm:mem://agent:1"
			b.ResetTimer()
			err := workers(workerCount, b.N, func() error {
				conn, err := cm.Get(url, nil)
				if err != nil {
					return err
				}
				stmt, err := conn.CreateStatement()
				if err != nil {
					conn.Discard()
					return err
				}
				if _, err := stmt.ExecuteQuery("SELECT * FROM Processor"); err != nil {
					conn.Discard()
					return err
				}
				conn.Release()
				return nil
			})
			ps := cm.Stats()
			b.ReportMetric(float64(ps.Hits)/float64(ps.Hits+ps.Misses), "hit-ratio")
			b.ReportMetric(float64(ps.Opens)/float64(b.N), "opens/op")
			return err
		}
	}

	t := newTable(r.w, "concurrency", "pooled/query", "unpooled/query", "speedup", "pool hit ratio", "opens/query pooled", "opens/query unpooled")
	for _, c := range concurrencies {
		pooled := r.measure(fmt.Sprintf("pooled/workers-%d", c), queries(false, c))
		unpooled := r.measure(fmt.Sprintf("unpooled/workers-%d", c), queries(true, c))
		t.row(c, perOp(pooled), perOp(unpooled),
			fmt.Sprintf("%.1fx", float64(unpooled.NsPerOp())/float64(pooled.NsPerOp())),
			pooled.Extra["hit-ratio"], fmt.Sprintf("%.4f", pooled.Extra["opens/op"]), unpooled.Extra["opens/op"])
	}
	t.flush()

	// Idle reaping keeps the pool bounded.
	backend := memdrv.NewBackend([]string{"h1"})
	dm := driver.NewManager()
	_ = dm.RegisterDriver(memdrv.New("jdbc-mem", "mem", backend))
	now := time.Unix(0, 0)
	cm := pool.New(dm, pool.Options{MaxIdleTime: time.Minute, Clock: func() time.Time { return now }})
	for i := 0; i < 4; i++ {
		conn, err := cm.Get(fmt.Sprintf("gridrm:mem://agent%d:1", i), nil)
		if err != nil {
			return err
		}
		conn.Release()
	}
	now = now.Add(2 * time.Minute)
	reaped := cm.Reap()
	fmt.Fprintf(r.w, "\nidle reaping: %d idle connections evicted after MaxIdleTime (pool now %d)\n",
		reaped, cm.Stats().Idle)
	return nil
}
