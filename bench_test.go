// Package gridrm_test holds the testing.B counterparts of the experiment
// harness (cmd/gridrm-bench): one benchmark family per experiment in
// DESIGN.md's index, plus micro-benchmarks for the hot primitives. Run with
//
//	go test -bench=. -benchmem
package gridrm_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/agents/netlogger"
	"gridrm/internal/agents/sim"
	"gridrm/internal/agents/snmp"
	"gridrm/internal/breaker"
	"gridrm/internal/core"
	"gridrm/internal/driver"
	"gridrm/internal/drivers/memdrv"
	"gridrm/internal/event"
	"gridrm/internal/glue"
	"gridrm/internal/gma"
	"gridrm/internal/pool"
	"gridrm/internal/qcache"
	"gridrm/internal/resultset"
	"gridrm/internal/router"
	"gridrm/internal/security"
	"gridrm/internal/sitekit"
	"gridrm/internal/sqlparse"
	"gridrm/internal/trace"
	"gridrm/internal/web"
)

var benchPrincipal = security.Principal{Name: "bench", Roles: []string{"operator"}}

// ---------------------------------------------------------------- E1: Fig 3

// fullStack builds a sitekit site + gateway once per benchmark.
func fullStack(b *testing.B) (*sitekit.Site, *core.Gateway) {
	b.Helper()
	site, err := sitekit.Start(sitekit.Options{Name: "bench", Hosts: 4, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(site.Close)
	gw, err := sitekit.NewGateway(site.Manifest(), site.Opts, false)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(gw.Close)
	return site, gw
}

func BenchmarkE1QueryPath(b *testing.B) {
	_, gw := fullStack(b)
	var byDriver = map[string]string{}
	for _, src := range gw.Sources() {
		if len(src.Drivers) == 1 {
			if _, ok := byDriver[src.Drivers[0]]; !ok {
				byDriver[src.Drivers[0]] = src.URL
			}
		}
	}
	for _, drv := range []string{"jdbc-snmp", "jdbc-ganglia", "jdbc-nws", "jdbc-netlogger", "jdbc-scms"} {
		url := byDriver[drv]
		for _, mode := range []core.Mode{core.ModeRealTime, core.ModeCached} {
			b.Run(fmt.Sprintf("%s/%s", drv, mode), func(b *testing.B) {
				req := core.QueryOptions{Principal: benchPrincipal,
					SQL: "SELECT * FROM Processor", Sources: []string{url}, Mode: mode}
				if _, err := gw.QueryContext(context.Background(), req); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := gw.QueryContext(context.Background(), req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --------------------------------------------------------- E2: Fig 5/Table 2

func e2Manager(n int) (*driver.Manager, string) {
	dm := driver.NewManager()
	backend := memdrv.NewBackend([]string{"h1"})
	for i := 0; i < n-1; i++ {
		_ = dm.RegisterDriver(memdrv.New(fmt.Sprintf("jdbc-f%02d", i), fmt.Sprintf("f%02d", i), backend))
	}
	_ = dm.RegisterDriver(memdrv.New("jdbc-target", "target", backend))
	return dm, "gridrm:target://agent:1"
}

func BenchmarkE2DriverSelection(b *testing.B) {
	for _, n := range []int{4, 64} {
		b.Run(fmt.Sprintf("dynamic-scan-%d", n), func(b *testing.B) {
			dm, url := e2Manager(n)
			for i := 0; i < b.N; i++ {
				dm.ClearCache()
				conn, err := dm.Connect(url, nil)
				if err != nil {
					b.Fatal(err)
				}
				_ = conn.Close()
			}
		})
	}
	b.Run("last-good-cache", func(b *testing.B) {
		dm, url := e2Manager(64)
		for i := 0; i < b.N; i++ {
			conn, err := dm.Connect(url, nil)
			if err != nil {
				b.Fatal(err)
			}
			_ = conn.Close()
		}
	})
	b.Run("static-preference", func(b *testing.B) {
		dm, url := e2Manager(64)
		dm.SetPreferences(url, []string{"jdbc-target"})
		dm.SetCaching(false)
		for i := 0; i < b.N; i++ {
			conn, err := dm.Connect(url, nil)
			if err != nil {
				b.Fatal(err)
			}
			_ = conn.Close()
		}
	})
}

// ------------------------------------------------------------- E3: §3.1.2

func BenchmarkE3Pooling(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		name := "pooled"
		if disabled {
			name = "unpooled"
		}
		b.Run(name, func(b *testing.B) {
			backend := memdrv.NewBackend([]string{"h1"})
			backend.SetConnectDelay(100 * time.Microsecond)
			dm := driver.NewManager()
			_ = dm.RegisterDriver(memdrv.New("jdbc-mem", "mem", backend))
			cm := pool.New(dm, pool.Options{Disabled: disabled})
			for i := 0; i < b.N; i++ {
				conn, err := cm.Get("gridrm:mem://a:1", nil)
				if err != nil {
					b.Fatal(err)
				}
				stmt, _ := conn.CreateStatement()
				if _, err := stmt.ExecuteQuery("SELECT * FROM Processor"); err != nil {
					b.Fatal(err)
				}
				conn.Release()
			}
		})
	}
}

// ------------------------------------------------------------- E4: §3.2.3

func BenchmarkE4DriverGranularity(b *testing.B) {
	site, gw := fullStack(b)
	_ = site
	run := func(b *testing.B, url, sql string, mode core.Mode) {
		req := core.QueryOptions{Principal: benchPrincipal, SQL: sql,
			Sources: []string{url}, Mode: mode}
		if _, err := gw.QueryContext(context.Background(), req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gw.QueryContext(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	}
	var snmpURL, gangliaURL string
	for _, src := range gw.Sources() {
		if len(src.Drivers) != 1 {
			continue
		}
		switch src.Drivers[0] {
		case "jdbc-snmp":
			if snmpURL == "" {
				snmpURL = src.URL
			}
		case "jdbc-ganglia":
			gangliaURL = src.URL
		}
	}
	b.Run("snmp-scalar-group", func(b *testing.B) {
		run(b, snmpURL, "SELECT * FROM Processor", core.ModeRealTime)
	})
	b.Run("snmp-table-walk", func(b *testing.B) {
		run(b, snmpURL, "SELECT * FROM Process", core.ModeRealTime)
	})
	b.Run("ganglia-xml-dump", func(b *testing.B) {
		run(b, gangliaURL, "SELECT * FROM Processor", core.ModeRealTime)
	})
}

// --------------------------------------------------------------- E5: Fig 4

func BenchmarkE5Events(b *testing.B) {
	b.Run("publish-dispatch", func(b *testing.B) {
		m := event.NewManager(event.Options{})
		defer m.Close()
		var n atomic.Int64
		m.Subscribe(event.Filter{}, func(event.Event) { n.Add(1) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Publish(event.Event{Name: "x", Time: time.Unix(int64(i), 0)})
		}
		m.Drain()
	})
	for _, fanout := range []int{4, 32} {
		b.Run(fmt.Sprintf("fanout-%d", fanout), func(b *testing.B) {
			m := event.NewManager(event.Options{})
			defer m.Close()
			var n atomic.Int64
			for i := 0; i < fanout; i++ {
				m.Subscribe(event.Filter{}, func(event.Event) { n.Add(1) })
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Publish(event.Event{Name: "x", Time: time.Unix(int64(i), 0)})
			}
			m.Drain()
		})
	}
	b.Run("threshold-rule", func(b *testing.B) {
		m := event.NewManager(event.Options{})
		defer m.Close()
		_ = m.AddRule(event.ThresholdRule{Name: "alarm",
			Match: event.Filter{Name: "load"}, Op: event.Above, Threshold: 1e12})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Publish(event.Event{Name: "load", Value: 1, Time: time.Unix(int64(i), 0)})
		}
		m.Drain()
	})
}

// ------------------------------------------------------------ E6: §4/Fig 9

func BenchmarkE6CacheScaling(b *testing.B) {
	build := func() (*core.Gateway, *memdrv.Backend) {
		backend := memdrv.NewBackend([]string{"h1", "h2", "h3", "h4"})
		backend.SetQueryDelay(100 * time.Microsecond)
		gw := core.New(core.Config{Name: "e6", Cache: qcache.Options{TTL: time.Hour},
			Pool: pool.Options{MaxIdlePerSource: 64}})
		d := memdrv.New("jdbc-mem", "mem", backend)
		_ = gw.RegisterDriver(d, d.Schema())
		_ = gw.AddSource(core.SourceConfig{URL: "gridrm:mem://a:1"})
		return gw, backend
	}
	for _, mode := range []core.Mode{core.ModeRealTime, core.ModeCached} {
		b.Run(mode.String(), func(b *testing.B) {
			gw, _ := build()
			defer gw.Close()
			req := core.QueryOptions{Principal: benchPrincipal,
				SQL: "SELECT * FROM Processor", Mode: mode}
			if _, err := gw.QueryContext(context.Background(), req); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := gw.QueryContext(context.Background(), req); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// --------------------------------------------------------------- E7: Fig 1

func BenchmarkE7GlobalLayer(b *testing.B) {
	dir := gma.NewDirectory(0, nil)
	mk := func(name string) (*core.Gateway, *httptest.Server) {
		gw := core.New(core.Config{Name: name})
		backend := memdrv.NewBackend([]string{name + "-n1"})
		d := memdrv.New("jdbc-mem", "mem", backend)
		_ = gw.RegisterDriver(d, d.Schema())
		_ = gw.AddSource(core.SourceConfig{URL: "gridrm:mem://" + name + ":1"})
		srv := httptest.NewServer(web.NewServer(gw, nil, nil))
		_ = dir.RegisterContext(context.Background(), gma.Registration{Name: name, Endpoint: srv.URL})
		// Bare router (no lookup cache, no breaker): every remote query
		// pays the directory lookup, which is what E7 measures.
		gw.SetGlobalRouter(gma.NewRouter(dir, web.RemoteQueryContext, name,
			gma.Config{LookupTTL: -1, Breaker: breaker.Options{Threshold: -1}}))
		return gw, srv
	}
	gwA, srvA := mk("siteA")
	defer gwA.Close()
	defer srvA.Close()
	gwB, srvB := mk("siteB")
	defer gwB.Close()
	defer srvB.Close()
	client := &web.Client{BaseURL: srvA.URL, Principal: benchPrincipal}

	b.Run("local-http", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := client.Query(context.Background(), core.QueryOptions{SQL: "SELECT * FROM Processor",
				Mode: core.ModeRealTime}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("remote-1hop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := client.Query(context.Background(), core.QueryOptions{SQL: "SELECT * FROM Processor",
				Site: "siteB", Mode: core.ModeRealTime}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("directory-lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, _ := dir.LookupContext(context.Background(), "siteB"); !ok {
				b.Fatal("lost site")
			}
		}
	})
}

// ------------------------------------------------------------------ E8: §2

func BenchmarkE8Security(b *testing.B) {
	alice := security.Principal{Name: "alice", Roles: []string{"operator"}}
	nobody := security.Principal{Name: "zz"}
	mkCoarse := func(rules int) *security.CoarsePolicy {
		p := security.NewCoarsePolicy(security.Deny)
		p.Add(security.CoarseRule{Principal: "alice", Decision: security.Allow})
		for i := 1; i < rules; i++ {
			p.Add(security.CoarseRule{Principal: fmt.Sprintf("user%05d", i), Decision: security.Allow})
		}
		return p
	}
	b.Run("coarse-allow-first-rule", func(b *testing.B) {
		p := mkCoarse(10000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Check(alice, security.OpQueryRealTime)
		}
	})
	b.Run("coarse-deny-scan-10k", func(b *testing.B) {
		p := mkCoarse(10000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Check(nobody, security.OpQueryRealTime)
		}
	})
	b.Run("fine-pattern-match", func(b *testing.B) {
		p := security.NewFinePolicy(security.Deny)
		p.Add(security.FineRule{Principal: "alice", Source: "gridrm:snmp://%", Decision: security.Allow})
		for i := 0; i < b.N; i++ {
			p.Check(alice, "gridrm:snmp://h:1", glue.GroupProcessor)
		}
	})
}

// -------------------------------------------------------------- E9: §3.2.1

func BenchmarkE9BasePattern(b *testing.B) {
	b.Run("unimplemented-error-path", func(b *testing.B) {
		var s driver.Stmt = driver.UnimplementedStmt{}
		for i := 0; i < b.N; i++ {
			if _, err := s.ExecuteQuery("q"); err == nil {
				b.Fatal("expected error")
			}
		}
	})
}

// --------------------------------------------------- micro-benchmarks

func BenchmarkSQLParse(b *testing.B) {
	const q = "SELECT HostName, LoadLast1Min FROM Processor WHERE LoadLast1Min > 2.5 AND HostName LIKE 'node%' ORDER BY LoadLast1Min DESC LIMIT 10"
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyToResultSet(b *testing.B) {
	g := glue.MustLookup(glue.GroupProcessor)
	meta, _ := resultset.MetadataForGroup(g, nil)
	rb := resultset.NewBuilder(meta)
	for i := 0; i < 64; i++ {
		row := make([]any, len(g.Fields))
		row[g.FieldIndex("HostName")] = fmt.Sprintf("node%02d", i)
		row[g.FieldIndex("LoadLast1Min")] = float64(i % 8)
		rb.Append(row...)
	}
	rs, err := rb.Build()
	if err != nil {
		b.Fatal(err)
	}
	q, _ := sqlparse.Parse("SELECT HostName FROM Processor WHERE LoadLast1Min > 3 ORDER BY HostName LIMIT 5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.ApplyToResultSet(q, rs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSNMPMessageRoundTrip(b *testing.B) {
	m := &snmp.Message{Community: "public", PDUType: snmp.PDUGet, RequestID: 7,
		Varbinds: []snmp.Varbind{
			{OID: snmp.MustOID("1.3.6.1.2.1.1.5.0"), Value: snmp.StringValue("node01")},
			{OID: snmp.MustOID("1.3.6.1.2.1.25.2.2.0"), Value: snmp.IntValue(1048576)},
		}}
	for i := 0; i < b.N; i++ {
		buf, err := m.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := snmp.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildMIB(b *testing.B) {
	site := sim.New(sim.Config{Hosts: 1, Seed: 1})
	site.StepN(3)
	snap, _ := site.Snapshot(site.HostNames()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snmp.BuildMIB(snap)
	}
}

func BenchmarkULMParse(b *testing.B) {
	line := netlogger.Record{Date: time.Unix(1054468800, 0).UTC(), Host: "node01",
		Prog: "sensor", Level: "Usage", Event: "load.one", Value: 1.25}.Format()
	for i := 0; i < b.N; i++ {
		if _, err := netlogger.ParseRecord(line); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimStep(b *testing.B) {
	site := sim.New(sim.Config{Hosts: 32, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		site.Step()
	}
}

func BenchmarkQueryCache(b *testing.B) {
	c := qcache.New(qcache.Options{TTL: time.Hour})
	meta, _ := resultset.NewMetadata([]resultset.Column{{Name: "X", Kind: glue.Int}})
	rs, _ := resultset.NewBuilder(meta).Append(int64(1)).Build()
	c.Put("gridrm:mem://a:1", "SELECT * FROM Processor", rs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := c.Get("gridrm:mem://a:1", "SELECT * FROM Processor"); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkSubscriberFanout measures the push router's Publish cost as one
// harvest's rows fan out to 1, 64, and 1024 live subscribers — the
// continuous-query hot path. Publish must never block, so the interesting
// number is how its per-row cost grows with the subscriber count while every
// consumer is actively draining.
func BenchmarkSubscriberFanout(b *testing.B) {
	for _, n := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("subs-%d", n), func(b *testing.B) {
			r := router.New(router.Options{QueueSize: 256, ReplaySize: -1, Stall: -1})
			var drained atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				sub, err := r.Subscribe(router.SubscribeOptions{Name: fmt.Sprintf("s%d", i)})
				if err != nil {
					b.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-sub.Done():
							return
						case <-sub.C():
							drained.Add(1)
						}
					}
				}()
			}
			cols := []string{"HostName", "LoadLast1Min"}
			rows := [][]any{{"h1", 0.5}, {"h2", 0.7}, {"h3", 0.9}, {"h4", 1.1}}
			at := time.Unix(1054468800, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Publish("gridrm:mem://bench:1", "Processor", cols, rows, at)
			}
			b.StopTimer()
			if err := r.Close(context.Background()); err != nil {
				b.Fatal(err)
			}
			wg.Wait()
		})
	}
}

// tracingGateway is the one-source real-time query both tracing measurements
// run: a memdrv source of four hosts, sampling off (negative) or full.
func tracingGateway(tb testing.TB, sample float64) (*core.Gateway, core.QueryOptions) {
	tb.Helper()
	gw := core.New(core.Config{Name: "bench", Trace: trace.Options{Sample: sample}})
	tb.Cleanup(gw.Close)
	backend := memdrv.NewBackend([]string{"h1", "h2", "h3", "h4"})
	d := memdrv.New("jdbc-mem", "mem", backend)
	if err := gw.RegisterDriver(d, d.Schema()); err != nil {
		tb.Fatal(err)
	}
	if err := gw.AddSource(core.SourceConfig{URL: "gridrm:mem://bench:1"}); err != nil {
		tb.Fatal(err)
	}
	req := core.QueryOptions{Principal: benchPrincipal,
		SQL: "SELECT * FROM Processor", Mode: core.ModeRealTime}
	if _, err := gw.QueryContext(context.Background(), req); err != nil {
		tb.Fatal(err)
	}
	return gw, req
}

// BenchmarkQueryTracing measures the overhead of full-sampling distributed
// tracing on the in-process query path: "untraced" disables sampling,
// "traced" records every query (seven spans). It prints; the bar — traced
// minus untraced within 8 allocs/op and 2 KB/op — is held by
// TestTracedQueryAllocBudget, in tier-1. Time is not asserted: the two
// differ by a few microseconds in ~25, less than this VM's clock spreads
// between runs of one binary (README, "Distributed query tracing", has the
// table).
func BenchmarkQueryTracing(b *testing.B) {
	for _, bc := range []struct {
		name   string
		sample float64
	}{
		{"untraced", -1}, // negative = sampling off
		{"traced", 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			gw, req := tracingGateway(b, bc.sample)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gw.QueryContext(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTracedQueryAllocBudget fails when a span starts allocating again:
// tracing the one-source real-time query of BenchmarkQueryTracing may cost
// at most 8 allocations and 2 KB over not tracing it (38 and 7.0 KB before
// spans became slots of one recorder; 5 and 1.7 KB after).
func TestTracedQueryAllocBudget(t *testing.T) {
	const queries = 2000
	measure := func(sample float64) (allocs, bytes float64) {
		gw, req := tracingGateway(t, sample)
		ctx := context.Background()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < queries; i++ {
			if _, err := gw.QueryContext(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / queries, float64(after.TotalAlloc-before.TotalAlloc) / queries
	}
	offAllocs, offBytes := measure(-1)
	onAllocs, onBytes := measure(1)
	t.Logf("untraced %.1f allocs %.0f B/op; traced %.1f allocs %.0f B/op", offAllocs, offBytes, onAllocs, onBytes)
	if d := onAllocs - offAllocs; d > 8 {
		t.Errorf("tracing a query costs %.1f allocs, budget 8", d)
	}
	if d := onBytes - offBytes; d > 2048 {
		t.Errorf("tracing a query costs %.0f B, budget 2048", d)
	}
}
