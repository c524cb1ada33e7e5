// Package gridrm_test is the go test front-end of the paper experiments
// (BenchmarkExperiments runs internal/bench's cases, the same ones
// cmd/gridrm-bench prints as tables) plus the microbenchmarks no
// `go run ./benchmark` per-layer metric reports: the agent codecs and
// simulator no workload reaches, the subscriber-count sweep, and the A/Bs a
// CI step or a doc claim rests on. EXPERIMENTS.md maps every benchmark that
// used to live here to the metric that replaced it. Run with
//
//	go test -run=NONE -bench=. -benchmem .
package gridrm_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/agents/netlogger"
	"gridrm/internal/agents/sim"
	"gridrm/internal/agents/snmp"
	"gridrm/internal/bench"
	"gridrm/internal/core"
	"gridrm/internal/drivers/memdrv"
	"gridrm/internal/router"
	"gridrm/internal/security"
	"gridrm/internal/trace"
)

var benchPrincipal = security.Principal{Name: "bench", Roles: []string{"operator"}}

// BenchmarkExperiments runs every measured case of E1–E9 as
// Experiments/<id>/<case>, over the full parameter sweep; E10, a correctness
// table with no measured loop, runs its checks and skips. A contract
// violation (E9, E10) fails the benchmark.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range bench.IDs() {
		b.Run(id, func(b *testing.B) {
			if err := bench.Bench(b, id); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --------------------------------------------------- micro-benchmarks

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
