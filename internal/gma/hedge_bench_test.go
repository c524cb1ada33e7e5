package gma

import (
	"context"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/core"
)

// stragglerExec simulates a remote gateway with a heavy latency tail: most
// calls answer fast, but every tailEvery-th call straggles — the regime
// where hedging pays (Dean/Barroso tail tolerance).
func stragglerExec(fast, slow time.Duration, tailEvery int64) ExecContext {
	var n atomic.Int64
	return func(ctx context.Context, _ string, req core.QueryOptions) (*core.Response, error) {
		d := fast
		if n.Add(1)%tailEvery == 0 {
			d = slow
		}
		select {
		case <-time.After(d):
			return &core.Response{Site: req.Site}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func benchRouterTail(b *testing.B, hedgeAfter time.Duration) {
	dir := NewDirectory(0, nil)
	_ = dir.RegisterContext(context.Background(), Registration{Name: "B", Endpoint: "http://b"})
	exec := stragglerExec(time.Millisecond, 30*time.Millisecond, 10)
	r := NewRouter(dir, exec, "A", Config{
		LookupTTL:  time.Hour,
		HedgeAfter: hedgeAfter,
	})
	req := core.QueryOptions{Site: "B", SQL: "SELECT * FROM Processor"}

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := r.RemoteQueryContext(context.Background(), "B", req); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p := func(q float64) time.Duration { return lat[int(float64(len(lat)-1)*q)] }
	b.ReportMetric(float64(p(0.50))/1e6, "p50-ms")
	b.ReportMetric(float64(p(0.99))/1e6, "p99-ms")
	if h := r.Stats().Hedges; h > 0 {
		b.ReportMetric(float64(h), "hedges")
	}
}

// BenchmarkRemoteQueryUnhedged vs BenchmarkRemoteQueryHedged demonstrate
// the tail cut: with a 10% straggler rate, the unhedged p99 sits at the
// slow-path latency while the hedged p99 collapses toward fast+hedge delay.
func BenchmarkRemoteQueryUnhedged(b *testing.B) { benchRouterTail(b, 0) }

func BenchmarkRemoteQueryHedged(b *testing.B) { benchRouterTail(b, 3*time.Millisecond) }
