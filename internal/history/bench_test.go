package history

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

var benchSink *resultset.ResultSet

func processorRS(b *testing.B, host string, load float64) *resultset.ResultSet {
	b.Helper()
	meta, err := resultset.MetadataForGroup(glue.Processor, nil)
	if err != nil {
		b.Fatal(err)
	}
	bld := resultset.NewBuilder(meta)
	for h := 0; h < 2; h++ { // two hosts per source, every field populated: what a harvest returns
		bld.Append(fmt.Sprintf("%s-%d", host, h), "Xeon E5-2680", "GenuineIntel",
			int64(2700), int64(20480), int64(16), load, load*0.9, load*0.8, 37.5)
	}
	rs, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// BenchmarkRetentionSweep is ROADMAP item 3's ruler: a one-source 50-sample
// range read and Latest at 1k, 100k and 1M retained samples spread over 400
// (source, Processor) keys, with the resident bytes per sample of each size
// as B/sample. A range read should cost the same at every size; B/sample is
// what bounds how much history a gateway can afford to keep.
func BenchmarkRetentionSweep(b *testing.B) {
	const keys = 400
	now := time.Unix(2_000_000, 0)
	for _, total := range []int{1_000, 100_000, 1_000_000} {
		perKey := (total + keys - 1) / keys
		var shapes [5]*resultset.ResultSet
		for v := range shapes {
			shapes[v] = processorRS(b, "node", 0.5+0.1*float64(v))
		}
		before := liveHeap()
		s := New(Options{MaxAge: 30 * 24 * time.Hour, MaxSamplesPerKey: perKey,
			Clock: func() time.Time { return now }})
		src := func(k int) string { return fmt.Sprintf("gridrm:snmp://node%03d:161", k) }
		for k := 0; k < keys; k++ {
			for i := perKey; i >= 1; i-- {
				if err := s.Record(src(k), glue.GroupProcessor, shapes[i%5], now.Add(-time.Duration(i)*time.Second)); err != nil {
					b.Fatal(err)
				}
			}
		}
		perSample := float64(liveHeap()-before) / float64(s.TotalSamples())
		since, until := now.Add(-50*time.Second), now.Add(-time.Second) // the newest 50 samples, or all a short series has
		b.Run(fmt.Sprintf("samples=%d/Query", total), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, err := s.Query(glue.GroupProcessor, src(i%keys), since, until)
				if err != nil || rs.Len() == 0 {
					b.Fatalf("rows %v, err %v", rs, err)
				}
				benchSink = rs
			}
			b.ReportMetric(perSample, "B/sample")
		})
		b.Run(fmt.Sprintf("samples=%d/Latest", total), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, _, ok := s.Latest(src(i%keys), glue.GroupProcessor)
				if !ok {
					b.Fatal("no latest sample")
				}
				benchSink = rs
			}
			b.ReportMetric(perSample, "B/sample")
		})
		runtime.KeepAlive(s)
	}
}

// BenchmarkRecordAtCap is Record in the steady state of a long-running
// gateway: the key is at MaxSamplesPerKey, so every write also retires the
// oldest sample. The row-wise store reallocated and copied the whole key
// here; the series skips the dead sample, seals a chunk once per
// chunkSamples writes and drops whole chunks, so allocs/op must read 0.
func BenchmarkRecordAtCap(b *testing.B) {
	now := time.Unix(2_000_000, 0)
	s := New(Options{MaxAge: 30 * 24 * time.Hour, Clock: func() time.Time { return now }})
	rs := processorRS(b, "node", 0.5)
	at := now.Add(-24 * time.Hour)
	for i := 0; i < 2048; i++ { // to the default cap and once around
		at = at.Add(time.Second)
		if err := s.Record(srcA, glue.GroupProcessor, rs, at); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = at.Add(time.Millisecond)
		if err := s.Record(srcA, glue.GroupProcessor, rs, at); err != nil {
			b.Fatal(err)
		}
	}
}
