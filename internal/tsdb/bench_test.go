package tsdb

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/history"
	"gridrm/internal/resultset"
)

// BenchmarkWALAppend measures the full Record path — in-memory store plus
// encode plus framed WAL write — under each fsync policy.
func BenchmarkWALAppend(b *testing.B) {
	for _, policy := range []string{FsyncOff, FsyncInterval, FsyncAlways} {
		b.Run(policy, func(b *testing.B) {
			opts := testOpts(b.TempDir(), nil)
			opts.Fsync = policy
			mem := history.New(history.Options{})
			s := Open(opts, mem)
			defer s.Close()
			rs := memRS(b, "bench-host", 4096)
			t0 := time.Unix(90000, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Record(testSrc, glue.GroupMemory, rs, t0.Add(time.Duration(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fill journals n two-row Processor samples over four sources through s.
func fill(tb testing.TB, s *Store, n int) {
	tb.Helper()
	meta, err := resultset.MetadataForGroup(glue.Processor, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		b := resultset.NewBuilder(meta)
		for _, h := range []string{"h-a", "h-b"} {
			b.Append(h, "Xeon", "Intel", int64(2700), int64(20480), int64(16), float64(i), 0.9, 0.8, nil)
		}
		rs, err := b.Build()
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.Record(fmt.Sprint(testSrc, i%4), glue.GroupProcessor, rs, time.Unix(90000, int64(i))); err != nil {
			tb.Fatal(err)
		}
	}
}

// restoreDir fills a fresh directory with n samples and crashes; with
// checkpointed set it checkpoints first, so the samples are read back from
// the checkpoint instead of the WAL.
func restoreDir(tb testing.TB, n int, checkpointed bool) string {
	tb.Helper()
	dir := tb.TempDir()
	opts := testOpts(dir, nil)
	opts.Fsync = FsyncOff
	s := Open(opts, newMem())
	fill(tb, s, n)
	if checkpointed {
		if err := s.Checkpoint(); err != nil {
			tb.Fatal(err)
		}
	}
	s.CrashClose()
	return dir
}

// restore reads dir into a fresh in-memory store, as Open does, without
// attaching to it: the directory is left as it was.
func restore(tb testing.TB, dir string, want int) {
	s := &Store{mem: newMem(), opts: testOpts(dir, nil).withDefaults()}
	if err := s.restoreLocked(); err != nil || s.replayed != int64(want) || s.corrupt != 0 {
		tb.Fatalf("restore: %d replayed, %d corrupt, err %v; want %d", s.replayed, s.corrupt, err, want)
	}
}

// BenchmarkRestore measures what a restart reads back: ns and allocations
// per two-row record, from the WAL and from a checkpoint.
func BenchmarkRestore(b *testing.B) {
	const records = 2000
	for _, from := range []string{"wal", "checkpoint"} {
		b.Run(from, func(b *testing.B) {
			dir := restoreDir(b, records, from == "checkpoint")
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				restore(b, dir, records)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			per := float64(b.N * records)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/record")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/record")
		})
	}
}

// BenchmarkCheckpoint measures writing one checkpoint of 2000 retained
// two-row samples from a frozen view, fsync and rename included.
func BenchmarkCheckpoint(b *testing.B) {
	dir := b.TempDir()
	opts := testOpts(dir, nil)
	opts.Fsync = FsyncOff
	s := Open(opts, newMem())
	defer s.CrashClose()
	fill(b, s, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeCheckpoint(dir, uint64(i+1), 1, s.mem.View()); err != nil {
			b.Fatal(err)
		}
	}
}
