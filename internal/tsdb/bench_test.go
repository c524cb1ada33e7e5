package tsdb

import (
	"testing"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/history"
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
