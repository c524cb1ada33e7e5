package tsdb

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// processorRS is one small Processor sample: a single row.
func processorRS(t testing.TB) *resultset.ResultSet {
	t.Helper()
	meta, err := resultset.MetadataForGroup(glue.Processor, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := resultset.NewBuilder(meta).
		Append("h-a", "Xeon", "Intel", int64(2700), int64(20480), int64(16), 0.5, 0.9, 0.8, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// intervalOpts are testOpts under FsyncInterval on the real clock.
func intervalOpts(dir string, sink *alertSink) Options {
	opts := testOpts(dir, sink)
	opts.Fsync, opts.Clock = FsyncInterval, time.Now
	return opts
}

// liveSegment reads the newest WAL segment of dir.
func liveSegment(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	data, err := os.ReadFile(segs[len(segs)-1].path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestIntervalFlushesAQuietTail: the last record before a quiet spell is
// written and fsynced within fsyncEvery by the flush loop alone, with no
// later append, rotation or Close to carry it to the disk.
func TestIntervalFlushesAQuietTail(t *testing.T) {
	dir := t.TempDir()
	s := Open(intervalOpts(dir, nil), newMem())
	defer s.Close()
	record(t, s, "quiet", time.Unix(90000, 0))
	deadline := time.Now().Add(20 * fsyncEvery)
	for s.Stats().Fsyncs < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no fsync %v after the only record: %+v", 20*fsyncEvery, s.Stats())
		}
		time.Sleep(fsyncEvery / 4)
	}
	st := s.Stats()
	if st.WALAppends != 1 || st.WALWrites != 1 {
		t.Errorf("after the flush: %+v, want 1 append in 1 write", st)
	}
	data := liveSegment(t, dir)
	payload, ok := frameAt(data, segHeaderSize, true)
	if !ok || segHeaderSize+frameHeaderSize+len(payload) != len(data) {
		t.Fatalf("segment of %d bytes does not hold the one record whole", len(data))
	}
	var dec decoder
	if rec, err := dec.sample(payload); err != nil || rec.refused != nil || rec.rs.Len() != 1 {
		t.Fatalf("the flushed frame decodes to %+v, %v", rec, err)
	}
}

// TestIntervalWALWritesPerFlush is the group commit's budget: 10,000 small
// Processor samples under FsyncInterval reach the file in at most one write
// per groupBytes of frames plus one per fsyncEvery deadline the run lasted
// plus the seal at Close, where they took one write each before; under
// FsyncAlways and FsyncOff each append is still one write.
func TestIntervalWALWritesPerFlush(t *testing.T) {
	const samples = 10000
	rs := processorRS(t)
	t0 := time.Unix(90000, 0)
	for _, policy := range []string{FsyncInterval, FsyncAlways, FsyncOff} {
		t.Run(policy, func(t *testing.T) {
			opts := testOpts(t.TempDir(), nil)
			opts.Fsync = policy
			opts.SegmentMaxBytes = 1 << 30 // one segment: no seal mid-run
			s := Open(opts, newMem())
			start := time.Now()
			for i := 0; i < samples; i++ {
				if err := s.Record(testSrc, glue.GroupProcessor, rs, t0.Add(time.Duration(i)*time.Millisecond)); err != nil {
					t.Fatal(err)
				}
			}
			deadlines := int64(time.Since(start)/fsyncEvery) + 1
			framed := s.Stats().WALBytesSinceCheckpoint
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.WALAppends != samples {
				t.Fatalf("%d appends, want %d", st.WALAppends, samples)
			}
			if policy != FsyncInterval {
				if st.WALWrites != samples {
					t.Errorf("%s: %d writes for %d appends, want one each", policy, st.WALWrites, samples)
				}
				return
			}
			budget := (framed+groupBytes-1)/groupBytes + deadlines + 1
			t.Logf("%d appends, %d framed bytes: %d writes, %d fsyncs (budget %d)",
				st.WALAppends, framed, st.WALWrites, st.Fsyncs, budget)
			if st.WALWrites > budget {
				t.Errorf("%d writes, want ≤ %d: ⌈%d / %d⌉ + %d deadlines + the seal",
					st.WALWrites, budget, framed, groupBytes, deadlines)
			}
		})
	}
}

// TestIntervalFlushFailureDegrades: a flush the loop makes on its own that
// the disk refuses degrades the store to memory-only, exactly as a refused
// append does; the records stay in memory.
func TestIntervalFlushFailureDegrades(t *testing.T) {
	sink := &alertSink{}
	opts := intervalOpts(t.TempDir(), sink)
	opts.ReattachBackoff = time.Hour // keep the re-attach loop quiet
	mem := newMem()
	s := Open(opts, mem)
	defer s.Close()
	s.mu.Lock()
	s.w.f.Close() // the next write fails, as a dead disk's would
	s.mu.Unlock()
	record(t, s, "unwritten", time.Unix(90000, 0))
	deadline := time.Now().Add(20 * fsyncEvery)
	for s.Stats().State != "memory-only" {
		if time.Now().After(deadline) {
			t.Fatalf("the failed flush never degraded the store: %+v", s.Stats())
		}
		time.Sleep(fsyncEvery / 4)
	}
	if st := s.Stats(); st.WALErrors != 1 {
		t.Errorf("after the failed flush: %+v, want 1 WAL error", st)
	}
	if !sink.alertContaining("WAL flush failed") {
		t.Errorf("alerts = %q", sink.alerts)
	}
	if n := mem.SampleCount(testSrc, glue.GroupMemory); n != 1 {
		t.Errorf("memory holds %d samples, want the 1 recorded", n)
	}
}

// TestIntervalCrashKeepsAPrefix: writers, checkpoints, segment rotations and
// the flush loop race under FsyncInterval, and a crash drops the group not
// yet written. Whatever each source restores is the start of what it
// recorded, whole and in order: a lost group is a tail, never a hole.
func TestIntervalCrashKeepsAPrefix(t *testing.T) {
	dir := t.TempDir()
	opts := intervalOpts(dir, nil)
	opts.SegmentMaxBytes = 8 << 10
	s := Open(opts, newMem())
	const writers, each = 3, 300
	t0 := time.Unix(90000, 0)
	rs := memRS(t, "host", 1024)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := fmt.Sprintf("%s%d", testSrc, w)
			for i := 0; i < each; i++ {
				if i%100 == 99 {
					time.Sleep(fsyncEvery + fsyncEvery/2) // a quiet spell: the loop flushes
				}
				if err := s.Record(src, glue.GroupMemory, rs, t0.Add(time.Duration(i)*time.Millisecond)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	checkpointed := make(chan struct{})
	go func() {
		defer close(checkpointed)
		for {
			select {
			case <-stop:
				return
			case <-time.After(fsyncEvery / 3):
			}
			if err := s.Checkpoint(); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-checkpointed
	if st := s.Stats(); st.Fsyncs == 0 || st.WALWrites >= st.WALAppends {
		t.Errorf("before the crash: %+v, want grouped writes", st)
	}
	s.CrashClose()

	mem := newMem()
	s2 := Open(testOpts(dir, nil), mem)
	defer s2.Close()
	if st := s2.Stats(); st.CorruptRecords != 0 {
		t.Errorf("after restart: %+v", st)
	}
	for w := 0; w < writers; w++ {
		src := fmt.Sprintf("%s%d", testSrc, w)
		n := mem.SampleCount(src, glue.GroupMemory)
		if n == 0 {
			continue
		}
		_, at, ok := mem.Latest(src, glue.GroupMemory)
		if want := t0.Add(time.Duration(n-1) * time.Millisecond); !ok || !at.Equal(want) || n > each {
			t.Errorf("writer %d: restored %d samples, the latest at %v; want the first %d, the latest at %v",
				w, n, at, n, want)
		}
	}
}
