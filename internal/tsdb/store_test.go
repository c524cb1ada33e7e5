package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/history"
	"gridrm/internal/resultset"
)

const testSrc = "gridrm:snmp://node:1"

func memRS(t testing.TB, host string, ram int64) *resultset.ResultSet {
	t.Helper()
	g := glue.MustLookup(glue.GroupMemory)
	meta, err := resultset.MetadataForGroup(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := resultset.NewBuilder(meta).
		Append(host, ram, ram/2, ram*2, ram, 0.0, 0.0).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// foreignRow encodes one row of any shape as a sample of group: what a journal
// written under another schema holds.
func foreignRow(t testing.TB, group string, at time.Time, row []any) []byte {
	t.Helper()
	cols := make([]resultset.Column, len(row))
	for c, v := range row {
		cols[c] = resultset.Column{Name: fmt.Sprint("c", c), Kind: resultset.CellOf(v).Kind}
	}
	meta, err := resultset.NewMetadata(cols)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := resultset.NewBuilder(meta).Append(row...).Build()
	if err != nil {
		t.Fatal(err)
	}
	return encodeResult(nil, testSrc, group, at, len(row), rs)
}

// alertSink collects alerts and status lines for assertions.
type alertSink struct {
	mu     sync.Mutex
	alerts []string
	status []string
}

func (a *alertSink) alert(_, detail string) {
	a.mu.Lock()
	a.alerts = append(a.alerts, detail)
	a.mu.Unlock()
}

func (a *alertSink) state(_, detail string) {
	a.mu.Lock()
	a.status = append(a.status, detail)
	a.mu.Unlock()
}

func (a *alertSink) alertContaining(sub string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, s := range a.alerts {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// newMem builds an in-memory store whose retention clock is pinned near the
// test sample times — the default time.Now clock would age them out at once.
func newMem() *history.Store {
	return history.New(history.Options{
		MaxSamplesPerKey: 4096,
		Clock:            func() time.Time { return time.Unix(90000, 0) },
	})
}

func testOpts(dir string, sink *alertSink) Options {
	now := time.Unix(90000, 0)
	o := Options{
		Dir:                dir,
		Fsync:              FsyncAlways,
		CheckpointInterval: -1, // no background loop: tests drive Checkpoint
		Clock:              func() time.Time { return now },
	}
	if sink != nil {
		o.Alert = sink.alert
		o.Status = sink.state
	}
	return o
}

func record(t testing.TB, s *Store, host string, at time.Time) {
	t.Helper()
	if err := s.Record(testSrc, glue.GroupMemory, memRS(t, host, 1024), at); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mem := newMem()
	s := Open(testOpts(dir, nil), mem)
	t0 := time.Unix(90000, 0)
	for i := 0; i < 10; i++ {
		record(t, s, fmt.Sprintf("host%d", i), t0.Add(time.Duration(i)*time.Second))
	}
	if st := s.Stats(); st.WALAppends != 10 || st.State != "durable" {
		t.Fatalf("before crash: %+v", st)
	}
	s.CrashClose() // no final sync, no checkpoint

	mem2 := newMem()
	s2 := Open(testOpts(dir, nil), mem2)
	defer s2.Close()
	if st := s2.Stats(); st.ReplayedRecords != 10 || st.CorruptRecords != 0 {
		t.Fatalf("after restart: %+v", st)
	}
	if n := mem2.SampleCount(testSrc, glue.GroupMemory); n != 10 {
		t.Fatalf("restored samples = %d, want 10", n)
	}
	rs, at, ok := mem2.Latest(testSrc, glue.GroupMemory)
	if !ok || !at.Equal(t0.Add(9*time.Second)) {
		t.Fatalf("Latest ok=%v at=%v", ok, at)
	}
	rs.Next()
	if h, _ := rs.GetString("HostName"); h != "host9" {
		t.Errorf("latest host = %q", h)
	}
}

func TestCheckpointCoversWALAndGCs(t *testing.T) {
	dir := t.TempDir()
	mem := newMem()
	s := Open(testOpts(dir, nil), mem)
	t0 := time.Unix(90000, 0)
	for i := 0; i < 5; i++ {
		record(t, s, fmt.Sprintf("h%d", i), t0.Add(time.Duration(i)*time.Second))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d", st.Checkpoints)
	}
	// Everything the checkpoint covers is gone; only the live segment stays.
	if st.WALSegments != 1 {
		t.Fatalf("segments after checkpoint = %d, want 1 (live)", st.WALSegments)
	}
	s.CrashClose()

	mem2 := newMem()
	s2 := Open(testOpts(dir, nil), mem2)
	defer s2.Close()
	if st := s2.Stats(); st.ReplayedRecords != 5 || st.CorruptRecords != 0 {
		t.Fatalf("restore from checkpoint: %+v", st)
	}
	if n := mem2.SampleCount(testSrc, glue.GroupMemory); n != 5 {
		t.Fatalf("restored samples = %d", n)
	}
}

func TestCheckpointPlusWALTailRestoresBoth(t *testing.T) {
	dir := t.TempDir()
	mem := newMem()
	s := Open(testOpts(dir, nil), mem)
	t0 := time.Unix(90000, 0)
	record(t, s, "pre", t0)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	record(t, s, "post", t0.Add(time.Second)) // only in the WAL tail
	s.CrashClose()

	mem2 := newMem()
	s2 := Open(testOpts(dir, nil), mem2)
	defer s2.Close()
	if n := mem2.SampleCount(testSrc, glue.GroupMemory); n != 2 {
		t.Fatalf("restored samples = %d, want 2 (checkpoint + tail)", n)
	}
}

// TestCorruptCheckpointFallsBackToPrevious damages the newest checkpoint two
// ways: a flipped byte, which the check of the whole file catches before any
// of it is loaded, and a frame that checks out but does not decode, which
// fails it after the samples in front were loaded — harmlessly, the fallback
// holding them too.
func TestCorruptCheckpointFallsBackToPrevious(t *testing.T) {
	endFrame := len(ckptEndMarker) + frameHeaderSize
	for name, damage := range map[string]func(data []byte) []byte{
		"flipped byte": func(data []byte) []byte {
			data[len(data)/2] ^= 0xFF
			return data
		},
		"undecodable sample": func(data []byte) []byte {
			end := append([]byte(nil), data[len(data)-endFrame:]...)
			return append(appendFrame(data[:len(data)-endFrame], []byte{recordVersion, 0xFF}), end...)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			mem := newMem()
			s := Open(testOpts(dir, nil), mem)
			t0 := time.Unix(90000, 0)
			record(t, s, "first", t0)
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			record(t, s, "second", t0.Add(time.Second))
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			s.CrashClose()

			newest := filepath.Join(dir, checkpointName(2))
			data, err := os.ReadFile(newest)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(newest, damage(data), 0o644); err != nil {
				t.Fatal(err)
			}

			sink := &alertSink{}
			mem2 := newMem()
			s2 := Open(testOpts(dir, sink), mem2)
			defer s2.Close()
			st := s2.Stats()
			if st.CorruptRecords == 0 {
				t.Fatalf("corrupt checkpoint not counted: %+v", st)
			}
			if !sink.alertContaining("corrupt checkpoint") {
				t.Errorf("no corruption alert: %v", sink.alerts)
			}
			// Fallback restores the older checkpoint; "second" was journaled after
			// checkpoint 1, so the WAL tail still has it.
			if n := mem2.SampleCount(testSrc, glue.GroupMemory); n != 2 {
				t.Fatalf("restored samples = %d, want 2", n)
			}
			if _, err := os.Stat(newest); !os.IsNotExist(err) {
				t.Errorf("corrupt checkpoint not removed: %v", err)
			}
		})
	}
}

func TestTornWALTailTruncatedAndAlerted(t *testing.T) {
	dir := t.TempDir()
	mem := newMem()
	s := Open(testOpts(dir, nil), mem)
	t0 := time.Unix(90000, 0)
	record(t, s, "good1", t0)
	record(t, s, "good2", t0.Add(time.Second))
	s.CrashClose()

	// A torn write: half a frame of garbage at the live segment's tail.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	live := segs[len(segs)-1].path
	f, err := os.OpenFile(live, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x42, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sink := &alertSink{}
	mem2 := newMem()
	s2 := Open(testOpts(dir, sink), mem2)
	defer s2.Close()
	st := s2.Stats()
	if st.ReplayedRecords != 2 {
		t.Fatalf("replayed = %d, want 2", st.ReplayedRecords)
	}
	if st.CorruptRecords != 1 {
		t.Fatalf("corrupt = %d, want 1", st.CorruptRecords)
	}
	if !sink.alertContaining("torn or corrupt WAL tail") {
		t.Errorf("no torn-tail alert: %v", sink.alerts)
	}
}

func TestDiskFaultDegradesThenReattaches(t *testing.T) {
	dir := t.TempDir()
	sink := &alertSink{}
	opts := testOpts(dir, sink)
	opts.ReattachBackoff = 5 * time.Millisecond
	mem := newMem()
	s := Open(opts, mem)
	defer s.Close()
	t0 := time.Unix(90000, 0)
	record(t, s, "ok", t0)

	s.setFailWrites(fmt.Errorf("EIO: device error"))
	record(t, s, "lost", t0.Add(time.Second)) // in memory, detaches the WAL
	if st := s.Stats(); st.State != "memory-only" || st.WALErrors != 1 {
		t.Fatalf("after fault: %+v", st)
	}
	if !sink.alertContaining("degraded to memory-only") {
		t.Errorf("no degradation alert: %v", sink.alerts)
	}
	// The harvest path never saw the fault.
	if n := mem.SampleCount(testSrc, glue.GroupMemory); n != 2 {
		t.Fatalf("memory samples = %d", n)
	}

	s.setFailWrites(nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		// The re-attach checkpoint (which captures the memory-only window)
		// runs after the state flips, so "re-attached, checkpoint still in
		// flight" is a legitimate intermediate Stats view: wait for both.
		if st := s.Stats(); st.State == "durable" && st.Reattaches == 1 && st.Checkpoints > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never re-attached and checkpointed: %+v", s.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestDiskBudgetDropsOldestSegments(t *testing.T) {
	dir := t.TempDir()
	sink := &alertSink{}
	opts := testOpts(dir, sink)
	opts.SegmentMaxBytes = 256 // rotate every few records
	opts.MaxDiskBytes = 1024
	mem := newMem()
	s := Open(opts, mem)
	defer s.Close()
	t0 := time.Unix(90000, 0)
	for i := 0; i < 200; i++ {
		record(t, s, fmt.Sprintf("host%03d", i), t0.Add(time.Duration(i)*time.Second))
	}
	st := s.Stats()
	if st.SegmentsDropped == 0 {
		t.Fatalf("budget never dropped a segment: %+v", st)
	}
	if st.DiskBytes > 2*opts.MaxDiskBytes {
		t.Errorf("disk bytes %d way over budget %d", st.DiskBytes, opts.MaxDiskBytes)
	}
	if !sink.alertContaining("disk budget dropped un-checkpointed WAL segment") {
		t.Errorf("no budget alert: %v", sink.alerts)
	}
}

func TestOpenOnUnusableDirIsMemoryOnly(t *testing.T) {
	// A regular file where the directory should be: MkdirAll fails.
	base := t.TempDir()
	blocked := filepath.Join(base, "blocked")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	sink := &alertSink{}
	opts := testOpts(filepath.Join(blocked, "history"), sink)
	opts.ReattachBackoff = time.Hour // keep the retry loop quiet
	mem := newMem()
	s := Open(opts, mem)
	defer s.Close()
	if st := s.Stats(); st.State != "memory-only" {
		t.Fatalf("state = %q", st.State)
	}
	if !sink.alertContaining("history dir unusable") {
		t.Errorf("no open alert: %v", sink.alerts)
	}
	// Records still land in memory — durability failure is never fatal.
	record(t, s, "h", time.Unix(90000, 0))
	if n := mem.SampleCount(testSrc, glue.GroupMemory); n != 1 {
		t.Fatalf("memory samples = %d", n)
	}
}

func TestCloseIsIdempotentAndFinalCheckpoints(t *testing.T) {
	dir := t.TempDir()
	mem := newMem()
	s := Open(testOpts(dir, nil), mem)
	record(t, s, "h", time.Unix(90000, 0))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // second close is a no-op
		t.Fatal(err)
	}
	if st := s.Stats(); st.State != "closed" || st.Checkpoints != 1 {
		t.Fatalf("after close: %+v", st)
	}
	// Record after close: memory still works, WAL untouched.
	record(t, s, "late", time.Unix(90001, 0))
	if st := s.Stats(); st.WALAppends != 1 {
		t.Fatalf("append after close: %+v", st)
	}

	mem2 := newMem()
	s2 := Open(testOpts(dir, nil), mem2)
	defer s2.Close()
	if n := mem2.SampleCount(testSrc, glue.GroupMemory); n != 1 {
		t.Fatalf("restored = %d", n)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir, nil)
	opts.SegmentMaxBytes = 200
	mem := newMem()
	s := Open(opts, mem)
	t0 := time.Unix(90000, 0)
	for i := 0; i < 20; i++ {
		record(t, s, fmt.Sprintf("host%d", i), t0.Add(time.Duration(i)*time.Second))
	}
	if st := s.Stats(); st.WALSegments < 2 {
		t.Fatalf("no rotation: %+v", st)
	}
	s.CrashClose()

	mem2 := newMem()
	s2 := Open(testOpts(dir, nil), mem2)
	defer s2.Close()
	if n := mem2.SampleCount(testSrc, glue.GroupMemory); n != 20 {
		t.Fatalf("restored across segments = %d, want 20", n)
	}
}

func TestRepeatedRestartsAreIdempotent(t *testing.T) {
	dir := t.TempDir()
	mem := newMem()
	s := Open(testOpts(dir, nil), mem)
	t0 := time.Unix(90000, 0)
	for i := 0; i < 4; i++ {
		record(t, s, fmt.Sprintf("h%d", i), t0.Add(time.Duration(i)*time.Second))
	}
	s.CrashClose()
	// Crash-restart repeatedly without writing: the sample count must not
	// grow (checkpoint + WAL overlap dedupes on exact sample time).
	for i := 0; i < 3; i++ {
		mem2 := newMem()
		s2 := Open(testOpts(dir, nil), mem2)
		if n := mem2.SampleCount(testSrc, glue.GroupMemory); n != 4 {
			t.Fatalf("restart %d: samples = %d, want 4", i, n)
		}
		if i == 1 {
			_ = s2.Checkpoint() // interleave a checkpoint; still no growth
		}
		s2.CrashClose()
	}
}

// TestRestoreRejectsRecordsOfAnotherSchema: CRC-valid records whose rows do
// not fit the group (the GLUE schema changed between runs, or the directory
// is someone else's) used to be loaded as they came, and every later Query
// on the group then failed. They must be skipped — without truncating the
// good records journaled behind them — counted, and alerted once.
func TestRestoreRejectsRecordsOfAnotherSchema(t *testing.T) {
	dir := t.TempDir()
	s := Open(testOpts(dir, nil), newMem())
	t0 := time.Unix(90000, 0)
	foreign := func(at time.Time, row ...any) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.w.append(foreignRow(t, glue.GroupMemory, at, row)); err != nil {
			t.Fatal(err)
		}
	}
	record(t, s, "h0", t0)
	foreign(t0.Add(time.Second), "h1", int64(1), int64(2), int64(3))                     // four values, Memory has seven
	foreign(t0.Add(2*time.Second), "h2", "1024", int64(2), int64(3), int64(4), 0.0, 0.0) // RAMSize as a string
	record(t, s, "h3", t0.Add(3*time.Second))
	foreign(t0.Add(4*time.Second), "h4")
	record(t, s, "h5", t0.Add(5*time.Second))
	s.CrashClose()

	sink := &alertSink{}
	mem := newMem()
	s2 := Open(testOpts(dir, sink), mem)
	defer s2.Close()
	if st := s2.Stats(); st.CorruptRecords != 3 || st.ReplayedRecords != 6 {
		t.Errorf("after restore: %+v, want 3 corrupt of 6 replayed", st)
	}
	rs, err := mem.Query(glue.GroupMemory, "", time.Time{}, time.Time{})
	if err != nil || rs.Len() != 3 {
		t.Fatalf("Query after restore: %v, err %v; want the 3 good records", rs, err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.alerts) != 1 || !strings.Contains(sink.alerts[0], "3 restored records rejected") {
		t.Errorf("alerts = %q, want one for all three rejects", sink.alerts)
	}
}

// TestCheckpointRunsBesideRecord: the checkpoint encodes from a frozen view
// outside every lock, so writers carry on while it runs — under -race this
// is the proof that the view shares nothing a writer still touches — and a
// crash right after still restores every record, from whichever of the
// checkpoint and the WAL tail holds it.
func TestCheckpointRunsBesideRecord(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir, nil)
	opts.Fsync = FsyncOff
	s := Open(opts, newMem())
	const writers, each = 3, 400
	t0 := time.Unix(90000, 0)
	rs := memRS(t, "host", 1024)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := fmt.Sprintf("%s%d", testSrc, w)
			for i := 0; i < each; i++ {
				if err := s.Record(src, glue.GroupMemory, rs, t0.Add(time.Duration(i)*time.Millisecond)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	checkpoints := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				checkpoints <- n
				return
			default:
			}
			if err := s.Checkpoint(); err != nil {
				t.Error(err)
			}
			n++
		}
	}()
	wg.Wait()
	close(stop)
	if n := <-checkpoints; n == 0 {
		t.Fatal("no checkpoint ran beside the writers")
	}
	s.CrashClose()

	mem := newMem()
	s2 := Open(testOpts(dir, nil), mem)
	defer s2.Close()
	if st := s2.Stats(); st.CorruptRecords != 0 {
		t.Errorf("after restart: %+v", st)
	}
	for w := 0; w < writers; w++ {
		if n := mem.SampleCount(fmt.Sprintf("%s%d", testSrc, w), glue.GroupMemory); n != each {
			t.Errorf("writer %d: restored %d samples, want %d", w, n, each)
		}
	}
}

// TestRestoreAllocations: restoring a two-row Processor record allocates its
// strings — six cells, the source, the group — and nothing for a row, a cell
// or a column, the decoded set being reused from record to record: 8.3 a
// record when written, 27.3 while a decoded row was a []any of boxes.
func TestRestoreAllocations(t *testing.T) {
	const records = 2000
	dir := restoreDir(t, records, true)
	allocs := testing.AllocsPerRun(5, func() { restore(t, dir, records) }) / records
	t.Logf("restore: %.1f allocations a record", allocs)
	if allocs > 9 {
		t.Errorf("restoring a two-row record took %.1f allocations, want ≤ 9", allocs)
	}
}

// TestHostileFrameAllocatesNothingForItsClaims: a CRC-valid payload whose
// rows claim more columns than the group has (here 4096) is refused at
// the claim — skipped and counted, the record behind it loaded — for the cost
// of the record's two names, where it used to buy a []any of the claimed
// capacity.
func TestHostileFrameAllocatesNothingForItsClaims(t *testing.T) {
	payload := foreignRow(t, glue.GroupMemory, time.Unix(90000, 0), make([]any, 1<<12))
	var dec decoder
	allocs := testing.AllocsPerRun(10, func() {
		if rec, err := dec.sample(payload); err != nil || rec.refused == nil {
			t.Fatalf("refused = %v, err %v; want a refusal", rec.refused, err)
		}
	})
	if allocs > 8 {
		t.Errorf("refusing a 4096-column row took %.0f allocations", allocs)
	}

	dir := t.TempDir()
	s := Open(testOpts(dir, nil), newMem())
	s.mu.Lock()
	err := s.w.append(payload)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	record(t, s, "h1", time.Unix(90001, 0))
	s.CrashClose()
	mem := newMem()
	s2 := Open(testOpts(dir, nil), mem)
	defer s2.Close()
	if st := s2.Stats(); st.CorruptRecords != 1 || st.ReplayedRecords != 2 || mem.TotalSamples() != 1 {
		t.Errorf("after restore: %+v, %d samples; want 1 refused of 2 replayed, 1 loaded", st, mem.TotalSamples())
	}
}
