package tsdb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gridrm/internal/history"
	"gridrm/internal/resultset"
	"gridrm/internal/retry"
)

// Options configures a durable Store.
type Options struct {
	// Dir is the durability directory (WAL segments + checkpoints).
	Dir string
	// Fsync is the WAL fsync policy. FsyncAlways writes and fsyncs each
	// record before Record returns: nothing acknowledged is lost to a
	// kill -9 or a machine crash. FsyncInterval (default) commits records
	// in groups, one write and one fsync at most fsyncEvery (100 ms) after
	// a group's first record: a kill -9 or a machine crash loses at most
	// that last 100 ms. FsyncOff writes each record before Record returns
	// and never fsyncs: a kill -9 loses nothing, a machine crash whatever
	// the page cache had not written back.
	Fsync string
	// SegmentMaxBytes rotates the live WAL segment once it grows past this
	// (default 4 MiB).
	SegmentMaxBytes int64
	// CheckpointInterval is the period of the background checkpoint loop
	// (default 1m; negative disables the loop, checkpoints then happen only
	// at Close and after a re-attach).
	CheckpointInterval time.Duration
	// ReattachBackoff is the initial backoff before retrying disk access
	// after a fault (default 2s, doubled with jitter up to 1m).
	ReattachBackoff time.Duration
	// Clock is injectable for tests; defaults to time.Now.
	Clock func() time.Time
	// Alert, if set, receives durability alerts (corruption detected, disk
	// fault).
	Alert func(kind, detail string)
	// Status, if set, receives non-alert state transitions (restore summary,
	// re-attach).
	Status func(kind, detail string)
}

// AlertKind is the event name durability alerts are published under.
const AlertKind = "history-durability"

// ValidFsync reports whether s names a known fsync policy.
func ValidFsync(s string) bool {
	return s == FsyncAlways || s == FsyncInterval || s == FsyncOff
}

func (o Options) withDefaults() Options {
	if !ValidFsync(o.Fsync) {
		o.Fsync = FsyncInterval
	}
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = 4 << 20
	}
	if o.CheckpointInterval == 0 {
		o.CheckpointInterval = time.Minute
	}
	if o.ReattachBackoff <= 0 {
		o.ReattachBackoff = 2 * time.Second
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// Store journals history records to a segmented WAL and periodically
// checkpoints the in-memory store's retained state. It wraps (not replaces)
// a history.Store: reads keep going straight to memory, writes are
// journaled before they return. Every disk failure degrades the store to
// memory-only mode — identical to running without durability — and a
// background loop re-attaches with jittered backoff. Nothing here is ever
// fatal to the gateway.
type Store struct {
	mem  *history.Store
	opts Options

	mu          sync.Mutex
	w           *segmentWriter
	attached    bool
	closed      bool
	reattaching bool
	restored    bool
	lastSeq     uint64 // highest WAL segment sequence ever used
	ckptSeq     uint64 // sequence of the newest good checkpoint file
	ckptWALSeq  uint64 // WAL sequence that checkpoint's replay resumes from
	sealed      []segmentInfo
	ckpts       []checkpointInfo
	encBuf      []byte
	failWrites  error // test hook: injected append error

	// Counters, all guarded by mu (every writer-path touch holds it).
	wal              walCounters
	walAppends       int64
	replayed         int64
	corrupt          int64
	checkpoints      int64
	checkpointErrors int64
	walErrors        int64
	reattaches       int64
	lastCheckpoint   time.Time
	// walBytes counts the framed bytes the WAL holds past the checkpoints:
	// replayed at restore, then appended. ckptWALBytes is its value where
	// the newest checkpoint's snapshot was cut.
	walBytes, ckptWALBytes int64

	ckptMu    sync.Mutex      // serializes checkpoint writes
	stopCtx   context.Context // cancelled by Close/CrashClose to end the background loops
	stop      context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// Stats is a point-in-time snapshot of durability state and counters.
type Stats struct {
	State            string    `json:"state"` // durable | memory-only | closed
	Dir              string    `json:"dir"`
	WALAppends       int64     `json:"wal_appends"`
	WALWrites        int64     `json:"wal_writes"` // write calls carrying frames: one per group under FsyncInterval
	Fsyncs           int64     `json:"fsyncs"`
	ReplayedRecords  int64     `json:"replayed_records"`
	CorruptRecords   int64     `json:"corrupt_records"`
	Checkpoints      int64     `json:"checkpoints"`
	CheckpointErrors int64     `json:"checkpoint_errors"`
	WALErrors        int64     `json:"wal_errors"`
	Reattaches       int64     `json:"reattaches"`
	DiskBytes        int64     `json:"disk_bytes"` // an interval group not yet written included
	WALSegments      int       `json:"wal_segments"`
	LastCheckpoint   time.Time `json:"last_checkpoint,omitempty"`
	// WALBytesSinceCheckpoint is the framed WAL bytes no checkpoint covers:
	// what a crash now would replay, less an interval group not yet written.
	WALBytesSinceCheckpoint int64 `json:"wal_bytes_since_checkpoint"`
}

// Open attaches durability to mem. It never fails: if the directory cannot
// be used the store starts in memory-only mode, alerts, and keeps retrying
// in the background. On success the in-memory store is restored from the
// newest valid checkpoint plus the WAL tail before Open returns, so the
// degradation ladder's history tier serves pre-restart samples immediately.
func Open(opts Options, mem *history.Store) *Store {
	s := &Store{mem: mem, opts: opts.withDefaults()}
	s.stopCtx, s.stop = context.WithCancel(context.Background())
	if s.opts.Fsync == FsyncInterval {
		s.wal.wake = make(chan struct{}, 1)
		s.wg.Add(1)
		go s.flushLoop()
	}
	s.mu.Lock()
	if err := s.attachLocked(); err != nil {
		s.alert(fmt.Sprintf("history dir unusable, running memory-only: %v", err))
		s.startReattachLocked()
	}
	s.mu.Unlock()
	if s.opts.CheckpointInterval > 0 {
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	return s
}

func (s *Store) alert(detail string) {
	if s.opts.Alert != nil {
		s.opts.Alert(AlertKind, detail)
	}
}

func (s *Store) status(detail string) {
	if s.opts.Status != nil {
		s.opts.Status(AlertKind, detail)
	}
}

// attachLocked (re)establishes disk access: it restores state on the first
// attach and opens a fresh live segment. Callers hold s.mu.
func (s *Store) attachLocked() error {
	if err := os.MkdirAll(s.opts.Dir, 0o755); err != nil {
		return err
	}
	if !s.restored {
		if err := s.restoreLocked(); err != nil {
			return err
		}
		s.restored = true
	}
	segs, err := listSegments(s.opts.Dir)
	if err != nil {
		return err
	}
	cps, err := listCheckpoints(s.opts.Dir)
	if err != nil {
		return err
	}
	next := s.lastSeq + 1
	if n := len(segs); n > 0 && segs[n-1].seq >= next {
		next = segs[n-1].seq + 1
	}
	w, err := createSegment(s.opts.Dir, next, s.opts.Fsync, &s.wal)
	if err != nil {
		return err
	}
	s.w = w
	s.lastSeq = next
	s.sealed = segs
	s.ckpts = cps
	s.attached = true
	return nil
}

// restoreLocked loads the newest valid checkpoint (falling back past
// corrupt ones) and replays the WAL tail into the in-memory store.
// Corruption is counted, alerted, and truncated away — never an error.
func (s *Store) restoreLocked() error {
	cps, err := listCheckpoints(s.opts.Dir)
	if err != nil {
		return err
	}
	var restored, rejected int64
	var firstReject error
	// load decodes one payload and loads it. A CRC-valid record the schema
	// or the store refuses (rows of another schema, a foreign directory) is
	// skipped and counted, never an error: returning one would truncate the
	// records behind it.
	var dec decoder
	load := func(payload []byte) error {
		rec, err := dec.sample(payload)
		if err != nil {
			return err
		}
		if err = rec.refused; err == nil {
			_, err = s.mem.Load(rec.source, rec.group, rec.rs, rec.at)
		}
		if err != nil {
			if rejected++; firstReject == nil {
				firstReject = err
			}
		}
		return nil
	}
	for i := len(cps) - 1; i >= 0; i-- {
		frames, walSeq, err := loadCheckpoint(cps[i].path, load)
		if err != nil {
			s.corrupt++
			s.alert(fmt.Sprintf("corrupt checkpoint dropped, falling back to previous: %v", err))
			_ = os.Remove(cps[i].path)
			continue
		}
		restored += int64(frames)
		s.ckptSeq = cps[i].seq
		s.ckptWALSeq = walSeq
		break
	}
	segs, err := listSegments(s.opts.Dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg.seq < s.ckptWALSeq {
			continue // fully covered by the checkpoint
		}
		frames, truncated, err := replaySegment(seg.path, func(payload []byte) error {
			err := load(payload)
			if err == nil {
				s.walBytes += int64(frameHeaderSize + len(payload))
			}
			return err
		})
		restored += int64(frames)
		if err != nil {
			s.alert(fmt.Sprintf("cannot replay WAL segment %s: %v", seg.path, err))
			continue
		}
		if truncated {
			s.corrupt++
			s.alert(fmt.Sprintf("torn or corrupt WAL tail in %s truncated after %d valid records", seg.path, frames))
		}
	}
	if rejected > 0 {
		s.corrupt += rejected
		s.alert(fmt.Sprintf("%d restored records rejected (written under another schema?), first: %v", rejected, firstReject))
	}
	s.replayed += restored
	if restored > 0 || s.ckptSeq > 0 {
		s.status(fmt.Sprintf("restored %d records from %s", restored, s.opts.Dir))
	}
	return nil
}

// Record stores a harvested ResultSet in memory and journals it to the WAL.
// The in-memory write always happens; a WAL failure degrades the store to
// memory-only mode instead of surfacing an error to the harvest path.
func (s *Store) Record(source, group string, rs *resultset.ResultSet, at time.Time) error {
	if err := s.mem.Record(source, group, rs, at); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || !s.attached {
		return nil
	}
	s.encBuf = encodeResult(s.encBuf[:0], source, group, at, rs, 0, rs.Len())
	err := s.failWrites
	if err == nil {
		err = s.w.append(s.encBuf)
	}
	if err != nil {
		s.walErrors++
		s.detachLocked(fmt.Sprintf("WAL append failed: %v", err))
		return nil
	}
	s.walAppends++
	s.walBytes += int64(frameHeaderSize + len(s.encBuf))
	if s.w.size >= s.opts.SegmentMaxBytes {
		s.rotateLocked()
	}
	return nil
}

// rotateLocked seals the live segment and opens the next one. Callers hold
// s.mu. It returns the sealed segment's sequence (the new live sequence on
// success is that plus one).
func (s *Store) rotateLocked() {
	old := s.w
	info := segmentInfo{seq: old.seq, path: old.path, size: old.size}
	if err := old.close(); err != nil {
		s.walErrors++
		s.w = nil
		s.detachLocked(fmt.Sprintf("sealing WAL segment failed: %v", err))
		return
	}
	s.sealed = append(s.sealed, info)
	next := s.lastSeq + 1
	w, err := createSegment(s.opts.Dir, next, s.opts.Fsync, &s.wal)
	if err != nil {
		s.w = nil
		s.detachLocked(fmt.Sprintf("creating WAL segment failed: %v", err))
		return
	}
	w.pending = old.pending[:0] // the sealed segment wrote it: reuse the buffer
	s.w = w
	s.lastSeq = next
}

// detachLocked degrades to memory-only mode after a disk fault and starts
// the re-attach loop. Callers hold s.mu.
func (s *Store) detachLocked(detail string) {
	if s.w != nil {
		s.w.abandon() // sync would likely fail too; just release the fd
		s.w = nil
	}
	if !s.attached && s.reattaching {
		return
	}
	s.attached = false
	s.alert("degraded to memory-only: " + detail)
	s.startReattachLocked()
}

func (s *Store) startReattachLocked() {
	if s.reattaching || s.closed {
		return
	}
	s.reattaching = true
	s.wg.Add(1)
	go s.reattachLoop()
}

// reattachLoop retries disk access with jittered exponential backoff. On
// success it immediately checkpoints so the records collected while
// memory-only become durable.
func (s *Store) reattachLoop() {
	defer s.wg.Done()
	backoff := retry.Backoff{Base: s.opts.ReattachBackoff, Max: time.Minute}
	for attempt := 0; ; attempt++ {
		if retry.Sleep(s.stopCtx, backoff.Delay(attempt)) != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		err := s.attachLocked()
		if err == nil {
			s.reattaching = false
			s.reattaches++
			s.mu.Unlock()
			s.status("re-attached to history dir, durable again")
			_ = s.Checkpoint() // capture the memory-only window
			return
		}
		s.mu.Unlock()
	}
}

// Checkpoint snapshots the in-memory store to disk and garbage-collects
// WAL segments the snapshot covers. Memory-only or closed stores skip it.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	s.mu.Lock()
	if s.closed || !s.attached {
		s.mu.Unlock()
		return nil
	}
	// Rotate so the snapshot boundary coincides exactly with the start of
	// the new live segment: the checkpoint then covers every sealed
	// segment below walSeq and replay resumes from walSeq.
	s.rotateLocked()
	if !s.attached { // rotation itself hit a disk fault
		s.mu.Unlock()
		return nil
	}
	walSeq, walBytes := s.w.seq, s.walBytes
	view := s.mem.View() // O(keys); Record waits for no more than this
	seq := s.ckptSeq + 1
	dir := s.opts.Dir
	s.mu.Unlock()

	err := writeCheckpoint(dir, seq, walSeq, view)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.checkpointErrors++
		if !s.closed && s.attached {
			s.detachLocked(fmt.Sprintf("checkpoint failed: %v", err))
		}
		return err
	}
	s.checkpoints++
	s.ckptSeq = seq
	s.ckptWALSeq = walSeq
	s.ckptWALBytes = walBytes
	s.lastCheckpoint = s.opts.Clock()
	s.ckpts = append(s.ckpts, checkpointInfo{
		seq: seq, path: filepath.Join(dir, checkpointName(seq)), walSeq: walSeq,
	})
	if fi, statErr := os.Stat(s.ckpts[len(s.ckpts)-1].path); statErr == nil {
		s.ckpts[len(s.ckpts)-1].size = fi.Size()
	}
	// Keep the two newest checkpoints (the older is the fallback if the
	// newer turns out corrupt), and only GC WAL segments the OLDEST kept
	// checkpoint covers: if the newest checkpoint is unreadable at restore,
	// the fallback plus the surviving segments still reconstruct everything.
	for len(s.ckpts) > 2 {
		_ = os.Remove(s.ckpts[0].path)
		s.ckpts = s.ckpts[1:]
	}
	gcSeq := s.ckpts[0].walSeq
	kept := s.sealed[:0]
	for _, seg := range s.sealed {
		if seg.seq < gcSeq {
			_ = os.Remove(seg.path)
		} else {
			kept = append(kept, seg)
		}
	}
	s.sealed = kept
	return nil
}

// flushLoop commits an FsyncInterval WAL's groups that no size limit or
// seal has committed: woken by a group's first frame, it waits fsyncEvery,
// then writes and fsyncs whatever is pending. Between groups it sleeps on
// the wake channel, so an idle store arms no timer. A failed flush degrades
// the store like a failed append: the records are in memory already, and
// the re-attach checkpoint makes them durable.
func (s *Store) flushLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopCtx.Done():
			return
		case <-s.wal.wake:
		}
		if retry.Sleep(s.stopCtx, fsyncEvery) != nil {
			return // Close seals the segment; CrashClose drops the group
		}
		s.mu.Lock()
		if !s.closed && s.attached {
			if err := s.w.flush(); err != nil {
				s.walErrors++
				s.detachLocked(fmt.Sprintf("WAL flush failed: %v", err))
			}
		}
		s.mu.Unlock()
	}
}

func (s *Store) checkpointLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.CheckpointInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopCtx.Done():
			return
		case <-ticker.C:
			_ = s.Checkpoint()
		}
	}
}

// diskBytesLocked sums the live segment, the sealed segments and the kept
// checkpoints. Callers hold s.mu.
func (s *Store) diskBytesLocked() int64 {
	var n int64
	for _, seg := range s.sealed {
		n += seg.size
	}
	for _, cp := range s.ckpts {
		n += cp.size
	}
	if s.w != nil {
		n += s.w.size
	}
	return n
}

// Stats returns a snapshot of durability state and counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		State:            "memory-only",
		Dir:              s.opts.Dir,
		WALAppends:       s.walAppends,
		WALWrites:        s.wal.writes,
		Fsyncs:           s.wal.fsyncs,
		ReplayedRecords:  s.replayed,
		CorruptRecords:   s.corrupt,
		Checkpoints:      s.checkpoints,
		CheckpointErrors: s.checkpointErrors,
		WALErrors:        s.walErrors,
		Reattaches:       s.reattaches,
		DiskBytes:        s.diskBytesLocked(),
		WALSegments:      len(s.sealed),
		LastCheckpoint:   s.lastCheckpoint,

		WALBytesSinceCheckpoint: s.walBytes - s.ckptWALBytes,
	}
	if s.attached {
		st.State = "durable"
		st.WALSegments++ // the live segment
	}
	if s.closed {
		st.State = "closed"
	}
	return st
}

// setFailWrites injects an append error (test hook for the disk-fault path).
func (s *Store) setFailWrites(err error) {
	s.mu.Lock()
	s.failWrites = err
	s.mu.Unlock()
}

// Close takes a final checkpoint, seals the live segment and stops the
// background loops. Safe to call more than once.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.stop()
		err = s.Checkpoint()
		s.mu.Lock()
		s.closed = true
		if s.w != nil {
			if e := s.w.close(); err == nil {
				err = e
			}
			s.w = nil
		}
		s.attached = false
		s.mu.Unlock()
		s.wg.Wait()
	})
	return err
}

// CrashClose releases file descriptors without syncing or checkpointing —
// the simulator's kill switch. Whatever reached the page cache survives;
// whatever did not models a torn tail for recovery to deal with. An
// FsyncInterval group not yet written is lost, as a killed process loses it.
func (s *Store) CrashClose() {
	s.closeOnce.Do(func() {
		s.stop()
		s.mu.Lock()
		s.closed = true
		if s.w != nil {
			s.w.abandon()
			s.w = nil
		}
		s.attached = false
		s.mu.Unlock()
		s.wg.Wait()
	})
}
