package tsdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// WAL on-disk format. Each segment file is
//
//	"GRWL" magic + u32 version                     (8-byte header)
//	frame*                                          (append-only)
//
// where a frame is
//
//	u32 payload length + u32 CRC-32C of payload    (8-byte frame header)
//	payload bytes                                   (one encoded sample)
//
// all little-endian. Segments are named wal-<seq>.seg with a monotonically
// increasing sequence; the highest sequence is the live segment, lower ones
// are sealed and never appended to again.
const (
	segMagic        = "GRWL"
	segVersion      = 1
	segHeaderSize   = 8
	frameHeaderSize = 8
	// maxFrameBytes rejects absurd frame lengths during replay so a
	// corrupt length prefix cannot trigger a huge allocation.
	maxFrameBytes = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Fsync policies.
const (
	FsyncAlways   = "always"
	FsyncInterval = "interval"
	FsyncOff      = "off"
)

// fsyncEvery bounds how long an acknowledged record may wait in an
// FsyncInterval writer's buffer before it is written and fsynced: a kill -9
// or a machine crash loses at most the last fsyncEvery of records.
const fsyncEvery = 100 * time.Millisecond

// groupBytes is the buffered size at which an FsyncInterval writer writes
// and fsyncs its frames at once rather than at its fsyncEvery deadline.
const groupBytes = 64 << 10

func segmentName(seq uint64) string { return fmt.Sprintf("wal-%016d.seg", seq) }

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len("wal-"):len(name)-len(".seg")], 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// segmentInfo is one on-disk WAL segment.
type segmentInfo struct {
	seq  uint64
	path string
	size int64
}

// listSegments returns the directory's WAL segments in ascending sequence
// order.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentInfo
	for _, e := range entries {
		seq, ok := parseSegmentName(e.Name())
		if !ok || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		segs = append(segs, segmentInfo{seq: seq, path: filepath.Join(dir, e.Name()), size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// walCounters are a store's WAL counters and its flush loop's wake-up, which
// every segment writer of the store shares. Writers run under the store's
// lock, so the counters need no other.
type walCounters struct {
	writes, fsyncs int64
	// wake hears, without blocking, that a frame went into an empty
	// FsyncInterval buffer: the flush loop then arms its fsyncEvery timer.
	wake chan struct{}
}

// segmentWriter appends CRC-framed records to one live segment file. Under
// FsyncAlways and FsyncOff every append is written before it returns (and
// fsynced, under FsyncAlways). Under FsyncInterval appends commit in groups:
// frames collect in pending and go to the file in one write and one fsync
// when pending reaches groupBytes, when the segment is sealed, or when the
// store's flush loop finds fsyncEvery gone since the group's first frame.
type segmentWriter struct {
	f       *os.File
	path    string
	seq     uint64
	size    int64  // the segment's bytes, pending frames included
	pending []byte // frames not yet written

	policy string
	wal    *walCounters
}

// createSegment opens a fresh segment file for appending and writes its
// header.
func createSegment(dir string, seq uint64, policy string, wal *walCounters) (*segmentWriter, error) {
	path := filepath.Join(dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	w := &segmentWriter{f: f, path: path, seq: seq, policy: policy, wal: wal}
	header := make([]byte, 0, segHeaderSize)
	header = append(header, segMagic...)
	header = binary.LittleEndian.AppendUint32(header, segVersion)
	if _, err := f.Write(header); err != nil {
		f.Close()
		return nil, err
	}
	w.size = segHeaderSize
	return w, nil
}

// append frames one payload and commits it per the fsync policy. It reads
// no clock; under FsyncInterval it makes no syscall until the group is full.
func (w *segmentWriter) append(payload []byte) error {
	first := len(w.pending) == 0
	w.pending = appendFrame(w.pending, payload)
	w.size += int64(frameHeaderSize + len(payload))
	switch {
	case w.policy != FsyncInterval || len(w.pending) >= groupBytes:
		return w.flush()
	case first:
		select {
		case w.wal.wake <- struct{}{}:
		default: // a wake-up is queued already (or, nil, no loop listens)
		}
	}
	return nil
}

// flush writes the pending frames with one write and, unless the policy is
// FsyncOff, fsyncs them. With nothing pending it does nothing.
func (w *segmentWriter) flush() error {
	if len(w.pending) == 0 {
		return nil
	}
	if err := w.write(); err != nil {
		return err
	}
	if w.policy == FsyncOff {
		return nil
	}
	return w.sync()
}

// write hands the pending frames to the file in one write.
func (w *segmentWriter) write() error {
	if len(w.pending) == 0 {
		return nil
	}
	_, err := w.f.Write(w.pending)
	w.pending = w.pending[:0]
	w.wal.writes++
	return err
}

func (w *segmentWriter) sync() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.wal.fsyncs++
	return nil
}

// close seals the segment: the pending frames are written, a final sync,
// then the file is closed.
func (w *segmentWriter) close() error {
	err := w.write()
	if err == nil {
		err = w.sync()
	}
	if cerr := w.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// abandon closes the file descriptor without writing what is pending or
// syncing — the crash path (a killed process loses its buffer too) and the
// give-up path after a disk fault, where the records are still in memory.
func (w *segmentWriter) abandon() { _ = w.f.Close() }

// appendFrame appends payload's frame — its length, its CRC, itself — to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// frameAt returns the payload of the frame that starts at data[off:]; ok is
// false when the frame is torn — its header or its claimed length runs past
// the data — or, with verify set, its payload does not match its CRC.
func frameAt(data []byte, off int, verify bool) (payload []byte, ok bool) {
	if len(data)-off < frameHeaderSize {
		return nil, false
	}
	length := binary.LittleEndian.Uint32(data[off : off+4])
	if length > maxFrameBytes || int(length) > len(data)-off-frameHeaderSize {
		return nil, false
	}
	payload = data[off+frameHeaderSize : off+frameHeaderSize+int(length)]
	return payload, !verify || crc32.Checksum(payload, crcTable) == binary.LittleEndian.Uint32(data[off+4:off+8])
}

// replaySegment streams a segment's valid frames into fn in append order.
// Any corruption — a bad header, torn frame, CRC mismatch or an undecodable
// payload (fn returning an error) — truncates the file back to the last
// valid frame boundary and stops; corruption is recovered, never fatal.
// It returns the number of frames delivered and whether the segment was
// truncated.
func replaySegment(path string, fn func(payload []byte) error) (frames int, truncated bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	if len(data) == 0 {
		return 0, false, nil // a crash right after create: empty but valid
	}
	if len(data) < segHeaderSize || string(data[:4]) != segMagic ||
		binary.LittleEndian.Uint32(data[4:8]) != segVersion {
		// The header itself is damaged: nothing in this segment can be
		// trusted. Truncate it to empty.
		return 0, true, os.Truncate(path, 0)
	}
	for off := segHeaderSize; off < len(data); frames++ {
		payload, ok := frameAt(data, off, true)
		if !ok || fn != nil && fn(payload) != nil {
			return frames, true, os.Truncate(path, int64(off))
		}
		off += frameHeaderSize + len(payload)
	}
	return frames, false, nil
}
