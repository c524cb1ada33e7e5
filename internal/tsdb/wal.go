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

// fsyncEvery bounds how stale unsynced WAL data may get under FsyncInterval.
const fsyncEvery = 100 * time.Millisecond

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

// segmentWriter appends CRC-framed records to one live segment file.
type segmentWriter struct {
	f    *os.File
	path string
	seq  uint64
	size int64
	buf  []byte

	policy   string
	lastSync time.Time
	clock    func() time.Time
	onSync   func()
}

// createSegment opens a fresh segment file for appending and writes its
// header.
func createSegment(dir string, seq uint64, policy string, clock func() time.Time, onSync func()) (*segmentWriter, error) {
	path := filepath.Join(dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	w := &segmentWriter{
		f: f, path: path, seq: seq,
		policy: policy, clock: clock, onSync: onSync,
		lastSync: clock(),
	}
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

// append frames and writes one payload, syncing per the fsync policy.
func (w *segmentWriter) append(payload []byte) error {
	w.buf = appendFrame(w.buf[:0], payload)
	if _, err := w.f.Write(w.buf); err != nil {
		return err
	}
	w.size += int64(len(w.buf))
	return w.maybeSync()
}

func (w *segmentWriter) maybeSync() error {
	switch w.policy {
	case FsyncAlways:
		return w.sync()
	case FsyncOff:
		return nil
	default: // FsyncInterval
		if w.clock().Sub(w.lastSync) >= fsyncEvery {
			return w.sync()
		}
		return nil
	}
}

func (w *segmentWriter) sync() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.lastSync = w.clock()
	if w.onSync != nil {
		w.onSync()
	}
	return nil
}

// close seals the segment: a final sync, then the file is closed.
func (w *segmentWriter) close() error {
	syncErr := w.sync()
	if err := w.f.Close(); err != nil && syncErr == nil {
		syncErr = err
	}
	return syncErr
}

// abandon closes the file descriptor without a final sync — the crash path
// (and the give-up path after a disk fault, where sync would fail anyway).
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
