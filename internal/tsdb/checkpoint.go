package tsdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"gridrm/internal/history"
)

// Checkpoint on-disk format. A checkpoint-<seq>.ckpt file is
//
//	"GRCK" magic + u32 version + u64 walSeq       (16-byte header)
//	frame*                                         (one per sample)
//	end frame                                      (payload = {0xFF})
//
// with the same little-endian length+CRC framing as WAL segments. walSeq is
// the WAL sequence replay must resume from: the checkpoint covers every
// record in segments with a lower sequence. The end frame marks a complete
// write — a checkpoint missing it (a crash mid-write that survived the
// tmp+rename dance some other way) is invalid and the previous checkpoint
// is used instead. Files are written to a .tmp name, fsynced, then renamed.
const (
	ckptMagic      = "GRCK"
	ckptVersion    = 1
	ckptHeaderSize = 16
)

// ckptEndMarker terminates a complete checkpoint; encoded samples always
// start with recordVersion (1), so a 0xFF first byte cannot be confused
// with one.
var ckptEndMarker = []byte{0xFF}

func checkpointName(seq uint64) string { return fmt.Sprintf("checkpoint-%016d.ckpt", seq) }

func parseCheckpointName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".ckpt") {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len("checkpoint-"):len(name)-len(".ckpt")], 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// checkpointInfo is one on-disk checkpoint file.
type checkpointInfo struct {
	seq    uint64
	path   string
	size   int64
	walSeq uint64 // WAL sequence its replay resumes from (0 if unreadable)
}

// listCheckpoints returns the directory's checkpoints in ascending
// sequence order.
func listCheckpoints(dir string) ([]checkpointInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var cps []checkpointInfo
	for _, e := range entries {
		seq, ok := parseCheckpointName(e.Name())
		if !ok || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		path := filepath.Join(dir, e.Name())
		cps = append(cps, checkpointInfo{
			seq: seq, path: path, size: info.Size(),
			walSeq: readCheckpointWALSeq(path),
		})
	}
	sort.Slice(cps, func(i, j int) bool { return cps[i].seq < cps[j].seq })
	return cps, nil
}

// readCheckpointWALSeq reads just a checkpoint's header walSeq; 0 (keep
// every segment) when the header cannot be read or is not a checkpoint's.
func readCheckpointWALSeq(path string) uint64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	var header [ckptHeaderSize]byte
	if _, err := io.ReadFull(f, header[:]); err != nil {
		return 0
	}
	if string(header[:4]) != ckptMagic || binary.LittleEndian.Uint32(header[4:8]) != ckptVersion {
		return 0
	}
	return binary.LittleEndian.Uint64(header[8:16])
}

// writeCheckpoint atomically writes a checkpoint file: tmp, fsync, rename,
// directory fsync. It encodes sample by sample from the view — a frozen
// image that needs no lock — so no writer waits on it and no copy of the
// retained state is made.
func writeCheckpoint(dir string, seq, walSeq uint64, view *history.View) error {
	path := filepath.Join(dir, checkpointName(seq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	header := make([]byte, 0, ckptHeaderSize)
	header = append(header, ckptMagic...)
	header = binary.LittleEndian.AppendUint32(header, ckptVersion)
	header = binary.LittleEndian.AppendUint64(header, walSeq)
	if _, err := bw.Write(header); err != nil {
		f.Close()
		return err
	}
	var frame, payload []byte
	writeFrame := func(p []byte) error {
		frame = appendFrame(frame[:0], p)
		_, err := bw.Write(frame)
		return err
	}
	err = view.Each(func(smp *history.Sample) error {
		payload = encodeResult(payload[:0], smp.Source, smp.Group, smp.At, smp.Width(), smp)
		return writeFrame(payload)
	})
	if err != nil {
		f.Close()
		return err
	}
	if err := writeFrame(ckptEndMarker); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a rename is durable; errors are ignored
// (not every filesystem supports it, and the rename itself already
// happened).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// loadCheckpoint hands one checkpoint file's sample payloads to fn in order,
// after checking the file whole. Any anomaly — short header, bad magic, torn
// frame, CRC mismatch or a missing end marker — fails the file before fn has
// seen any of it: checkpoints are all-or-nothing, the caller falls back to an
// older one. An error from fn (an undecodable sample) fails it part-way;
// what fn took by then are samples the older checkpoint and the WAL hold too,
// and a repeat is dropped when it is loaded.
func loadCheckpoint(path string, fn func(payload []byte) error) (frames int, walSeq uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	name := filepath.Base(path)
	if len(data) < ckptHeaderSize || string(data[:4]) != ckptMagic ||
		binary.LittleEndian.Uint32(data[4:8]) != ckptVersion {
		return 0, 0, fmt.Errorf("tsdb: %s: bad checkpoint header", name)
	}
	// walk runs over the frames up to the end marker: with no fn it checks
	// them, with one it delivers them.
	walk := func(fn func(payload []byte) error) (int, error) {
		frames := 0
		for off := ckptHeaderSize; off < len(data); frames++ {
			payload, ok := frameAt(data, off, fn == nil)
			if !ok {
				return 0, fmt.Errorf("tsdb: %s: torn or corrupt frame at byte %d", name, off)
			}
			off += frameHeaderSize + len(payload)
			if len(payload) == 1 && payload[0] == ckptEndMarker[0] {
				if off != len(data) {
					return 0, fmt.Errorf("tsdb: %s: %d bytes after end marker", name, len(data)-off)
				}
				return frames, nil
			}
			if fn != nil {
				if err := fn(payload); err != nil {
					return 0, fmt.Errorf("tsdb: %s: %w", name, err)
				}
			}
		}
		return 0, fmt.Errorf("tsdb: %s: missing end marker (incomplete write)", name)
	}
	if _, err := walk(nil); err != nil {
		return 0, 0, err
	}
	frames, err = walk(fn)
	return frames, binary.LittleEndian.Uint64(data[8:16]), err
}
