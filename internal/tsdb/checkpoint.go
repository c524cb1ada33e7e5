package tsdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
		frame = frame[:0]
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(p)))
		frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(p, crcTable))
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		_, err := bw.Write(p)
		return err
	}
	err = view.Each(func(rec history.SampleRecord) error {
		payload = encodeSample(payload[:0], rec)
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

// loadCheckpoint parses one checkpoint file. Any anomaly — short header,
// bad magic, torn frame, CRC mismatch, undecodable sample, or a missing
// end marker — fails the whole file: checkpoints are all-or-nothing, the
// caller falls back to an older one.
func loadCheckpoint(path string) (records []history.SampleRecord, walSeq uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < ckptHeaderSize || string(data[:4]) != ckptMagic ||
		binary.LittleEndian.Uint32(data[4:8]) != ckptVersion {
		return nil, 0, fmt.Errorf("tsdb: %s: bad checkpoint header", filepath.Base(path))
	}
	walSeq = binary.LittleEndian.Uint64(data[8:16])
	off := ckptHeaderSize
	sealed := false
	for off < len(data) {
		if len(data)-off < frameHeaderSize {
			return nil, 0, fmt.Errorf("tsdb: %s: torn frame at byte %d", filepath.Base(path), off)
		}
		length := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > maxFrameBytes || int(length) > len(data)-off-frameHeaderSize {
			return nil, 0, fmt.Errorf("tsdb: %s: torn frame at byte %d", filepath.Base(path), off)
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+int(length)]
		if crc32.Checksum(payload, crcTable) != sum {
			return nil, 0, fmt.Errorf("tsdb: %s: CRC mismatch at byte %d", filepath.Base(path), off)
		}
		off += frameHeaderSize + int(length)
		if len(payload) == 1 && payload[0] == ckptEndMarker[0] {
			sealed = true
			if off != len(data) {
				return nil, 0, fmt.Errorf("tsdb: %s: %d bytes after end marker", filepath.Base(path), len(data)-off)
			}
			break
		}
		rec, err := decodeSample(payload)
		if err != nil {
			return nil, 0, fmt.Errorf("tsdb: %s: %w", filepath.Base(path), err)
		}
		records = append(records, rec)
	}
	if !sealed {
		return nil, 0, fmt.Errorf("tsdb: %s: missing end marker (incomplete write)", filepath.Base(path))
	}
	return records, walSeq, nil
}
