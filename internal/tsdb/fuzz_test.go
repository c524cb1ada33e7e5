package tsdb

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// fuzzSeedPayload is a realistic encoded sample to mutate from: two rows of
// the group with a Time field, a NULL in each.
func fuzzSeedPayload() []byte {
	meta, _ := resultset.MetadataForGroup(glue.MustLookup(glue.GroupOperatingSystem), nil)
	rs, _ := resultset.NewBuilder(meta).
		Append("host-a", "Linux", nil, "5.4", int64(1024), time.Unix(90000, 0)).
		Append("host-b", "Linux", "6.1", "12", int64(2048), nil).
		Build()
	return encodeResult(nil, "gridrm:snmp://node:1", glue.GroupOperatingSystem, time.Unix(90000, 123), rs, 0, rs.Len())
}

// sameCells reports whether two sets hold the same cells.
func sameCells(a, b *resultset.ResultSet) bool {
	cols := a.Metadata().ColumnCount()
	if a.Len() != b.Len() || cols != b.Metadata().ColumnCount() {
		return false
	}
	for r := 0; r < a.Len(); r++ {
		for c := 0; c < cols; c++ {
			if x, y := a.Cell(r, c), b.Cell(r, c); x.Null != y.Null || x.Kind != y.Kind || resultset.CompareCells(x, y) != 0 {
				return false
			}
		}
	}
	return true
}

// fuzzSeedSegment is a well-formed two-frame WAL segment image.
func fuzzSeedSegment() []byte {
	var seg []byte
	seg = append(seg, segMagic...)
	seg = binary.LittleEndian.AppendUint32(seg, segVersion)
	for _, p := range [][]byte{fuzzSeedPayload(), []byte("short")} {
		seg = appendFrame(seg, p)
	}
	return seg
}

// FuzzWALDecode throws arbitrary bytes at both decode layers: the sample
// codec directly, and a whole segment image through replay. The properties:
// neither ever panics, replay truncation converges in one pass, and a frame
// whose CRC validates decodes to a record that re-encodes to the same
// record, cell for cell.
func FuzzWALDecode(f *testing.F) {
	payload := fuzzSeedPayload()
	segment := fuzzSeedSegment()

	f.Add(payload)
	f.Add(segment)
	f.Add([]byte{})
	f.Add([]byte{recordVersion})
	f.Add(make([]byte, 64)) // zero-filled
	f.Add(payload[:len(payload)/2])
	f.Add(segment[:len(segment)-3]) // torn tail
	flipped := append([]byte(nil), payload...)
	flipped[len(flipped)/3] ^= 0x80
	f.Add(flipped)
	segFlipped := append([]byte(nil), segment...)
	segFlipped[segHeaderSize+frameHeaderSize+5] ^= 0x01
	f.Add(segFlipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Layer 1: the sample codec must fail softly on any input.
		if rec, err := new(decoder).sample(data); err == nil && rec.refused == nil {
			round := encodeResult(nil, rec.source, rec.group, rec.at, rec.rs, 0, rec.rs.Len())
			if again, err2 := new(decoder).sample(round); err2 != nil || again.refused != nil {
				t.Fatalf("re-encode of accepted payload rejected: %v, %v", err2, again.refused)
			} else if again.source != rec.source || again.group != rec.group ||
				!again.at.Equal(rec.at) || !sameCells(again.rs, rec.rs) {
				t.Fatalf("decode/encode/decode drifted:\n%v\nvs\n%v", rec.rs, again.rs)
			}
		}

		// Layer 2: the same bytes as a segment file must replay without
		// panicking, and replay's truncation must converge immediately.
		path := filepath.Join(t.TempDir(), "wal-0000000000000001.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var payloads [][]byte
		frames, _, err := replaySegment(path, func(p []byte) error {
			payloads = append(payloads, append([]byte(nil), p...))
			_, derr := new(decoder).sample(p)
			return derr
		})
		if err != nil {
			t.Fatalf("replay returned an error for in-memory corruption: %v", err)
		}
		// Every delivered frame was framed in the original bytes — replay
		// must never hand out bytes that were not written.
		for _, p := range payloads {
			if len(p) > 0 && !bytes.Contains(data, p) {
				t.Fatalf("replay produced bytes not present in input: %q", p)
			}
		}
		again, truncated, err := replaySegment(path, func(p []byte) error {
			_, derr := new(decoder).sample(p)
			return derr
		})
		if err != nil || truncated || again != frames {
			t.Fatalf("replay did not converge: frames %d→%d truncated=%v err=%v",
				frames, again, truncated, err)
		}
	})
}

// fuzzSeedCheckpoint is a well-formed checkpoint image: the header, two
// sample frames and the end marker.
func fuzzSeedCheckpoint() []byte {
	ckpt := binary.LittleEndian.AppendUint32([]byte(ckptMagic), ckptVersion)
	ckpt = binary.LittleEndian.AppendUint64(ckpt, 7)
	for _, p := range [][]byte{fuzzSeedPayload(), fuzzSeedPayload(), ckptEndMarker} {
		ckpt = appendFrame(ckpt, p)
	}
	return ckpt
}

// FuzzCheckpointLoad throws arbitrary bytes at the checkpoint loader, first
// on its own with the sample decoder behind it, then as the one checkpoint
// of a directory a store restores from. The properties: nothing panics; a
// file the loader accepts delivered every frame it counts, each of which the
// sample decoder took and which re-encodes to the same record; a store
// restores exactly that many records from it, and drops a file the loader
// refuses as corrupt; and no input, whatever lengths it claims, makes either
// allocate more than maxFrameBytes.
func FuzzCheckpointLoad(f *testing.F) {
	seed := fuzzSeedCheckpoint()
	f.Add(seed)
	f.Add(seed[:len(seed)-1]) // torn end marker
	f.Add(seed[:ckptHeaderSize])
	f.Add([]byte{})
	flipped := append([]byte(nil), seed...)
	flipped[ckptHeaderSize+frameHeaderSize+3] ^= 0x10 // CRC mismatch
	f.Add(flipped)
	huge := binary.LittleEndian.AppendUint32(append([]byte(nil), seed[:ckptHeaderSize]...), maxFrameBytes+1)
	f.Add(append(huge, make([]byte, 12)...)) // a frame claiming past the bound

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, checkpointName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var dec decoder
		delivered := 0
		frames, _, err := loadCheckpoint(path, func(p []byte) error {
			rec, err := dec.sample(p)
			if err != nil {
				return err
			}
			delivered++
			if rec.refused != nil {
				return nil
			}
			round := encodeResult(nil, rec.source, rec.group, rec.at, rec.rs, 0, rec.rs.Len())
			if again, err := new(decoder).sample(round); err != nil || again.refused != nil ||
				again.source != rec.source || again.group != rec.group || !again.at.Equal(rec.at) || !sameCells(again.rs, rec.rs) {
				t.Fatalf("an accepted checkpoint record does not survive re-encoding: %v", err)
			}
			return nil
		})
		if err == nil && frames != delivered {
			t.Fatalf("accepted with %d frames, delivered %d", frames, delivered)
		}

		s := Open(Options{Dir: dir, Fsync: FsyncOff, CheckpointInterval: -1, Alert: func(string, string) {}, Status: func(string, string) {}}, newMem())
		st := s.Stats()
		s.CrashClose()
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > maxFrameBytes {
			t.Fatalf("loading and restoring %d bytes allocated %d", len(data), grown)
		}
		_, statErr := os.Stat(path)
		switch {
		case err == nil && (st.ReplayedRecords != int64(frames) || statErr != nil):
			t.Fatalf("an accepted checkpoint of %d frames restored %d (file kept: %v)", frames, st.ReplayedRecords, statErr == nil)
		case err != nil && (st.CorruptRecords == 0 || statErr == nil):
			t.Fatalf("a refused checkpoint (%v) was not dropped as corrupt: %+v", err, st)
		}
	})
}
