package tsdb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildSegment writes a real segment with the given payloads and returns its
// path and the byte offset at which each frame ends (ascending).
func buildSegment(t testing.TB, dir string, payloads [][]byte) (string, []int64) {
	t.Helper()
	w, err := createSegment(dir, 1, FsyncOff, &walCounters{})
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for _, p := range payloads {
		if err := w.append(p); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, w.size)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	return w.path, ends
}

// TestReplayTornAtEveryOffset is the torn-write sweep: a real WAL truncated
// at every possible byte offset must replay without panicking, deliver only
// fully-written frames (never a partial or altered payload), and leave the
// file truncated back to the last valid frame boundary.
func TestReplayTornAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	payloads := [][]byte{
		[]byte("alpha"),
		[]byte("bravo-longer-payload"),
		{},              // empty payloads are legal frames
		[]byte("delta"), // final record, most likely torn in practice
	}
	src, ends := buildSegment(t, dir, payloads)
	full, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal-0000000000000001.seg")
			if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			var got [][]byte
			frames, truncated, err := replaySegment(path, func(p []byte) error {
				got = append(got, append([]byte(nil), p...))
				return nil
			})
			if err != nil {
				t.Fatalf("replay error: %v", err)
			}
			// wantFrames = frames whose end offset fits inside the cut.
			wantFrames := 0
			for _, end := range ends {
				if int64(cut) >= end {
					wantFrames++
				}
			}
			if frames != wantFrames {
				t.Fatalf("frames = %d, want %d", frames, wantFrames)
			}
			for i := 0; i < wantFrames; i++ {
				if !bytes.Equal(got[i], payloads[i]) {
					t.Fatalf("frame %d = %q, want %q", i, got[i], payloads[i])
				}
			}
			// A cut at a frame boundary (or the bare header, or an empty
			// file) is indistinguishable from a clean shutdown mid-stream:
			// no truncation needed. Any other offset is a torn tail.
			wantTruncated := cut != 0 && cut != segHeaderSize
			for _, end := range ends {
				if int64(cut) == end {
					wantTruncated = false
				}
			}
			if truncated != wantTruncated {
				t.Fatalf("truncated = %v, want %v", truncated, wantTruncated)
			}
			// Replaying the truncated file again must converge: same frames,
			// no further truncation.
			again, truncated2, err := replaySegment(path, nil)
			if err != nil {
				t.Fatalf("second replay: %v", err)
			}
			if again != frames || truncated2 {
				t.Fatalf("second replay frames=%d truncated=%v, want %d/false", again, truncated2, frames)
			}
		})
	}
}

func TestReplayBadMagicTruncatesToEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0000000000000001.seg")
	if err := os.WriteFile(path, []byte("NOPExxxxgarbage-follows"), 0o644); err != nil {
		t.Fatal(err)
	}
	frames, truncated, err := replaySegment(path, nil)
	if err != nil || frames != 0 || !truncated {
		t.Fatalf("frames=%d truncated=%v err=%v", frames, truncated, err)
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Size() != 0 {
		t.Fatalf("file not emptied: size=%d err=%v", fi.Size(), err)
	}
}

func TestReplayBitFlipStopsAtPreviousFrame(t *testing.T) {
	dir := t.TempDir()
	path, ends := buildSegment(t, dir, [][]byte{
		[]byte("keep-me"), []byte("flip-me"), []byte("unreachable"),
	})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte inside the second frame.
	data[ends[0]+frameHeaderSize+2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	frames, truncated, err := replaySegment(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if frames != 1 || !truncated {
		t.Fatalf("frames=%d truncated=%v, want 1/true", frames, truncated)
	}
	if !bytes.Equal(got[0], []byte("keep-me")) {
		t.Fatalf("frame 0 = %q", got[0])
	}
	if fi, _ := os.Stat(path); fi.Size() != ends[0] {
		t.Fatalf("truncated to %d, want %d", fi.Size(), ends[0])
	}
}

func TestReplayEmptyAndMissingFiles(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "wal-0000000000000001.seg")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	frames, truncated, err := replaySegment(empty, nil)
	if err != nil || frames != 0 || truncated {
		t.Fatalf("empty: frames=%d truncated=%v err=%v", frames, truncated, err)
	}
	if _, _, err := replaySegment(filepath.Join(dir, "nope.seg"), nil); err == nil {
		t.Fatal("missing file: want error")
	}
}

func TestReplayAbsurdLengthPrefix(t *testing.T) {
	// A frame header claiming a payload larger than maxFrameBytes must not
	// allocate; it is treated as a torn tail.
	dir := t.TempDir()
	path, ends := buildSegment(t, dir, [][]byte{[]byte("ok")})
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// length = 0xFFFFFFFF, crc = 0, no payload.
	if _, err := f.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	frames, truncated, err := replaySegment(path, nil)
	if err != nil || frames != 1 || !truncated {
		t.Fatalf("frames=%d truncated=%v err=%v", frames, truncated, err)
	}
	if fi, _ := os.Stat(path); fi.Size() != ends[0] {
		t.Fatalf("size=%d, want %d", fi.Size(), ends[0])
	}
}

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, seq := range []uint64{1, 42, 1<<40 + 7} {
		name := segmentName(seq)
		got, ok := parseSegmentName(name)
		if !ok || got != seq {
			t.Errorf("parse(%q) = %d,%v", name, got, ok)
		}
	}
	for _, bad := range []string{"wal-.seg", "wal-12", "12.seg", "checkpoint-0000000000000001.ckpt", "wal-x.seg"} {
		if _, ok := parseSegmentName(bad); ok {
			t.Errorf("parse(%q) accepted", bad)
		}
	}
}
