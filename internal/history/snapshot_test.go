package history

import (
	"testing"
	"time"

	"gridrm/internal/glue"
)

func TestSnapshotLoadRoundTrip(t *testing.T) {
	s, now := newStore(Options{})
	t0 := *now
	_ = s.Record(srcA, glue.GroupMemory, memRS(t, "a", 1024), t0)
	_ = s.Record(srcA, glue.GroupMemory, memRS(t, "a", 2048), t0.Add(time.Second))
	_ = s.Record(srcB, glue.GroupMemory, memRS(t, "b", 512), t0.Add(2*time.Second))

	view := s.View()
	// Each reuses its row buffer, so keep a deep copy of every record.
	var snap []SampleRecord
	_ = view.Each(func(rec SampleRecord) error {
		rows := make([][]any, len(rec.Rows))
		for i, row := range rec.Rows {
			rows[i] = append([]any(nil), row...)
		}
		rec.Rows = rows
		snap = append(snap, rec)
		return nil
	})
	if len(snap) != 3 {
		t.Fatalf("view records = %d", len(snap))
	}
	// Stable order: keys sorted, then time ascending within a key.
	if snap[0].Source != srcB { // "gridrm:ganglia" sorts before "gridrm:snmp"
		t.Errorf("first key = %q", snap[0].Source)
	}
	if !snap[1].At.Equal(t0) || !snap[2].At.Equal(t0.Add(time.Second)) {
		t.Errorf("time order within key: %v, %v", snap[1].At, snap[2].At)
	}

	restored, _ := newStore(Options{})
	for _, rec := range snap {
		if kept, err := restored.Load(rec); !kept || err != nil {
			t.Errorf("Load(%v) = %v, %v", rec.At, kept, err)
		}
	}
	if restored.Keys() != 2 || restored.TotalSamples() != 3 {
		t.Fatalf("restored keys=%d samples=%d", restored.Keys(), restored.TotalSamples())
	}
	rs, at, ok := restored.Latest(srcA, glue.GroupMemory)
	if !ok || !at.Equal(t0.Add(time.Second)) {
		t.Fatalf("Latest ok=%v at=%v", ok, at)
	}
	rs.Next()
	if ram, _ := rs.GetInt("RAMSize"); ram != 2048 {
		t.Errorf("restored RAMSize = %d", ram)
	}
}

func TestLoadDedupesExactTimes(t *testing.T) {
	s, now := newStore(Options{})
	t0 := *now
	rec := SampleRecord{Source: srcA, Group: glue.GroupMemory, At: t0,
		Rows: [][]any{{"a", int64(1), int64(1), int64(1), int64(1), 0.0, 0.0}}}
	if kept, err := s.Load(rec); !kept || err != nil {
		t.Fatalf("first load = %v, %v", kept, err)
	}
	if kept, _ := s.Load(rec); kept {
		t.Fatal("duplicate time accepted")
	}
	if s.TotalSamples() != 1 {
		t.Fatalf("samples = %d", s.TotalSamples())
	}
}

func TestLoadOutOfOrderInserts(t *testing.T) {
	s, now := newStore(Options{})
	t0 := *now
	mk := func(at time.Time) SampleRecord {
		return SampleRecord{Source: srcA, Group: glue.GroupMemory, At: at,
			Rows: [][]any{{"a", int64(1), int64(1), int64(1), int64(1), 0.0, 0.0}}}
	}
	_, _ = s.Load(mk(t0.Add(2 * time.Second)))
	_, _ = s.Load(mk(t0)) // older sample arrives second (WAL after checkpoint)
	_, _ = s.Load(mk(t0.Add(time.Second)))
	rs, err := s.Query(glue.GroupMemory, srcA, time.Time{}, time.Time{})
	if err != nil || rs.Len() != 3 {
		t.Fatalf("rows=%d err=%v", rs.Len(), err)
	}
	var prev time.Time
	for rs.Next() {
		at, _ := rs.GetTime(SampledColumn)
		if at.Before(prev) {
			t.Fatalf("out of order: %v after %v", at, prev)
		}
		prev = at
	}
}

func TestLoadRespectsRetention(t *testing.T) {
	s, now := newStore(Options{MaxAge: time.Minute})
	old := SampleRecord{Source: srcA, Group: glue.GroupMemory,
		At:   now.Add(-time.Hour),
		Rows: [][]any{{"a", int64(1), int64(1), int64(1), int64(1), 0.0, 0.0}}}
	if kept, err := s.Load(old); kept || err != nil {
		t.Fatalf("expired sample: kept=%v err=%v", kept, err)
	}
	if s.Keys() != 0 {
		t.Fatalf("expired-only key retained: keys=%d", s.Keys())
	}
	if kept, err := s.Load(SampleRecord{Source: srcA, Group: "NoSuchGroup", At: *now}); kept || err == nil {
		t.Fatalf("unknown group: kept=%v err=%v", kept, err)
	}
}

func TestKeysAndTotalSamplesTrackPrune(t *testing.T) {
	s, now := newStore(Options{MaxAge: time.Minute})
	t0 := *now
	_ = s.Record(srcA, glue.GroupMemory, memRS(t, "a", 1024), t0)
	_ = s.Record(srcB, glue.GroupMemory, memRS(t, "b", 512), t0)
	if s.Keys() != 2 || s.TotalSamples() != 2 {
		t.Fatalf("keys=%d samples=%d", s.Keys(), s.TotalSamples())
	}
	*now = now.Add(2 * time.Minute)
	if dropped := s.Prune(); dropped != 2 {
		t.Fatalf("pruned = %d", dropped)
	}
	if s.Keys() != 0 || s.TotalSamples() != 0 {
		t.Fatalf("after prune keys=%d samples=%d", s.Keys(), s.TotalSamples())
	}
}
