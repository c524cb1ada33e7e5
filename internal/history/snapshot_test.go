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

	// Each reuses its Sample, so keep what identifies each one.
	type seen struct {
		source string
		at     time.Time
	}
	var snap []seen
	restored, _ := newStore(Options{})
	_ = s.View().Each(func(smp *Sample) error {
		snap = append(snap, seen{smp.Source, smp.At})
		rs := rowsRS(t, glue.Memory, sampleRows(smp))
		if kept, err := restored.Load(smp.Source, smp.Group, rs, smp.At); !kept || err != nil {
			t.Errorf("Load(%v) = %v, %v", smp.At, kept, err)
		}
		return nil
	})
	if len(snap) != 3 {
		t.Fatalf("view records = %d", len(snap))
	}
	// Stable order: keys sorted, then time ascending within a key.
	if snap[0].source != srcB { // "gridrm:ganglia" sorts before "gridrm:snmp"
		t.Errorf("first key = %q", snap[0].source)
	}
	if !snap[1].at.Equal(t0) || !snap[2].at.Equal(t0.Add(time.Second)) {
		t.Errorf("time order within key: %v, %v", snap[1].at, snap[2].at)
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
	rs := memRS(t, "a", 1)
	if kept, err := s.Load(srcA, glue.GroupMemory, rs, t0); !kept || err != nil {
		t.Fatalf("first load = %v, %v", kept, err)
	}
	if kept, _ := s.Load(srcA, glue.GroupMemory, rs, t0); kept {
		t.Fatal("duplicate time accepted")
	}
	if s.TotalSamples() != 1 {
		t.Fatalf("samples = %d", s.TotalSamples())
	}
}

func TestLoadOutOfOrderInserts(t *testing.T) {
	s, now := newStore(Options{})
	t0 := *now
	rs := memRS(t, "a", 1)
	_, _ = s.Load(srcA, glue.GroupMemory, rs, t0.Add(2*time.Second))
	_, _ = s.Load(srcA, glue.GroupMemory, rs, t0) // older sample arrives second (WAL after checkpoint)
	_, _ = s.Load(srcA, glue.GroupMemory, rs, t0.Add(time.Second))
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
	if kept, err := s.Load(srcA, glue.GroupMemory, memRS(t, "a", 1), now.Add(-time.Hour)); kept || err != nil {
		t.Fatalf("expired sample: kept=%v err=%v", kept, err)
	}
	if s.Keys() != 0 {
		t.Fatalf("expired-only key retained: keys=%d", s.Keys())
	}
	if kept, err := s.Load(srcA, "NoSuchGroup", memRS(t, "a", 1), *now); kept || err == nil {
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
