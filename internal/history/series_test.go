package history

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// TestLateSamplesRespectRetention: a late sample used to be appended in
// arrival order, where the count rule then dropped the wrong one and the
// age rule could not reach it until it got to the front.
func TestLateSamplesRespectRetention(t *testing.T) {
	s, now := newStore(Options{MaxSamplesPerKey: 3, MaxAge: time.Minute})
	t0 := *now
	for _, sec := range []int{5, 6, 7, 1} { // 1 arrives late
		if err := s.Record(srcA, glue.GroupMemory, memRS(t, "a", int64(sec)), t0.Add(time.Duration(sec)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	kept := func() (out []int64) {
		rs, err := s.Query(glue.GroupMemory, srcA, time.Time{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		for rs.Next() {
			ram, _ := rs.GetInt("RAMSize")
			out = append(out, ram)
		}
		return out
	}
	if got := kept(); fmt.Sprint(got) != "[5 6 7]" {
		t.Fatalf("kept %v, want [5 6 7]: the late sample is the oldest, so it is the one over the cap", got)
	}

	// With room to spare the late sample is kept, in time order — and ages
	// out on time although it is not where it arrived.
	s, now = newStore(Options{MaxSamplesPerKey: 10, MaxAge: time.Minute})
	for _, sec := range []int{50, 55, 58, 10} {
		if err := s.Record(srcA, glue.GroupMemory, memRS(t, "a", int64(sec)), t0.Add(time.Duration(sec)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if got := kept(); fmt.Sprint(got) != "[10 50 55 58]" {
		t.Fatalf("kept %v, want [10 50 55 58]", got)
	}
	*now = t0.Add(75 * time.Second) // cutoff at +15 s
	if dropped := s.Prune(); dropped != 1 {
		t.Errorf("Prune dropped %d, want the late sample alone", dropped)
	}
	if got := kept(); fmt.Sprint(got) != "[50 55 58]" {
		t.Fatalf("after Prune kept %v, want [50 55 58]", got)
	}
}

// TestLoadRejectsRowsOfAnotherShape: one restored record of the wrong width
// or kind used to be stored as it came and fail every later Query on its
// group ("resultset: row has 4 values, want 9").
func TestLoadRejectsRowsOfAnotherShape(t *testing.T) {
	s, now := newStore(Options{})
	good := []any{"a", int64(1), int64(1), int64(1), int64(1), 0.0, 0.0}
	// shaped builds a set of Memory's column names, as many as row has values,
	// each of its value's kind: what a journal of another schema decodes to.
	shaped := func(g *glue.Group, row []any) *resultset.ResultSet {
		t.Helper()
		var cols []resultset.Column
		for c, v := range row {
			name := fmt.Sprint("Extra", c)
			if c < len(g.Fields) {
				name = g.Fields[c].Name
			}
			cols = append(cols, resultset.Column{Name: name, Kind: resultset.CellOf(v).Kind})
		}
		meta, err := resultset.NewMetadata(cols)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := resultset.NewBuilder(meta).Append(row...).Build()
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	for name, row := range map[string][]any{
		"narrow row": {"a", int64(1), int64(1), int64(1)},
		"wide row":   append(append([]any(nil), good...), "extra"),
		"wrong kind": {"a", "1024", int64(1), int64(1), int64(1), 0.0, 0.0},
	} {
		if kept, err := s.Load(srcA, glue.GroupMemory, shaped(glue.Memory, row), *now); kept || err == nil {
			t.Errorf("%s: kept=%v err=%v, want a rejection", name, kept, err)
		}
	}
	early := shaped(glue.OperatingSystem, []any{"a", "os", "1", "2", int64(3), time.Time{}})
	if kept, err := s.Load(srcA, glue.GroupOperatingSystem, early, *now); kept || err == nil {
		t.Errorf("time too early: kept=%v err=%v, want a rejection", kept, err)
	}
	if kept, err := s.Load(srcA, glue.GroupMemory, shaped(glue.Memory, good), time.Time{}); kept || err == nil {
		t.Errorf("zero sample time: kept=%v err=%v, want a rejection", kept, err)
	}
	if s.Keys() != 0 || s.TotalSamples() != 0 {
		t.Errorf("rejected records left %d keys, %d samples", s.Keys(), s.TotalSamples())
	}
	if kept, err := s.Load(srcA, glue.GroupMemory, shaped(glue.Memory, good), *now); !kept || err != nil {
		t.Fatalf("good record: kept=%v err=%v", kept, err)
	}
	rs, err := s.Query(glue.GroupMemory, "", time.Time{}, time.Time{})
	if err != nil || rs.Len() != 1 {
		t.Fatalf("Query after rejects: %v rows, err %v", rs, err)
	}
}

// TestConcurrentRecordQueryView runs writers (in order, late, over the cap
// so chunks seal and retire, with a column that flips between NULL and not),
// readers and checkpoint views at once. Under -race it proves a frozen
// series shares nothing a writer still touches; every reader also checks
// that what it sees is whole: each row carries its own sample time.
func TestConcurrentRecordQueryView(t *testing.T) {
	const sources, writes = 4, 1500
	base := time.Now().Add(-time.Second)
	s := New(Options{MaxSamplesPerKey: 40})
	src := func(i int) string { return fmt.Sprintf("gridrm:snmp://n%d:1", i) }
	meta := memRS(t, "x", 1).Metadata()

	// wholeRow: RAMSize holds the sample time; SwapInRate is NULL on odd
	// nanoseconds and the time again on even ones.
	wholeRow := func(row []any, at time.Time) error {
		ns := at.UnixNano()
		if row[1] != ns {
			return fmt.Errorf("RAMSize %v in the sample of %d", row[1], ns)
		}
		if want := any(float64(ns)); ns%2 == 1 {
			want = nil
			if row[5] != want {
				return fmt.Errorf("SwapInRate %v, want NULL", row[5])
			}
		} else if row[5] != want {
			return fmt.Errorf("SwapInRate %v, want %v", row[5], want)
		}
		return nil
	}

	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < sources; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < writes; i++ {
				at := base.Add(time.Duration(i) * time.Microsecond)
				if i%7 == 3 {
					at = at.Add(-time.Duration(rng.Intn(30)) * time.Microsecond) // late
				}
				ns := at.UnixNano()
				var swap any
				if ns%2 == 0 {
					swap = float64(ns)
				}
				rs := rowsRS(t, glue.Memory, [][]any{
					{src(w), ns, int64(i), nil, nil, swap, 0.5},
					{src(w), ns, int64(i), nil, nil, swap, 1.5},
				})
				if rs.Metadata() != meta {
					t.Error("not the canonical metadata")
				}
				if err := s.Record(src(w), glue.GroupMemory, rs, at); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var reads atomic.Int64
	reader := func(read func() error) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := read(); err != nil {
					t.Error(err)
					return
				}
				reads.Add(1)
				runtime.Gosched() // let a waiting writer have the processor
			}
		}()
	}
	checkQuery := func(source string) error {
		rs, err := s.Query(glue.GroupMemory, source, time.Time{}, time.Time{})
		if err != nil {
			return err
		}
		var prev time.Time
		for i := 0; i < rs.Len(); i++ {
			row := rs.RowAt(i)
			at := row[len(row)-1].(time.Time)
			if at.Before(prev) {
				return fmt.Errorf("Query %q: row %d out of time order", source, i)
			}
			prev = at
			if err := wholeRow(row, at); err != nil {
				return fmt.Errorf("Query %q row %d: %w", source, i, err)
			}
		}
		return nil
	}
	reader(func() error { return checkQuery("") })
	reader(func() error { return checkQuery(src(1)) })
	reader(func() error {
		if rs, at, ok := s.Latest(src(2), glue.GroupMemory); ok {
			for i := 0; i < rs.Len(); i++ {
				if err := wholeRow(rs.RowAt(i), at); err != nil {
					return fmt.Errorf("Latest row %d: %w", i, err)
				}
			}
		}
		return nil
	})
	reader(func() error { // the checkpoint's read
		var prevSrc string
		var prev time.Time
		return s.View().Each(func(smp *Sample) error {
			if smp.Source == prevSrc && smp.At.Before(prev) {
				return fmt.Errorf("view: %s out of time order", smp.Source)
			}
			prevSrc, prev = smp.Source, smp.At
			if smp.Len() != 2 {
				return fmt.Errorf("view: sample of %d rows", smp.Len())
			}
			for _, row := range sampleRows(smp) {
				if err := wholeRow(row, smp.At); err != nil {
					return fmt.Errorf("view: %w", err)
				}
			}
			return nil
		})
	})
	writers.Wait()
	close(done)
	readers.Wait()
	t.Logf("%d reads ran beside %d writes", reads.Load(), sources*writes)
	if keys, samples := s.recount(); s.Keys() != keys || s.TotalSamples() != samples || samples != sources*40 {
		t.Errorf("running totals %d/%d, recount %d/%d, want %d samples", s.Keys(), s.TotalSamples(), keys, samples, sources*40)
	}
}
