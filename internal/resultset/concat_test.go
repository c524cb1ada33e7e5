package resultset

import (
	"slices"
	"sync"
	"testing"
	"unsafe"

	"gridrm/internal/glue"
)

// concatFixture returns the shape of sampleRS plus a NULL-only column, the
// rows of every part in order, and the parts: two that hold different live
// columns, one empty between them and a third.
func concatFixture(t *testing.T) (*Metadata, [][]any, []*ResultSet) {
	t.Helper()
	meta := mustMeta(t, []Column{
		{Name: "HostName", Kind: glue.String},
		{Name: "Load", Kind: glue.Float},
		{Name: "CPUs", Kind: glue.Int},
		{Name: "Note", Kind: glue.String},
	})
	groups := [][][]any{
		{{"a1", 0.5, int64(4), nil}, {"a2", nil, int64(8), nil}},
		{},
		{{"b1", nil, nil, nil}, {"b2", nil, nil, nil}, {"b3", nil, int64(2), nil}},
		{{"c1", 2.5, nil, nil}},
	}
	var rows [][]any
	var parts []*ResultSet
	for _, g := range groups {
		b := NewBuilder(meta)
		for _, r := range g {
			b.Append(r...)
			rows = append(rows, r)
		}
		rs, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, rs)
	}
	return meta, rows, parts
}

// TestConcatenationFlattensOnce: several whole parts gathered are held, not
// copied. Readers racing to the first read of the cells — through Column,
// Cell, Null, RowAt or String — flatten it once: every reader sees the same
// arrays and the parts' rows in order, later reads allocate nothing, and no
// part is written.
func TestConcatenationFlattensOnce(t *testing.T) {
	meta, rows, parts := concatFixture(t)
	before := make([]string, len(parts))
	for i, p := range parts {
		before[i] = p.String()
	}
	want, err := NewBuilder(meta).Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		want = mustAppend(t, want, r)
	}
	for round := 0; round < 20; round++ {
		cat := Gather(meta, parts, nil, nil)
		if held := cat.parts(); len(held) != 3 || cat.Len() != len(rows) {
			t.Fatalf("a concatenation of 4 parts (one empty) holds %d parts and %d rows", len(held), cat.Len())
		}
		const readers = 10
		arrays := make([]*string, readers)
		shown := make([]string, readers)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				switch i % 5 {
				case 0:
					cat.Column(2)
				case 1:
					cat.Cell(4, 0)
				case 2:
					cat.Null(1, 1)
				case 3:
					cat.RowAt(0)
				case 4:
					_ = cat.String()
				}
				arrays[i] = unsafe.SliceData(cat.Column(0).Strs)
				shown[i] = cat.String()
			}(i)
		}
		close(start)
		wg.Wait()
		for i := range arrays {
			if arrays[i] != arrays[0] || shown[i] != want.String() {
				t.Fatalf("reader %d saw arrays %p and\n%s\nreader 0 saw %p; want\n%s", i, arrays[i], shown[i], arrays[0], want.String())
			}
		}
		if slices.Contains(parts, cat) || arrays[0] == unsafe.SliceData(parts[0].Column(0).Strs) {
			t.Fatal("the flattened concatenation shares a part's array")
		}
		if allocs := testing.AllocsPerRun(20, func() { cat.Cell(5, 0); cat.Null(2, 2) }); allocs != 0 {
			t.Fatalf("a read after the flatten allocated %.0f times", allocs)
		}
	}
	for i, p := range parts {
		if p.String() != before[i] {
			t.Fatalf("part %d was written:\n%s", i, p.String())
		}
	}
}

func mustAppend(t *testing.T, rs *ResultSet, row []any) *ResultSet {
	t.Helper()
	one, err := NewBuilder(rs.Metadata()).Append(row...).Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Merge(one); err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestConcatenationReadersAndWriters: a concatenation answers as the set its
// parts' rows make through every reader and writer; a projected one holds
// the parts projected; a clone holds the same parts; and a write makes it a
// set of its own, leaving its parts and its clones alone.
func TestConcatenationReadersAndWriters(t *testing.T) {
	meta, rows, parts := concatFixture(t)
	flat := New(meta)
	for _, p := range parts {
		if err := flat.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	cat := Gather(meta, parts, nil, nil)
	clone := cat.Clone()
	if len(Expand([]*ResultSet{clone})) != 3 {
		t.Fatal("a clone of a concatenation does not hold its parts")
	}
	merged := New(meta)
	if err := merged.Merge(cat); err != nil || merged.String() != flat.String() || cat.parts() == nil {
		t.Fatalf("merging a concatenation: %v\n%s", err, merged.String())
	}
	sorted, err := cat.SortedBy("HostName", true)
	if err != nil || sorted.Cell(0, 0).Str != "c1" || sorted.Len() != len(rows) {
		t.Fatalf("SortedBy over a concatenation: %v\n%s", err, sorted)
	}
	if err := cat.SortBy("HostName", true); err != nil || cat.String() != sorted.String() {
		t.Fatalf("SortBy over a concatenation: %v\n%s", err, cat)
	}
	if got := Expand([]*ResultSet{cat}); len(got) != 1 || got[0] != cat {
		t.Fatal("a sorted concatenation is still read as its parts")
	}
	if clone.String() != flat.String() {
		t.Fatalf("sorting a concatenation reordered its clone:\n%s", clone)
	}

	proj, idx, err := meta.Project([]string{"Note", "HostName", "Load"})
	if err != nil {
		t.Fatal(err)
	}
	pcat := Gather(proj, parts, nil, idx)
	held := Expand([]*ResultSet{pcat})
	if len(held) != 3 || held[0].Metadata() != proj {
		t.Fatalf("a projected concatenation holds %d parts", len(held))
	}
	for r, row := range rows {
		for i, c := range idx {
			if got, want := pcat.Cell(r, i).Value(), row[c]; got != want {
				t.Fatalf("projected row %d column %d = %v, want %v", r, i, got, want)
			}
		}
	}
	if pcat.Column(0) != nil {
		t.Fatal("a column NULL in every part holds cells")
	}
}
