package history

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// oneField is a group of one field of the given kind, for chunk columns of
// a kind no GLUE group has (Bool) or alone.
func oneField(kind glue.Kind) *glue.Group {
	return &glue.Group{Name: "one", Fields: []glue.Field{{Name: "v", Kind: kind}}}
}

// decoded reads rows [0, rows) of c's only column back as boxed values.
func decoded(c *chunk) []any {
	out := make([]any, c.rows)
	for i := range c.cols {
		c.each(&c.cols[i], int(c.rows), func(r int, v resultset.Cell) { out[r] = v.Value() })
	}
	return out
}

// TestColumnAgainstBoxedSlice sets random values and NULLs in an open-chunk
// column of every kind — 60 samples of 5 rows, enough to fill bitmap words
// and outgrow the dictionary's linear scan — and checks each cell, a frozen
// copy taken midway, and chunks sealed from random sample ranges, times
// included, against the plain []any of what was set.
func TestColumnAgainstBoxedSlice(t *testing.T) {
	draw := map[glue.Kind]func(*rand.Rand) any{
		glue.String: func(r *rand.Rand) any { return fmt.Sprintf("v%d", r.Intn(20)) },
		glue.Int:    func(r *rand.Rand) any { return r.Int63() - 1<<62 },
		glue.Float:  func(r *rand.Rand) any { return r.NormFloat64() },
		glue.Bool:   func(r *rand.Rand) any { return r.Intn(2) == 0 },
		glue.Time:   func(r *rand.Rand) any { return time.Unix(r.Int63n(1e9), r.Int63n(1e9)) },
	}
	const samples, per = 60, 5
	check := func(what string, got, want []any) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
		}
		for r, w := range want {
			if !sameCell(got[r], w) {
				t.Fatalf("%s: row %d = %#v, want %#v", what, r, got[r], w)
			}
		}
	}
	var e sealer
	for kind, value := range draw {
		// NULL runs first, last, throughout and never: each start state
		// (all-NULL, dense, mixed) and each transition between them.
		for _, nullP := range [][2]float64{{1, 0}, {0, 1}, {0.3, 0.3}, {0, 0}, {1, 1}} {
			rng := rand.New(rand.NewSource(int64(kind) + 7))
			g := oneField(kind)
			var o open
			var want []any
			var frozen column
			at := rng.Int63() - 1<<62
			for i := 0; i < samples; i++ {
				if i == samples/2 && len(o.cols) > 0 {
					frozen = o.cols[0] // a struct copy is the snapshot
				}
				for k := 0; k < per; k++ {
					var v any
					if p := nullP[2*i/samples]; rng.Float64() >= p {
						v = value(rng)
						o.column(g, 0, 1).set(len(want), resultset.CellOf(v), 0)
					}
					want = append(want, v)
				}
				o.note(at, per)
				at += []int64{0, 1, 1e9, rng.Int63n(1 << 40)}[rng.Intn(4)]
			}
			what := fmt.Sprintf("%v nulls %v", kind, nullP)
			if len(o.cols) > 0 {
				got := make([]any, len(want))
				for r := range got {
					got[r] = o.cols[0].at(r).Value()
				}
				check(what, got, want)
				got = got[:samples/2*per]
				for r := range got {
					got[r] = frozen.at(r).Value()
				}
				check(what+" frozen", got, want[:len(got)])
			}
			for i := 0; i < 20; i++ {
				from := rng.Intn(samples)
				to := from + 1 + rng.Intn(samples-from)
				c := e.seal(&o, from, to)
				check(fmt.Sprintf("%s sealed [%d,%d)", what, from, to), decoded(c), want[from*per:to*per])
				var sp span
				sp.of(c, nil)
				if got := sp.times[:c.n]; !reflect.DeepEqual(got, o.times[from:to]) {
					t.Fatalf("%s sealed [%d,%d): times %v, want %v", what, from, to, got, o.times[from:to])
				}
				// Reopened, the chunk is a working open chunk: it takes appends.
				re := c.reopen(g, 0)
				v := value(rng)
				re.column(g, 0, 1).set(re.rowStart(len(re.times)), resultset.CellOf(v), 0)
				re.note(at, 1)
				again := e.seal(&re, 0, len(re.times))
				check(what+" reopened, appended", decoded(again), append(append([]any(nil), want[from*per:to*per]...), v))
			}
		}
	}
}

// TestColumnSliceShedsDeadState: once the rows that made a column mixed, or
// that filled its dictionary, are gone, a chunk sealed without them stops
// paying for them: no bitmap, a dictionary of the strings it uses, and a
// single value stored once.
func TestColumnSliceShedsDeadState(t *testing.T) {
	g := oneField(glue.String)
	var o open
	for n := 0; n < 50; n++ {
		var v any
		if n >= 25 {
			v = "steady"
		} else if n%2 == 0 {
			v = fmt.Sprintf("old-%d", n)
		}
		o.column(g, 0, 1).set(n, resultset.CellOf(v), 0)
		o.note(int64(n), 1)
	}
	if col := &o.cols[0]; col.Nulls != resultset.SomeNull || len(col.dict) != 14 {
		t.Fatalf("before: nulls %d, %d dictionary entries", col.Nulls, len(col.dict))
	}
	var e sealer
	whole := e.seal(&o, 0, 50)
	if b := whole.cols[0]; b.mid == b.off || len(whole.dict) != 14 || b.width != 4 {
		t.Errorf("whole chunk: bitmap %d B, %d dictionary entries, %d-bit codes", b.mid-b.off, len(whole.dict), b.width)
	}
	live := e.seal(&o, 25, 50)
	if b := live.cols[0]; b.mid != b.off || len(live.dict) != 1 || b.width != 0 || b.end != b.mid {
		t.Errorf("live half: bitmap %d B, %d dictionary entries, %d-bit codes, %d B of codes",
			b.mid-b.off, len(live.dict), b.width, b.end-b.mid)
	}
	if dead := e.seal(&o, 1, 2); len(dead.cols) != 0 || dead.dict != nil {
		t.Errorf("an all-NULL chunk kept a block: %+v", dead)
	}
	// One Int, one Float, one Time value a chunk is stored once.
	for _, v := range []any{int64(1) << 40, 37.5, time.Unix(1e9, 5)} {
		g := oneField(resultset.CellOf(v).Kind)
		var o open
		for n := 0; n < chunkSamples; n++ {
			o.column(g, 0, 1).set(n, resultset.CellOf(v), 0)
			o.note(int64(n)*1e9, 1)
		}
		c := e.seal(&o, 0, chunkSamples)
		if b := c.cols[0]; b.end-b.mid > 10 || c.times > 8 {
			t.Errorf("%T held once a chunk: %d B of values, %d B of times", v, b.end-b.mid, c.times)
		}
	}
}

// TestSealBesideReaders records one source's samples across many seals, a
// late sample now and then rebuilding a sealed chunk, while readers query
// the whole series, read its latest sample and walk checkpoint views. Under
// -race it proves a reader never sees a chunk, or an open chunk's array,
// being written; every reader also checks that what it sees is whole and in
// order, and that a series never shrinks while nothing expires.
func TestSealBesideReaders(t *testing.T) {
	const writes = 20 * chunkSamples
	base := time.Now().Add(-time.Minute)
	s := New(Options{MaxSamplesPerKey: 2 * writes})
	// wholeRow: RAMSize holds the sample time, SwapInRate is NULL on odd
	// nanoseconds, HostName one of three.
	wholeRow := func(row []any, at time.Time) error {
		ns := at.UnixNano()
		if row[1] != ns {
			return fmt.Errorf("RAMSize %v in the sample of %d", row[1], ns)
		}
		if want := any(float64(ns)); ns%2 == 1 && row[5] != nil || ns%2 == 0 && row[5] != want {
			return fmt.Errorf("SwapInRate %v in the sample of %d", row[5], ns)
		}
		if want := fmt.Sprint("h", ns%3); row[0] != want {
			return fmt.Errorf("HostName %v, want %s", row[0], want)
		}
		return nil
	}
	record := func(at time.Time) error {
		ns := at.UnixNano()
		var swap any
		if ns%2 == 0 {
			swap = float64(ns)
		}
		host := fmt.Sprint("h", ns%3)
		return s.Record(srcA, glue.GroupMemory, rowsRS(t, glue.Memory, [][]any{
			{host, ns, nil, nil, nil, swap, 0.5},
			{host, ns, nil, nil, nil, swap, 1.5},
		}), at)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	errs := make(chan error, 3)
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
					errs <- err
					return
				}
			}
		}()
	}
	var last int
	reader(func() error {
		rs, err := s.Query(glue.GroupMemory, srcA, time.Time{}, time.Time{})
		if err != nil {
			return err
		}
		if rs.Len() < last {
			return fmt.Errorf("Query: %d rows after %d", rs.Len(), last)
		}
		last = rs.Len()
		var prev time.Time
		for i := 0; i < rs.Len(); i++ {
			row := rs.RowAt(i)
			at := row[len(row)-1].(time.Time)
			if at.Before(prev) {
				return fmt.Errorf("Query: row %d out of time order", i)
			}
			prev = at
			if err := wholeRow(row, at); err != nil {
				return fmt.Errorf("Query row %d: %w", i, err)
			}
		}
		return nil
	})
	reader(func() error {
		if rs, at, ok := s.Latest(srcA, glue.GroupMemory); ok {
			for i := 0; i < rs.Len(); i++ {
				if err := wholeRow(rs.RowAt(i), at); err != nil {
					return fmt.Errorf("Latest row %d: %w", i, err)
				}
			}
		}
		return nil
	})
	reader(func() error {
		return s.View().Each(func(smp *Sample) error {
			for _, row := range sampleRows(smp) {
				if err := wholeRow(row, smp.At); err != nil {
					return fmt.Errorf("view: %w", err)
				}
			}
			return nil
		})
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < writes; i++ {
		at := base.Add(time.Duration(i) * time.Millisecond)
		if i%50 == 49 {
			at = at.Add(-time.Duration(rng.Intn(i)) * time.Millisecond) // late, often into a sealed chunk
		}
		if err := record(at); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := s.SampleCount(srcA, glue.GroupMemory); n != writes {
		t.Errorf("%d samples, want %d", n, writes)
	}
}

// fuzzDraw reads the fuzzer's bytes, then a generator seeded by them.
type fuzzDraw struct {
	data []byte
	rng  *rand.Rand
}

func (d *fuzzDraw) byte() byte {
	if len(d.data) > 0 {
		b := d.data[0]
		d.data = d.data[1:]
		return b
	}
	return byte(d.rng.Intn(256))
}

func (d *fuzzDraw) intn(n int) int { return int(d.byte()) % n }

func (d *fuzzDraw) int64() int64 {
	var b [8]byte
	for i := range b {
		b[i] = d.byte()
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// value draws a cell of kind k: integers and times of every magnitude,
// floats from their bits (a non-finite one NULL, as a harvest stores it),
// strings from a pool or, now and then, new.
func (d *fuzzDraw) value(k glue.Kind, fresh *int) any {
	switch k {
	case glue.String:
		if d.intn(8) == 0 {
			*fresh++
			return fmt.Sprint("new-", *fresh)
		}
		return fmt.Sprint("s", d.intn(12))
	case glue.Int:
		if d.intn(2) == 0 {
			return int64(d.intn(5))
		}
		return d.int64()
	case glue.Float:
		if d.intn(2) == 0 {
			return 0.5 + float64(d.intn(5))/10
		}
		if f := math.Float64frombits(uint64(d.int64())); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
		return nil
	case glue.Time:
		return time.Unix(0, d.int64())
	}
	return nil
}

// FuzzHistoryChunk drives the store and the row model TestDifferential-
// AgainstRowModel uses with operations drawn from the input: samples of
// three groups (String, Int, Float and Time fields) with NULL runs that
// start and stop, row counts that change, late and duplicate samples,
// retention by count and age, and Prune. Every key takes enough samples to
// seal chunks, and every answer — Query, Latest, SampleCount, the running
// totals and the checkpoint view — must be the model's.
func FuzzHistoryChunk(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{200, 100, 0, 0, 0, 0})
	f.Add([]byte{7, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 255, 254, 253})
	groups := []*glue.Group{glue.Memory, glue.OperatingSystem, glue.Processor}
	sources := []string{srcA, srcB}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		d := &fuzzDraw{data: data, rng: rand.New(rand.NewSource(int64(h.Sum64())))}
		now := time.Unix(50000, 0)
		opts := Options{
			MaxAge:           time.Duration(60+d.intn(600)) * time.Second,
			MaxSamplesPerKey: 1 + d.intn(200),
			Clock:            func() time.Time { return now },
		}
		s, model := New(opts), &refStore{opts: opts, data: map[[2]string][]sample{}}
		nullRun := map[*glue.Group][]bool{}
		for _, g := range groups {
			nullRun[g] = make([]bool, len(g.Fields))
		}
		fresh := 0
		for op := 0; op < 500; op++ {
			g, src := groups[d.intn(len(groups))], sources[d.intn(len(sources))]
			what := fmt.Sprintf("op %d (%s, %s)", op, g.Name, src)
			at := now
			switch d.intn(8) {
			case 0:
				at = now.Add(-time.Duration(d.intn(120)) * time.Second) // late, sometimes expired
			case 1:
				at = now.Add(-time.Duration(d.intn(1000)) * time.Millisecond)
			}
			switch k := d.intn(16); {
			case k < 11:
				if d.intn(4) == 0 {
					c := d.intn(len(g.Fields))
					nullRun[g][c] = !nullRun[g][c]
				}
				rows := make([][]any, []int{2, 2, 2, 0, 1, 3}[d.intn(6)])
				for r := range rows {
					rows[r] = make([]any, len(g.Fields))
					for c, field := range g.Fields {
						if !nullRun[g][c] && d.intn(10) > 0 {
							rows[r][c] = d.value(field.Kind, &fresh)
						}
					}
				}
				dedupe := k >= 9
				kept, err := s.record(src, g.Name, rowsRS(t, g, rows), at, dedupe)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if want := model.add(src, g.Name, rows, at, dedupe); dedupe && kept != want {
					t.Fatalf("%s: Load kept = %v, want %v", what, kept, want)
				}
			case k < 14:
				now = now.Add(time.Duration(d.intn(3000)) * time.Millisecond)
			case k == 14:
				if got, want := s.Prune(), model.prune(); got != want {
					t.Fatalf("%s: Prune dropped %d, want %d", what, got, want)
				}
			}
			var since, until time.Time
			if d.intn(2) == 0 {
				since = now.Add(-time.Duration(d.intn(200)) * time.Second)
			}
			if d.intn(2) == 0 {
				until = now.Add(-time.Duration(d.intn(200)) * time.Second)
			}
			sources := []string{src, ""}
			if op%8 != 0 { // every source on every op would spend the run on reads
				sources = sources[:1]
			}
			for _, source := range sources {
				rs, err := s.Query(g.Name, source, since, until)
				if err != nil {
					t.Fatalf("%s: Query: %v", what, err)
				}
				sameRows(t, what+" Query "+source, rs, model.query(g.Name, source, since, until))
			}
			rs, lat, ok := s.Latest(src, g.Name)
			wantRows, wantAt, wantOK := model.latest(src, g.Name)
			if ok != wantOK || !lat.Equal(wantAt) {
				t.Fatalf("%s: Latest = %v %v, want %v %v", what, lat, ok, wantAt, wantOK)
			}
			if ok {
				sameRows(t, what+" Latest", rs, wantRows)
			}
			if got, want := s.SampleCount(src, g.Name), len(model.data[[2]string{src, g.Name}]); got != want {
				t.Fatalf("%s: SampleCount = %d, want %d", what, got, want)
			}
			if keys, samples := s.recount(); s.Keys() != keys || s.TotalSamples() != samples || samples != model.total() {
				t.Fatalf("%s: totals %d/%d, recount %d/%d, model %d samples", what, s.Keys(), s.TotalSamples(), keys, samples, model.total())
			}
		}
		seen := 0
		err := s.View().Each(func(smp *Sample) error {
			samples := model.data[[2]string{smp.Source, smp.Group}]
			for _, sm := range samples {
				if sm.at.Equal(smp.At) && reflect.DeepEqual(boxed(sm.rows), boxed(sampleRows(smp))) {
					seen++
					return nil
				}
			}
			return fmt.Errorf("view sample %s %s %v not in the model", smp.Source, smp.Group, smp.At)
		})
		if err != nil || seen != model.total() {
			t.Fatalf("view: %v, %d samples, model %d", err, seen, model.total())
		}
	})
}

// boxed renders rows for comparison, times by their instant.
func boxed(rows [][]any) string {
	out := ""
	for _, row := range rows {
		for _, v := range row {
			if tv, ok := v.(time.Time); ok {
				v = tv.UnixNano()
			}
			out += fmt.Sprintf("%#v|", v)
		}
		out += "\n"
	}
	return out
}
