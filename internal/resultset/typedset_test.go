package resultset_test

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/qcache"
	"gridrm/internal/resultset"
	"gridrm/internal/web"
)

// model is the reference a typed ResultSet is compared with: the rows as
// plain [][]any, and every operation written the obvious way over them.
type model struct {
	cols []resultset.Column
	rows [][]any
}

var kinds = []glue.Kind{glue.String, glue.Int, glue.Float, glue.Bool, glue.Time}

// draw returns a random value of kind k; now and then a Float is not finite,
// which the model holds as NULL like every route must.
func draw(rng *rand.Rand, k glue.Kind) any {
	switch k {
	case glue.String:
		return []string{"", "a", "b", "node-7", "n\"q<é"}[rng.Intn(5)]
	case glue.Int:
		return []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64}[rng.Intn(6)]
	case glue.Float:
		return []float64{0, 1, 2.5, -3e-9, 1e21, math.NaN(), math.Inf(1)}[rng.Intn(7)]
	case glue.Bool:
		return rng.Intn(2) == 0
	}
	zone := []*time.Location{time.UTC, time.FixedZone("", 3600), time.FixedZone("", -9000)}[rng.Intn(3)]
	return time.Unix(rng.Int63n(2e9), rng.Int63n(1e9)).In(zone)
}

func modelValue(v any) any {
	if f, ok := v.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
		return nil
	}
	return v
}

// pair builds the same random rows as a typed set and as a model. pattern
// picks where the NULLs of each column fall.
func pair(t *testing.T, rng *rand.Rand, cols []resultset.Column, n int) (*resultset.ResultSet, *model) {
	t.Helper()
	meta, err := resultset.NewMetadata(cols)
	if err != nil {
		t.Fatal(err)
	}
	b, m := resultset.NewBuilder(meta), &model{cols: cols}
	patterns := make([]int, len(cols))
	for c := range patterns {
		patterns[c] = rng.Intn(5)
	}
	for r := 0; r < n; r++ {
		row, want := make([]any, len(cols)), make([]any, len(cols))
		for c, col := range cols {
			null := false
			switch patterns[c] {
			case 1: // all NULL
				null = true
			case 2: // NULLs after values
				null = r >= n/2
			case 3: // values after NULLs
				null = r < n/2
			case 4:
				null = rng.Intn(3) == 0
			}
			if !null {
				row[c] = draw(rng, col.Kind)
				want[c] = modelValue(row[c])
			}
		}
		b.Append(row...)
		m.rows = append(m.rows, want)
	}
	rs, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return rs, m
}

// compareRef is the reference order: NULL first, numbers by value, the rest
// naturally. Columns are of one kind, so no cross-kind case arises.
func compareRef(a, b any) int {
	switch x := a.(type) {
	case nil:
		if b == nil {
			return 0
		}
		return -1
	case string:
		if b != nil {
			return strings.Compare(x, b.(string))
		}
	case int64:
		if y, ok := b.(int64); ok {
			return cmp.Compare(x, y)
		}
	case float64:
		if y, ok := b.(float64); ok {
			return cmp.Compare(x, y)
		}
	case bool:
		if y, ok := b.(bool); ok {
			return cmp.Compare(btoi(x), btoi(y))
		}
	case time.Time:
		if y, ok := b.(time.Time); ok {
			return x.Compare(y)
		}
	}
	return 1 // b is NULL
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sameValue(a, b any) bool {
	if ta, ok := a.(time.Time); ok {
		tb, ok := b.(time.Time)
		return ok && ta.Equal(tb) && ta.Format(time.RFC3339Nano) == tb.Format(time.RFC3339Nano)
	}
	return a == b
}

// check compares a typed set with its model: the cells by value, the boxed
// view, the typed getters and the bytes the encoder writes.
func check(t *testing.T, what string, rs *resultset.ResultSet, m *model) {
	t.Helper()
	if rs.Len() != len(m.rows) || rs.Metadata().ColumnCount() != len(m.cols) {
		t.Fatalf("%s: %d rows × %d columns, want %d × %d", what, rs.Len(), rs.Metadata().ColumnCount(), len(m.rows), len(m.cols))
	}
	cur := rs.Clone()
	for r, want := range m.rows {
		cur.Next()
		row := rs.RowAt(r)
		for c, w := range want {
			if got := rs.Cell(r, c).Value(); !sameValue(got, w) || !sameValue(row[c], w) || rs.Null(r, c) != (w == nil) {
				t.Fatalf("%s: row %d column %d (%s): cell %#v (null %v), boxed %#v, want %#v", what, r, c, m.cols[c].Kind, got, rs.Null(r, c), row[c], w)
			}
			name := m.cols[c].Name
			s, err := cur.GetString(name)
			if wantS := refString(w); err != nil || s != wantS || cur.WasNull() != (w == nil) {
				t.Fatalf("%s: row %d GetString(%s) = %q, %v (null %v), want %q", what, r, name, s, err, cur.WasNull(), wantS)
			}
			if f, ok := w.(float64); ok {
				if got, err := cur.GetFloat(name); err != nil || got != f {
					t.Fatalf("%s: row %d GetFloat(%s) = %v, %v, want %v", what, r, name, got, err, f)
				}
			}
			if i, ok := w.(int64); ok {
				if got, err := cur.GetInt(name); err != nil || got != i {
					t.Fatalf("%s: row %d GetInt(%s) = %v, %v, want %v", what, r, name, got, err, i)
				}
			}
		}
	}
	got, err := json.Marshal(web.WireResult{ResultSet: rs})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want := refJSON(m); !bytes.Equal(got, want) {
		t.Fatalf("%s: encoded\n%s\nwant\n%s", what, got, want)
	}
}

func refString(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case float64:
		return fmt.Sprintf("%g", x)
	case time.Time:
		return x.Format(time.RFC3339)
	}
	return fmt.Sprint(v)
}

// refJSON writes the wire form of the model with encoding/json alone.
func refJSON(m *model) []byte {
	type column struct {
		Name  string `json:"name"`
		Kind  string `json:"kind"`
		Unit  string `json:"unit,omitempty"`
		Group string `json:"group,omitempty"`
	}
	out := struct {
		Columns []column `json:"columns"`
		Rows    [][]any  `json:"rows"`
	}{Columns: []column{}, Rows: [][]any{}}
	for _, c := range m.cols {
		out.Columns = append(out.Columns, column{c.Name, c.Kind.String(), c.Unit, c.Group})
	}
	for _, row := range m.rows {
		cells := make([]any, len(row))
		for c, v := range row {
			if t, ok := v.(time.Time); ok {
				v = t.Format(time.RFC3339Nano)
			}
			cells[c] = v
		}
		out.Rows = append(out.Rows, cells)
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return b
}

// TestTypedSetAgainstRowModel drives random sequences of every operation
// over random schemas of all five kinds and every NULL pattern — none, all,
// NULLs after values, values after NULLs, scattered; 63, 64 and 65 rows for
// the validity bitmap's word edge — and compares each result with the same
// operation over plain rows.
func TestTypedSetAgainstRowModel(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 150; round++ {
		cols := make([]resultset.Column, 1+rng.Intn(7))
		for c := range cols {
			cols[c] = resultset.Column{Name: fmt.Sprintf("C%d", c), Kind: kinds[rng.Intn(len(kinds))]}
		}
		n := []int{0, 1, 2, 7, 63, 64, 65, 130}[rng.Intn(8)]
		rs, m := pair(t, rng, cols, n)
		what := fmt.Sprintf("round %d (%d rows)", round, n)
		check(t, what, rs, m)
		for step := 0; step < 6; step++ {
			col := rng.Intn(len(m.cols))
			switch op := rng.Intn(6); op {
			case 0: // Merge into a set of one's own, as consolidation does
				other, om := pair(t, rng, m.cols, []int{0, 1, 3, 64}[rng.Intn(4)])
				merged := resultset.New(rs.Metadata())
				if rng.Intn(2) == 0 {
					merged.Grow(rs.Len() + other.Len())
				}
				if err := merged.Merge(rs); err != nil {
					t.Fatal(err)
				}
				if err := merged.Merge(other); err != nil {
					t.Fatal(err)
				}
				rs, m = merged, &model{cols: m.cols, rows: append(append([][]any(nil), m.rows...), om.rows...)}
				what += " merge"
			case 1: // Where: keep the rows whose cell is not NULL, or every third as well
				byRow := rng.Intn(2) == 0
				keep := func(r int) bool { return m.rows[r][col] != nil || !byRow && r%3 == 0 }
				var rows [][]any
				for r := range m.rows {
					if keep(r) {
						rows = append(rows, m.rows[r])
					}
				}
				rs = rs.Where(keep)
				m = &model{cols: m.cols, rows: rows}
				what += " where"
			case 2: // SortedBy, stable
				desc := rng.Intn(2) == 0
				rows := append([][]any(nil), m.rows...)
				sort.SliceStable(rows, func(a, b int) bool {
					if desc {
						a, b = b, a
					}
					return compareRef(rows[a][col], rows[b][col]) < 0
				})
				sorted, err := rs.SortedBy(m.cols[col].Name, desc)
				if err != nil {
					t.Fatal(err)
				}
				rs, m = sorted, &model{cols: m.cols, rows: rows}
				what += " sort"
			case 3: // Limit
				k := rng.Intn(len(m.rows)+2) - 1
				rows := m.rows
				if k >= 0 && k < len(rows) {
					rows = rows[:k]
				}
				rs, m = rs.Limit(k), &model{cols: m.cols, rows: rows}
				what += " limit"
			case 4: // Project onto a shuffled subset
				perm := rng.Perm(len(m.cols))[:1+rng.Intn(len(m.cols))]
				pm, names := &model{}, []string{}
				for _, c := range perm {
					pm.cols = append(pm.cols, m.cols[c])
					names = append(names, m.cols[c].Name)
				}
				for _, row := range m.rows {
					pr := make([]any, len(perm))
					for i, c := range perm {
						pr[i] = row[c]
					}
					pm.rows = append(pm.rows, pr)
				}
				projected, err := rs.Project(names)
				if err != nil {
					t.Fatal(err)
				}
				rs, m = projected, pm
				what += " project"
			case 5: // group keys: two rows share a key exactly when their cells are equal
				keys := map[string]int{}
				for r := range m.rows {
					key := string(resultset.AppendCellKey(nil, rs.Cell(r, col)))
					if first, seen := keys[key]; seen && compareRef(m.rows[first][col], m.rows[r][col]) != 0 {
						t.Fatalf("%s: rows %d and %d share a key, cells %#v and %#v", what, first, r, m.rows[first][col], m.rows[r][col])
					} else if !seen {
						for k, other := range keys {
							if compareRef(m.rows[other][col], m.rows[r][col]) == 0 {
								t.Fatalf("%s: rows %d and %d hold %#v under keys %q and %q", what, other, r, m.rows[r][col], k, key)
							}
						}
						keys[key] = r
					}
				}
			}
			check(t, what, rs, m)
		}
	}
}

// TestTypedSetSharedReaders is the shared-immutable contract for columns,
// for -race: eight goroutines read one cached set — the boxed view, typed
// getters on a clone each, and the encoder — while a poller keeps putting
// the source's next harvest in its place.
func TestTypedSetSharedReaders(t *testing.T) {
	meta, err := resultset.MetadataForGroup(glue.Processor, nil)
	if err != nil {
		t.Fatal(err)
	}
	harvest := func(stamp int64) *resultset.ResultSet {
		b := resultset.NewBuilder(meta)
		for _, h := range []string{"h-a", "h-b", "h-c"} {
			row := make([]any, meta.ColumnCount())
			row[0], row[3], row[6] = h, stamp, float64(stamp)
			b.Append(row...)
		}
		rs, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	cache := qcache.New(qcache.Options{TTL: time.Hour})
	cache.Put("src", "sql", harvest(0))
	stop := make(chan struct{})
	var poller, readers sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for stamp := int64(1); ; stamp++ {
			select {
			case <-stop:
				return
			default:
				cache.Put("src", "sql", harvest(stamp))
				runtime.Gosched()
			}
		}
	}()
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				rs, _, ok := cache.Get("src", "sql")
				if !ok {
					t.Error("cache miss")
					return
				}
				stamp := rs.RowAt(0)[3]
				for r := 0; r < rs.Len(); r++ {
					if row := rs.RowAt(r); row[3] != stamp || row[6] != float64(stamp.(int64)) || row[1] != nil {
						t.Errorf("row %d = %v: not of the harvest stamped %v", r, row, stamp)
						return
					}
				}
				for cur := rs.Clone(); cur.Next(); {
					if n, err := cur.GetInt("ClockSpeed"); err != nil || n != stamp {
						t.Errorf("GetInt = %v, %v, want %v", n, err, stamp)
						return
					}
				}
				body, err := json.Marshal(web.WireResult{ResultSet: rs})
				if err != nil || !bytes.Contains(body, []byte(fmt.Sprintf(`["h-c",null,null,%d,`, stamp))) {
					t.Errorf("encoded %s, %v", body, err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	poller.Wait()
}

var footprint *resultset.ResultSet

// TestSmallSetFootprint guards the fixed cost of a set: what drivers produce
// and the query cache holds are one- and two-row sets, thousands of them. A
// one-row Processor harvest built through Builder.Append, two of its ten
// cells not NULL as the benchmark's fleet reports them, took 3 allocations
// and 280 bytes while a set was a row index over one boxed row. It takes 4
// and 360 now — the set, the headers of the two columns that hold values,
// and their two arrays — and must take no more: a header for every column,
// live or not, would make it 1,256 bytes.
func TestSmallSetFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	meta, err := resultset.MetadataForGroup(glue.Processor, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]any, meta.ColumnCount())
	row[0], row[6] = "host-a", 1.5
	build := func() { footprint, _ = resultset.NewBuilder(meta).Append(row...).Build() }
	if allocs := testing.AllocsPerRun(1000, build); allocs > 4 {
		t.Errorf("a one-row harvest takes %.0f allocations, want ≤ 4", allocs)
	}
	// The least of a few batches: TotalAlloc is the process's, and whatever
	// else allocates meanwhile only adds to it.
	const runs = 1000
	bytes := math.Inf(1)
	for batch := 0; batch < 5; batch++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	if bytes > 360 {
		t.Errorf("a one-row harvest takes %.0f bytes, want ≤ 360 (1.29 × the 280 of a boxed row)", bytes)
	}
}
