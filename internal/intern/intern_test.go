package intern

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

var runs atomic.Int64

// unseen returns a name with the given prefix that no earlier call, in
// this or an earlier -count run, has returned.
func unseen(prefix string) string {
	return fmt.Sprintf("%s-%d-%d", prefix, time.Now().UnixNano(), runs.Add(1))
}

// TestHitAllocatesNothing: a name the table holds comes back as the same
// string, with no allocation; a new one costs one, at its exact size.
func TestHitAllocatesNothing(t *testing.T) {
	want := unseen("gridrm:sim://hit")
	name := []byte(want)
	var bt Batch
	first, ok := bt.Bytes(name)
	if !ok || first != want {
		t.Fatalf("Bytes(%q) = %q, %v", name, first, ok)
	}
	name[0] = 'X' // the table's string owns its memory
	if first != want {
		t.Fatalf("interned string changed with its source bytes: %q", first)
	}
	name[0] = want[0]
	var again string
	if allocs := testing.AllocsPerRun(100, func() { again, _ = bt.Bytes(name) }); allocs != 0 {
		t.Errorf("a hit took %v allocations, want 0", allocs)
	}
	if unsafe.StringData(again) != unsafe.StringData(first) {
		t.Error("a hit returned a copy, not the table's string")
	}
	// Once every shard has its map, a miss costs its one copy.
	var fill Batch
	for i := 0; i < 16*shards; i++ {
		if _, ok := fill.Bytes([]byte("shard-fill-" + strconv.Itoa(i))); !ok {
			fill.Done()
		}
	}
	fill.Done()
	var fresh [21][]byte
	for i := range fresh {
		fresh[i] = []byte(unseen("miss"))
	}
	i := 0
	miss := testing.AllocsPerRun(20, func() {
		var bt Batch
		bt.Bytes(fresh[i])
		i++
	})
	if miss != 1 {
		t.Errorf("a miss took %v allocations, want its one copy", miss)
	}
}

// TestLengthCap: a string longer than MaxLen never enters the table, and one
// of MaxLen bytes does.
func TestLengthCap(t *testing.T) {
	if MaxLen != 64 {
		t.Errorf("MaxLen = %d, want 64 (DESIGN.md §8)", MaxLen)
	}
	var bt Batch
	long := make([]byte, MaxLen+1)
	for i := range long {
		long[i] = 'l'
	}
	if s, ok := bt.Bytes(long); ok || s != "" {
		t.Errorf("a %d-byte string was taken: %q, %v", len(long), s, ok)
	}
	if s, ok := bt.Bytes(long[:MaxLen]); !ok || s != string(long[:MaxLen]) {
		t.Errorf("a %d-byte string was refused: %q, %v", MaxLen, s, ok)
	}
	if s, ok := bt.Bytes(nil); !ok || s != "" {
		t.Errorf("the empty string: %q, %v", s, ok)
	}
}

// TestAdmissionCap: one batch admits Admit new strings and refuses the next
// new one, while it still finds what the table holds; the next batch admits
// again.
func TestAdmissionCap(t *testing.T) {
	if Admit != 64 {
		t.Errorf("Admit = %d, want 64 (DESIGN.md §8)", Admit)
	}
	var bt Batch
	var first string
	for i := 0; i < Admit; i++ {
		name := unseen("admit")
		if _, ok := bt.Bytes([]byte(name)); !ok {
			t.Fatalf("new string %d of a batch refused, want Admit = %d taken", i, Admit)
		}
		if i == 0 {
			first = name
		}
	}
	past := []byte(unseen("past-the-cap"))
	if s, ok := bt.Bytes(past); ok {
		t.Errorf("string %d of a batch was admitted: %q", Admit+1, s)
	}
	if s, ok := bt.Bytes([]byte(first)); !ok || s != first {
		t.Errorf("a batch past its cap lost a hit: %q, %v", s, ok)
	}
	bt.Done()
	if _, ok := bt.Bytes(past); !ok {
		t.Error("a batch made ready by Done refused its first new string")
	}
}

// TestCountedOncePerBatch: hits and misses reach the process counters at
// Done, not before.
func TestCountedOncePerBatch(t *testing.T) {
	var bt Batch
	name := []byte(unseen("counted"))
	start := Read()
	bt.Bytes(name)
	bt.Bytes(name)
	bt.Bytes(name)
	before := Read()
	if before.Hits != start.Hits || before.Misses != start.Misses {
		t.Errorf("lookups reached the counters before Done: %+v, then %+v", start, before)
	}
	bt.Done()
	after := Read()
	if d := after.Hits - before.Hits; d < 2 {
		t.Errorf("Done added %d hits, want the batch's 2", d)
	}
	if d := after.Misses - before.Misses; d < 1 {
		t.Errorf("Done added %d misses, want the batch's 1", d)
	}
}

// TestBoundedUnderDistinctStream: a million strings no one repeats never make
// the table hold more than Entries strings or Entries×MaxLen bytes.
func TestBoundedUnderDistinctStream(t *testing.T) {
	if Entries != 32<<10 {
		t.Errorf("Entries = %d, want 32 Ki (DESIGN.md §8)", Entries)
	}
	var bt Batch
	buf := make([]byte, 0, MaxLen)
	for i := 0; i < 1_000_000; i++ {
		// Lengths vary up to MaxLen, so the byte bound is reached too.
		buf = strconv.AppendInt(append(buf[:0], "distinct-"...), int64(i), 10)
		for len(buf) < 16+i%(MaxLen-16) {
			buf = append(buf, '.')
		}
		if _, ok := bt.Bytes(buf); !ok {
			bt.Done()
			bt.Bytes(buf)
		}
		if i%10_000 == 0 || i == 999_999 {
			// Bytes adds the maps' slots to the strings; at most every shard
			// has grown its map to its whole share.
			if st, strs := Read(), stringBytes(); st.Entries > Entries || strs > Entries*MaxLen ||
				st.Bytes > Entries*MaxLen+shards*mapBytes(perShard) {
				t.Fatalf("after %d strings the table holds %d strings, %d bytes of them, %d in all; want ≤ %d, ≤ %d, ≤ %d",
					i+1, st.Entries, strs, st.Bytes, Entries, Entries*MaxLen, Entries*MaxLen+shards*mapBytes(perShard))
			}
		}
	}
	bt.Done()
	// A shard that fills is cleared, so a full table averages half its bound.
	if st := Read(); st.Entries < Entries/4 {
		t.Errorf("after a million strings the table holds %d, want it about half its bound %d", st.Entries, Entries)
	}
}

// TestConcurrentBatchesGetTheirStrings: decoders whose names overlap, enough
// of them to reset shards while others read, each get back exactly the
// string they asked for. Run it under -race.
func TestConcurrentBatchesGetTheirStrings(t *testing.T) {
	const workers, names = 8, 3 * Entries / 2 // more names than the table holds
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var bt Batch
			buf := make([]byte, 0, MaxLen)
			for i := 0; i < names/2; i++ {
				// Each worker walks half the names from its own offset, so
				// every name is asked for by several workers.
				n := (w*names/workers + i) % names
				buf = strconv.AppendInt(append(buf[:0], "race-"...), int64(n), 10)
				s, ok := bt.Bytes(buf)
				if ok && s != string(buf) {
					t.Errorf("asked for %q, got %q", buf, s)
					return
				}
				if i%Admit == 0 {
					bt.Done()
				}
			}
			bt.Done()
		}(w)
	}
	wg.Wait()
	if st := Read(); st.Entries > Entries {
		t.Errorf("the table holds %d strings, want ≤ %d", st.Entries, Entries)
	}
}

// stringBytes is the length of the strings the table holds.
func stringBytes() int {
	n := 0
	for i := range table.shards {
		sh := &table.shards[i]
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// resetTable empties the table as a new process finds it, maps and all, and
// again when the test ends, so no later test inherits a table near a
// growth.
func resetTable(t *testing.T) {
	reset := func() {
		for i := range table.shards {
			sh := &table.shards[i]
			sh.mu.Lock()
			sh.m, sh.bytes, sh.high = nil, 0, 0
			sh.mu.Unlock()
		}
	}
	reset()
	t.Cleanup(reset)
}

// liveHeap is the heap's live bytes after a collection.
func liveHeap() int {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int(ms.HeapAlloc)
}

// admit puts name in the table, starting a new batch when this one is
// past its cap.
func admit(bt *Batch, name []byte) {
	if _, ok := bt.Bytes(name); !ok {
		bt.Done()
		bt.Bytes(name)
	}
}

// TestLightUseRetainsLittle: a table with one name in every shard — every
// map made — retains a few KB a shard. Made for its whole share, each map
// took 40 KB, 2.6 MB over the table.
func TestLightUseRetainsLittle(t *testing.T) {
	resetTable(t)
	before := liveHeap()
	var bt Batch
	buf := make([]byte, 0, MaxLen)
	var used [shards]bool
	for i, n := 0, 0; n < shards; i++ {
		buf = strconv.AppendInt(append(buf[:0], "one-a-shard-"...), int64(i), 10)
		if k := maphash.Bytes(table.seed, buf) % shards; !used[k] {
			used[k] = true
			n++
			admit(&bt, buf)
		}
	}
	bt.Done()
	grew, st := liveHeap()-before, Read()
	t.Logf("%d names, one a shard: the heap grew %d bytes, the table reports %d", st.Entries, grew, st.Bytes)
	if st.Entries != shards {
		t.Fatalf("the table holds %d names, want %d", st.Entries, shards)
	}
	if bound := 512 << 10; grew > bound {
		t.Errorf("one name a shard retains %d bytes, want ≤ %d (a whole share a map is %d)", grew, bound, shards*mapBytes(perShard))
	}
}

// TestReportedBytesMatchTheHeap: what Read reports the table retains — its
// strings and its maps' slots — is what the heap grows by when the table
// fills from empty, within 10 %. The names are 16 bytes, a size class of
// their own, so the heap holds no more of them than their length.
func TestReportedBytesMatchTheHeap(t *testing.T) {
	resetTable(t)
	before := liveHeap()
	var bt Batch
	buf := make([]byte, 0, 16)
	// 128 names a shard on average: some shards grow their maps once,
	// some twice, and a few not at all.
	for i := 0; i < 128*shards; i++ {
		buf = strconv.AppendInt(append(buf[:0], "ledger-"...), int64(100_000_000+i), 10)
		admit(&bt, buf)
	}
	bt.Done()
	grew, st := liveHeap()-before, Read()
	t.Logf("%d names: the heap grew %d bytes, the table reports %d (%d of strings)", st.Entries, grew, st.Bytes, stringBytes())
	if d := float64(st.Bytes-grew) / float64(grew); d < -0.10 || d > 0.10 {
		t.Errorf("the table reports %d bytes, the heap grew %d (%+.1f %%), want within 10 %%", st.Bytes, grew, 100*d)
	}
}
