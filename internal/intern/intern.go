// Package intern is one bounded, process-wide table of short strings: the
// host names, source URLs and driver names that every answer on the wire
// repeats, hop after hop. A decoder asks it for the string a run of bytes
// spells. A hit allocates nothing; a miss copies the bytes once, at their
// exact size, and admits the copy. Every string the table hands out owns its
// memory, so nothing it returns points into a caller's buffer.
//
// The table is bounded three ways, each a constant: it holds at most
// Entries strings, none longer than MaxLen bytes, and one Batch — one
// decoded message — admits at most Admit of them. A shard that fills is
// cleared and refills from what the next decodes read, so a stream of names
// never seen twice costs the table its hits, never its bound. A shard's map
// is made on its first admission for an eighth of its share, which the
// Admit names of one decode cannot outgrow, so a cold decode's misses cost
// one allocation each, the copy; a shard that holds more names doubles its
// map, up to its share. A table in light use holds about 5 KB of slots a
// shard, 310 KB in all; one whose every shard has filled holds about 2.6 MB.
package intern

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

const (
	// Entries is the most strings the table holds.
	Entries = 32 << 10
	// MaxLen is the longest string the table takes, in bytes. A longer
	// one is a message, not a name, and stays with its caller.
	MaxLen = 64
	// Admit is the most strings one Batch adds to the table. A message
	// full of names no later one repeats churns at most this much of it.
	Admit = 64

	shards   = 64
	perShard = Entries / shards
	presize  = perShard / 8 // a new shard map's size hint: Admit names never grow it

	// slotBytes is what one slot of a shard's map costs: its key's and its
	// value's string headers (32 bytes), a control byte, and the
	// allocator's rounding of the slot array up to its size class, about
	// 15 %.
	slotBytes = 38
)

type shard struct {
	mu    sync.Mutex
	m     map[string]string // nil until the first admission
	bytes int               // the length of the strings in m
	high  int               // the most strings m has held: clear keeps its slots
}

// mapBytes estimates the slots of a map made for presize entries that has
// held at most n: the map doubles whenever its entries pass 7/8 of its
// slots, from the power of two it was made with, and a clear keeps them all.
func mapBytes(n int) int {
	n = max(n, presize)
	slots := 8
	for slots*7/8 < n {
		slots *= 2
	}
	return slots * slotBytes
}

var table struct {
	seed         maphash.Seed
	shards       [shards]shard
	hits, misses atomic.Int64
}

func init() { table.seed = maphash.MakeSeed() }

// A Batch is one message's lookups. It bounds what the message admits, and
// its hits and misses reach the process counters once, at Done, not once a
// string. The zero Batch is ready for use; a Batch is not safe for
// concurrent use, but any number of them may share the table.
type Batch struct {
	hits, misses, admitted int
}

// Bytes returns the string b spells. It reports false, and leaves b to the
// caller, when b is longer than MaxLen or when it is new and the batch has
// admitted Admit strings already.
func (bt *Batch) Bytes(b []byte) (string, bool) {
	if len(b) > MaxLen {
		return "", false
	}
	if len(b) == 0 {
		return "", true
	}
	sh := &table.shards[maphash.Bytes(table.seed, b)%shards]
	sh.mu.Lock()
	s, ok := sh.m[string(b)]
	sh.mu.Unlock()
	if ok {
		bt.hits++
		return s, true
	}
	bt.misses++
	if bt.admitted == Admit {
		return "", false
	}
	bt.admitted++
	s = string(b)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if won, ok := sh.m[s]; ok {
		return won, true // another batch admitted it meanwhile
	}
	switch {
	case sh.m == nil:
		sh.m = make(map[string]string, presize)
	case len(sh.m) >= perShard:
		clear(sh.m)
		sh.bytes = 0
	}
	sh.m[s] = s
	sh.bytes += len(s)
	sh.high = max(sh.high, len(sh.m))
	return s, true
}

// Done adds the batch's hits and misses to the process counters and makes
// it ready for the next message.
func (bt *Batch) Done() {
	if bt.hits > 0 {
		table.hits.Add(int64(bt.hits))
	}
	if bt.misses > 0 {
		table.misses.Add(int64(bt.misses))
	}
	*bt = Batch{}
}

// Stats is the table's state as the gridrm_intern_* series report it.
type Stats struct {
	// Entries is the strings the table holds now. Bytes is what it
	// retains: their bytes plus an estimate of its maps' slots, sized by
	// the most strings each shard has held.
	Entries, Bytes int
	Hits, Misses   int64 // lookups since the process started
}

// Read returns the table's state. The counts include only batches that are
// done.
func Read() Stats {
	st := Stats{Hits: table.hits.Load(), Misses: table.misses.Load()}
	for i := range table.shards {
		sh := &table.shards[i]
		sh.mu.Lock()
		st.Entries += len(sh.m)
		st.Bytes += sh.bytes
		if sh.m != nil {
			st.Bytes += mapBytes(sh.high)
		}
		sh.mu.Unlock()
	}
	return st
}
