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
// is made on its first admission with room for its whole share, so that a
// miss costs one allocation, the copy, and never a map growth; once every
// shard is in use the maps' slots take about 2 MB.
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
)

type shard struct {
	mu    sync.Mutex
	m     map[string]string // nil until the first admission
	bytes int               // the length of the strings in m
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
		sh.m = make(map[string]string, perShard)
	case len(sh.m) >= perShard:
		clear(sh.m)
		sh.bytes = 0
	}
	sh.m[s] = s
	sh.bytes += len(s)
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
	Entries, Bytes int   // what the table holds now
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
		sh.mu.Unlock()
	}
	return st
}
