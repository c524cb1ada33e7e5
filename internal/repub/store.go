// Package repub implements GridRM's republisher gateway: an intermediate
// node in the hierarchical federation that subscribes to a shard of child
// sites (falling back to periodic scrapes), maintains a merged
// near-real-time view of their rows, and answers region-level queries
// locally. An all-sites query at the entry gateway then fans out to the
// republishers — a tree of partial aggregates — instead of to every site,
// which is R-GMA's republisher design applied to GridRM's servlet layer.
package repub

import (
	"strings"
	"sync"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// Store holds a republisher's merged view: for every (site, group) it
// keeps the latest row of every entity (the group's GLUE key fields) each
// source reports. Rows arrive two ways — whole-table
// snapshots from a scrape, and single rows pushed by a subscription — and
// the two never mix within a group: the first live row after a snapshot
// clears the snapshot, because once the push feed is up every active
// source republishes within one harvest period and the live set converges
// to full coverage without the risk of double-counting stale snapshot rows
// in aggregates.
type Store struct {
	mu    sync.RWMutex
	sites map[string]map[string]*groupView // site → group → view
}

// groupView is one (site, group) slice of the merged view: a scrape's whole
// table (snap, shared read-only) or the rows the subscription pushed, never
// both.
type groupView struct {
	meta *resultset.Metadata
	snap *resultset.ResultSet
	rows map[string]*storedRow
	at   time.Time // newest update
}

func (gv *groupView) len() int {
	if gv.snap != nil {
		return gv.snap.Len()
	}
	return len(gv.rows)
}

// storedRow is a map value Upsert can replace the row of in place: a
// re-pushed row then costs a lookup, not a new key string.
type storedRow struct{ row []any }

// NewStore returns an empty view store.
func NewStore() *Store {
	return &Store{sites: make(map[string]map[string]*groupView)}
}

func (s *Store) view(site, group string) *groupView {
	groups, ok := s.sites[site]
	if !ok {
		groups = make(map[string]*groupView)
		s.sites[site] = groups
	}
	gv, ok := groups[group]
	if !ok {
		gv = &groupView{}
		groups[group] = gv
	}
	return gv
}

// SetSnapshot replaces the (site, group) view with a scraped full-table
// result, which the store keeps and only ever reads. The view leaves live
// mode: the snapshot is now authoritative.
func (s *Store) SetSnapshot(site, group string, rs *resultset.ResultSet, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gv := s.view(site, group)
	gv.meta, gv.snap, gv.rows, gv.at = rs.Metadata(), rs, nil, at
}

// Upsert stores one subscription-pushed row, mapping the pushed columns onto
// the group's full column set. Rows are keyed by source plus the row's GLUE
// key cells, so a re-push of a host replaces its row and every other host of
// a multi-host source keeps its own. The first live row
// after a snapshot clears the snapshot (see Store). Rows for groups the
// GLUE schema does not know are dropped.
func (s *Store) Upsert(site, group, source string, cols []string, row []any, at time.Time) {
	g, ok := glue.Lookup(group)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	gv := s.view(site, group)
	if gv.meta == nil || gv.meta.ColumnCount() != len(g.Fields) {
		meta, err := resultset.MetadataForGroup(g, nil)
		if err != nil {
			return
		}
		gv.meta = meta
	}
	if gv.rows == nil {
		gv.snap, gv.rows = nil, make(map[string]*storedRow, gv.len())
	}
	full := make([]any, gv.meta.ColumnCount())
	var keyBuf [4]int // no GLUE group has more key fields
	keyCols := keyBuf[:0]
	for i := 0; i < gv.meta.ColumnCount(); i++ {
		name := gv.meta.Column(i).Name
		if f, ok := g.Field(name); ok && f.Key {
			keyCols = append(keyCols, i)
		}
		for j, c := range cols {
			if j < len(row) && strings.EqualFold(c, name) {
				full[i] = row[j]
				break
			}
		}
	}
	var buf [96]byte // source NUL key cells: on the stack for any realistic row
	key := resultset.AppendGroupKey(append(append(buf[:0], source...), 0), full, keyCols)
	if sr := gv.rows[string(key)]; sr != nil {
		sr.row = full
	} else {
		gv.rows[string(key)] = &storedRow{row: full}
	}
	if at.After(gv.at) {
		gv.at = at
	}
}

// RemoveSite drops every view for a site the republisher no longer owns,
// so region answers stop including rows the new owner is now serving.
func (s *Store) RemoveSite(site string) {
	s.mu.Lock()
	delete(s.sites, site)
	s.mu.Unlock()
}

// SiteFreshness reports per-site row counts and newest update times for
// the given group, for query source statuses and /status.
type SiteFreshness struct {
	Site string    `json:"site"`
	Rows int       `json:"rows"`
	Live bool      `json:"live"`
	At   time.Time `json:"at"`
}

// Merged builds one ResultSet holding the latest rows of every listed site
// for the group, plus per-site freshness. Sites with no view yet simply
// contribute nothing (freshness reports zero rows). ok is false when no
// site has metadata for the group — the caller falls back to the GLUE
// schema for an empty answer. The answer holds copies of the stored rows'
// cells, so it does not change under later updates.
func (s *Store) Merged(group string, sites []string) (*resultset.ResultSet, []SiteFreshness, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, site := range sites {
		if gv, ok := s.sites[site][group]; ok {
			total += gv.len()
		}
	}
	var out *resultset.ResultSet
	fresh := make([]SiteFreshness, 0, len(sites))
	for _, site := range sites {
		sf := SiteFreshness{Site: site}
		if gv, ok := s.sites[site][group]; ok && gv.meta != nil {
			if out == nil {
				out = resultset.New(gv.meta)
				out.Grow(total)
			}
			rs, err := gv.snap, error(nil)
			if rs == nil { // live rows are the boxes the push border handed over
				b := resultset.NewBuilder(gv.meta).Grow(len(gv.rows), 0)
				for _, sr := range gv.rows {
					b.Append(sr.row...)
				}
				rs, err = b.Build()
			}
			if err == nil && out.Merge(rs) == nil {
				sf.Rows = rs.Len()
			}
			sf.Live = gv.snap == nil
			sf.At = gv.at
		}
		fresh = append(fresh, sf)
	}
	return out, fresh, out != nil
}

// Rows counts the stored rows across every view, for /status.
func (s *Store) Rows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, groups := range s.sites {
		for _, gv := range groups {
			n += gv.len()
		}
	}
	return n
}
