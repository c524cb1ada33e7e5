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
	"sync/atomic"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/gma"
	"gridrm/internal/resultset"
)

// Store holds a republisher's merged view: for every (site, group) it
// keeps the latest row of every entity (the group's GLUE key fields) each
// source reports. Rows arrive two ways — whole-table snapshots from a scrape,
// and single rows pushed by a subscription. A snapshot replaces the view. A
// pushed row replaces its own entity's rows only: the row its source pushed
// last, and the snapshot's rows of that entity. The snapshot's other rows
// stay until a push of their entity or the next snapshot, so a push of part
// of a site (one source's harvest, a harvest another source timed out of)
// never hides the rest, and an entity is never counted twice.
//
// Every update stamps its view with the next value of one store-wide
// counter, and every removal counts, so a Version names the state of any set
// of views exactly (see Version), and of the whole store.
type Store struct {
	mu    sync.RWMutex
	sites map[string]map[string]*groupView // site → group → view
	// stamp is the last stamp an update gave a view; removals counts
	// RemoveSite calls.
	stamp, removals uint64
	// changes wakes the version watches on every update and removal.
	changes gma.Changes
}

// Version is the state of the views a region answer covers: the newest
// stamp among them and the store's removal count. Both only grow, so any
// update to a covered view, and any view dropped, gives a later Version a
// value no earlier one had. Latest is the store's last stamp, whichever
// view it went to: with Removals it names the state of every view.
type Version struct{ Stamp, Removals, Latest uint64 }

// groupView is one (site, group) slice of the merged view: a scrape's whole
// table (snap, shared read-only) until a row is pushed, then the pushed rows
// and the scraped rows no push has replaced yet.
type groupView struct {
	meta *resultset.Metadata
	snap *resultset.ResultSet
	rows map[string]*storedRow // pushed, by source and GLUE key
	held map[string][][]any    // scraped, by GLUE key
	at   time.Time             // newest update
	// stamp is the store's stamp of the view's latest update.
	stamp uint64
	// built is rows and held as one set, shared by the reads between two
	// pushes as a snapshot is.
	built atomic.Pointer[resultset.ResultSet]
}

func (gv *groupView) len() int {
	if gv.snap != nil {
		return gv.snap.Len()
	}
	n := len(gv.rows)
	for _, rows := range gv.held {
		n += len(rows)
	}
	return n
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
// result, which the store keeps and only ever reads.
func (s *Store) SetSnapshot(site, group string, rs *resultset.ResultSet, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gv := s.view(site, group)
	gv.meta, gv.snap, gv.rows, gv.held, gv.at = rs.Metadata(), rs, nil, nil, at
	gv.built.Store(nil)
	s.stampView(gv)
}

// stampView marks gv updated, with s.mu held for writing.
func (s *Store) stampView(gv *groupView) {
	s.stamp++
	gv.stamp = s.stamp
	s.changes.Notify()
}

// Upsert stores one subscription-pushed row, mapping the pushed columns onto
// the group's full column set. Rows are keyed by source plus the row's GLUE
// key cells, so a re-push of a host replaces its row and every other host of
// a multi-host source keeps its own. The row also replaces the snapshot's
// rows of its entity (see Store). Rows for groups the GLUE schema does not
// know are dropped.
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
	var keyBuf [4]int // no GLUE group has more key fields
	keyCols := keyBuf[:0]
	for i := 0; i < gv.meta.ColumnCount(); i++ {
		if f, ok := g.Field(gv.meta.Column(i).Name); ok && f.Key {
			keyCols = append(keyCols, i)
		}
	}
	if gv.rows == nil {
		gv.hold(keyCols)
	}
	full := widen(gv.meta, cols, row)
	var buf [96]byte // source NUL key cells: on the stack for any realistic row
	key := resultset.AppendGroupKey(append(append(buf[:0], source...), 0), full, keyCols)
	if len(gv.held) > 0 {
		delete(gv.held, string(key[len(source)+1:]))
	}
	if sr := gv.rows[string(key)]; sr != nil {
		sr.row = full
	} else {
		gv.rows[string(key)] = &storedRow{row: full}
	}
	if at.After(gv.at) {
		gv.at = at
	}
	gv.built.Store(nil)
	s.stampView(gv)
}

// hold turns the view's snapshot, ahead of its first pushed row, into held
// rows keyed by their GLUE key cells.
func (gv *groupView) hold(keyCols []int) {
	rs := gv.snap
	gv.snap, gv.rows = nil, make(map[string]*storedRow)
	if rs == nil {
		return
	}
	gv.held = make(map[string][][]any, rs.Len())
	cols := make([]string, rs.Metadata().ColumnCount())
	for c := range cols {
		cols[c] = rs.Metadata().Column(c).Name
	}
	for r := 0; r < rs.Len(); r++ {
		cells := make([]any, len(cols))
		for c := range cells {
			cells[c] = rs.Cell(r, c).Value()
		}
		full := widen(gv.meta, cols, cells)
		key := string(resultset.AppendGroupKey(nil, full, keyCols))
		gv.held[key] = append(gv.held[key], full)
	}
}

// widen maps a row's named cells onto meta's columns.
func widen(meta *resultset.Metadata, cols []string, row []any) []any {
	full := make([]any, meta.ColumnCount())
	for i := range full {
		for j, c := range cols {
			if j < len(row) && strings.EqualFold(c, meta.Column(i).Name) {
				full[i] = row[j]
				break
			}
		}
	}
	return full
}

// RemoveSite drops every view for a site the republisher no longer owns,
// so region answers stop including rows the new owner is now serving.
func (s *Store) RemoveSite(site string) {
	s.mu.Lock()
	delete(s.sites, site)
	s.removals++
	s.changes.Notify()
	s.mu.Unlock()
}

// Version reports the state of the listed sites' views of the group, and
// of the store (Latest).
func (s *Store) Version(group string, sites []string) Version {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version(group, sites)
}

func (s *Store) version(group string, sites []string) Version {
	v := Version{Removals: s.removals, Latest: s.stamp}
	for _, site := range sites {
		if gv, ok := s.sites[site][group]; ok && gv.stamp > v.Stamp {
			v.Stamp = gv.stamp
		}
	}
	return v
}

// SiteFreshness reports per-site row counts and newest update times for
// the given group, for query source statuses and /status.
type SiteFreshness struct {
	Site string    `json:"site"`
	Rows int       `json:"rows"`
	Live bool      `json:"live"`
	At   time.Time `json:"at"`
}

// Parts returns the latest rows of every listed site's view of the group,
// one set a site that has a view, in the order listed, plus per-site
// freshness; a query evaluates over them as one table (sqlparse.ApplyToParts)
// without their being copied into one first. Sites with no view yet simply
// contribute nothing (freshness reports zero rows). meta is the shape of the
// sets, nil when no site has a view of the group — the caller falls back to
// the GLUE schema for an empty answer. A snapshot is handed out as stored,
// since nothing writes to it after SetSnapshot; live rows are built into a
// set on the first read after a push, and the reads until the next push
// share it the same way. Either way the parts do not change under later
// updates, and v, read under the same lock, is the version they are.
func (s *Store) Parts(group string, sites []string) (meta *resultset.Metadata, parts []*resultset.ResultSet, fresh []SiteFreshness, v Version) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v = s.version(group, sites)
	fresh, parts = make([]SiteFreshness, 0, len(sites)), make([]*resultset.ResultSet, 0, len(sites))
	for _, site := range sites {
		sf := SiteFreshness{Site: site}
		if gv, ok := s.sites[site][group]; ok && gv.meta != nil {
			rs := gv.snap
			if rs == nil {
				rs = gv.built.Load()
			}
			if rs == nil { // live rows are the boxes the push border handed over
				b := resultset.NewBuilder(gv.meta).Grow(gv.len(), 0)
				for _, sr := range gv.rows {
					b.Append(sr.row...)
				}
				for _, rows := range gv.held {
					for _, row := range rows {
						b.Append(row...)
					}
				}
				rs, _ = b.Build() // nil for a row the schema refuses: the view is left out
				gv.built.Store(rs)
			}
			if meta == nil {
				meta = gv.meta
			}
			if rs != nil && meta.Conforms(rs.Metadata()) == nil {
				parts = append(parts, rs)
				sf.Rows = rs.Len()
			}
			sf.Live = gv.snap == nil
			sf.At = gv.at
		}
		fresh = append(fresh, sf)
	}
	return meta, parts, fresh, v
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
