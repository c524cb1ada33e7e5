package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/history"
	"gridrm/internal/resultset"
	"gridrm/internal/router"
	"gridrm/internal/sim"
)

// truth is the ground-truth oracle: every expectation is computed from the
// generated sim.Fleet, never from anything a gateway said. It scores
// responses after the latency clock has stopped.
type truth struct {
	fleet     *sim.Fleet
	hostSrc   map[string]*sim.FleetSource // HostName -> owning source
	siteHosts map[string]int
	hosts     int
	sumBase   float64         // sum over hosts of their source's BaseLoad
	ramCount  map[int64]int64 // RAMSize -> hosts
	ramAvail  map[int64]int64 // RAMSize -> sum of RAMAvailable
}

func newTruth(f *sim.Fleet) *truth {
	t := &truth{fleet: f, hostSrc: map[string]*sim.FleetSource{}, siteHosts: map[string]int{},
		ramCount: map[int64]int64{}, ramAvail: map[int64]int64{}}
	for _, site := range f.Sites() {
		for _, src := range f.SiteSources(site) {
			for _, h := range src.Hosts {
				t.hostSrc[h] = src
				t.siteHosts[site]++
				t.hosts++
				t.sumBase += src.BaseLoad
				t.ramCount[src.RAMMB]++
				t.ramAvail[src.RAMMB] += src.RAMMB / 2
			}
		}
	}
	return t
}

const eps = 1e-9

func loadInRange(load float64, src *sim.FleetSource) bool {
	return load >= src.BaseLoad-eps && load <= src.BaseLoad+loadWobble+eps
}

var (
	processorCols = "HostName,Model,Vendor,ClockSpeed,CacheSize,CPUCount,LoadLast1Min,LoadLast5Min,LoadLast15Min,Utilization"
	historyCols   = processorCols + "," + history.SourceColumn + "," + history.SampledColumn
	filterCols    = "HostName,LoadLast1Min"
	aggLoadCols   = "count(*),avg(LoadLast1Min)"
	aggRAMCols    = "RAMSize,count(*),sum(RAMAvailable)"
)

// check scores one answer. Every response gets the cheap checks — no error,
// no failed, degraded or partial source, the expected row count and column
// set; an answer that drew the full check also has its values compared with
// the fleet. It returns "" for a correct answer and the first defect
// otherwise.
func (t *truth) check(r *request, full bool, resp *core.Response, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	if resp == nil || resp.ResultSet == nil {
		return "no result set"
	}
	for _, st := range resp.Sources {
		if st.Err != "" || st.Degraded != "" {
			return fmt.Sprintf("source %s: err=%q degraded=%q", st.Source, st.Err, st.Degraded)
		}
	}
	rs := resp.ResultSet
	cols := strings.Join(rs.Metadata().ColumnNames(), ",")
	wantCols, minRows, maxRows := processorCols, 0, 0
	switch {
	case r.cls == historical:
		wantCols = historyCols
		minRows = histWindow * len(r.srcs[0].Hosts)
		maxRows = minRows
	case r.opts.SQL == sqlFilter:
		wantCols = filterCols
		for _, src := range r.srcs {
			if src.BaseLoad > filterLoad {
				minRows += len(src.Hosts)
			}
			if src.BaseLoad+loadWobble > filterLoad {
				maxRows += len(src.Hosts)
			}
		}
	case r.opts.SQL == sqlAggLoad:
		wantCols, minRows, maxRows = aggLoadCols, 1, 1
	case r.opts.SQL == sqlAggRAM:
		wantCols, minRows, maxRows = aggRAMCols, len(t.ramCount), len(t.ramCount)
	case r.cls == remote:
		minRows = t.siteHosts[r.site]
		maxRows = minRows
	case r.cls == fanoutRaw:
		minRows, maxRows = t.hosts, t.hosts
	default: // raw rows over a local subset
		if len(resp.Sources) != len(r.srcs) {
			return fmt.Sprintf("partial: %d source statuses, want %d", len(resp.Sources), len(r.srcs))
		}
		for _, src := range r.srcs {
			minRows += len(src.Hosts)
		}
		maxRows = minRows
	}
	if cols != wantCols {
		return fmt.Sprintf("columns %q, want %q", cols, wantCols)
	}
	if n := rs.Len(); n < minRows || n > maxRows {
		return fmt.Sprintf("%d rows, want %d..%d", n, minRows, maxRows)
	}
	if !full {
		return ""
	}
	switch {
	case r.opts.SQL == sqlAggLoad:
		return t.checkAggLoad(rs)
	case r.opts.SQL == sqlAggRAM:
		return t.checkAggRAM(rs)
	case r.opts.SQL == sqlFilter:
		return t.checkFilter(r, rs)
	case r.cls == historical:
		return t.checkHistorical(r, rs)
	case r.cls == remote:
		return t.checkHosts(rs, func(src *sim.FleetSource) bool { return src.Site == r.site }, minRows)
	case r.cls == fanoutRaw:
		return t.checkHosts(rs, func(*sim.FleetSource) bool { return true }, minRows)
	default:
		want := sourceSet(r.srcs)
		return t.checkHosts(rs, func(src *sim.FleetSource) bool { return want[src] }, minRows)
	}
}

func sourceSet(srcs []*sim.FleetSource) map[*sim.FleetSource]bool {
	set := make(map[*sim.FleetSource]bool, len(srcs))
	for _, src := range srcs {
		set[src] = true
	}
	return set
}

// checkHosts verifies a raw Processor result: the HostName set equals the
// hosts of exactly the sources member accepts (the row count already
// matches, so distinct member hosts suffice) and each load sits within its
// source's range.
func (t *truth) checkHosts(rs *resultset.ResultSet, member func(*sim.FleetSource) bool, want int) string {
	meta := rs.Metadata()
	hi, li := meta.ColumnIndex("HostName"), meta.ColumnIndex("LoadLast1Min")
	seen := make(map[string]bool, rs.Len())
	for i := 0; i < rs.Len(); i++ {
		row := rs.RowAt(i)
		host, _ := row[hi].(string)
		src := t.hostSrc[host]
		if src == nil || !member(src) {
			return fmt.Sprintf("row %d: host %q is not in the queried set", i, host)
		}
		if seen[host] {
			return fmt.Sprintf("row %d: host %q twice", i, host)
		}
		seen[host] = true
		if load, ok := row[li].(float64); !ok || !loadInRange(load, src) {
			return fmt.Sprintf("host %s: load %v outside [%.2f, %.2f]", host, row[li], src.BaseLoad, src.BaseLoad+loadWobble)
		}
	}
	if len(seen) != want {
		return fmt.Sprintf("%d distinct hosts, want %d", len(seen), want)
	}
	return ""
}

func (t *truth) checkFilter(r *request, rs *resultset.ResultSet) string {
	want := sourceSet(r.srcs)
	seen := map[string]bool{}
	prev := math.Inf(1)
	for i := 0; i < rs.Len(); i++ {
		row := rs.RowAt(i)
		host, _ := row[0].(string)
		load, _ := row[1].(float64)
		src := t.hostSrc[host]
		if src == nil || !want[src] || seen[host] {
			return fmt.Sprintf("row %d: unexpected host %q", i, host)
		}
		seen[host] = true
		if load <= filterLoad || !loadInRange(load, src) {
			return fmt.Sprintf("host %s: load %v fails the filter or its range", host, load)
		}
		if load > prev {
			return fmt.Sprintf("row %d: not in descending load order", i)
		}
		prev = load
	}
	for _, src := range r.srcs {
		for _, h := range src.Hosts {
			if src.BaseLoad > filterLoad && !seen[h] {
				return fmt.Sprintf("host %s (base load %.2f) missing", h, src.BaseLoad)
			}
		}
	}
	return ""
}

func (t *truth) checkHistorical(r *request, rs *resultset.ResultSet) string {
	meta := rs.Metadata()
	hi, li := meta.ColumnIndex("HostName"), meta.ColumnIndex("LoadLast1Min")
	si, ti := meta.ColumnIndex(history.SourceColumn), meta.ColumnIndex(history.SampledColumn)
	src := r.srcs[0]
	perHost := map[string]int{}
	for i := 0; i < rs.Len(); i++ {
		row := rs.RowAt(i)
		host, _ := row[hi].(string)
		if t.hostSrc[host] != src || row[si] != src.URL {
			return fmt.Sprintf("row %d: host %q / source %v do not belong to %s", i, host, row[si], src.Name)
		}
		if load, ok := row[li].(float64); !ok || !loadInRange(load, src) {
			return fmt.Sprintf("row %d: load %v out of range", i, row[li])
		}
		at, ok := row[ti].(time.Time)
		if !ok || at.Before(r.opts.Since) || at.After(r.opts.Until) {
			return fmt.Sprintf("row %d: sampled at %v, outside the window", i, row[ti])
		}
		perHost[host]++
	}
	for _, h := range src.Hosts {
		if perHost[h] != histWindow {
			return fmt.Sprintf("host %s: %d samples, want %d", h, perHost[h], histWindow)
		}
	}
	return ""
}

// checkAggLoad verifies count(*) exactly and avg(LoadLast1Min) within the
// band the per-source wobble allows.
func (t *truth) checkAggLoad(rs *resultset.ResultSet) string {
	if rs.Len() != 1 {
		return fmt.Sprintf("%d aggregate rows, want 1", rs.Len())
	}
	row := rs.RowAt(0)
	if n, _ := row[0].(int64); n != int64(t.hosts) {
		return fmt.Sprintf("count(*) = %v, want %d", row[0], t.hosts)
	}
	lo := t.sumBase / float64(t.hosts)
	if avg, ok := row[1].(float64); !ok || avg < lo-eps || avg > lo+loadWobble+eps {
		return fmt.Sprintf("avg(LoadLast1Min) = %v, want [%.4f, %.4f]", row[1], lo, lo+loadWobble)
	}
	return ""
}

// checkAggRAM verifies the GROUP BY answer exactly: each RAMSize group must
// be one the fleet has (RAMSize == src.RAMMB), with the exact host count and
// the exact sum across every site.
func (t *truth) checkAggRAM(rs *resultset.ResultSet) string {
	seen := map[int64]bool{}
	for i := 0; i < rs.Len(); i++ {
		row := rs.RowAt(i)
		ram, _ := row[0].(int64)
		n, _ := row[1].(int64)
		sum, ok := row[2].(int64)
		if f, isFloat := row[2].(float64); isFloat {
			sum, ok = int64(f), f == math.Trunc(f)
		}
		if !ok || seen[ram] || t.ramCount[ram] == 0 || n != t.ramCount[ram] || sum != t.ramAvail[ram] {
			return fmt.Sprintf("group RAMSize=%v: count %v sum %v, want count %d sum %d",
				row[0], row[1], row[2], t.ramCount[ram], t.ramAvail[ram])
		}
		seen[ram] = true
	}
	if len(seen) != len(t.ramCount) {
		return fmt.Sprintf("%d RAMSize groups, want %d", len(seen), len(t.ramCount))
	}
	return ""
}

// checkPushed scores one pushed row the way check scores a response: the
// cheap check is that the row's source exists and the row has the group's
// columns; the full check ties HostName and load to that source.
func (t *truth) checkPushed(m router.Metric, full bool) string {
	src, ok := t.fleet.Source(m.Source)
	if !ok {
		return fmt.Sprintf("pushed row from unknown source %q", m.Source)
	}
	if strings.Join(m.Columns, ",") != processorCols || len(m.Row) != len(m.Columns) {
		return fmt.Sprintf("pushed row columns %v", m.Columns)
	}
	if !full {
		return ""
	}
	host, _ := m.Row[0].(string)
	if t.hostSrc[host] != src {
		return fmt.Sprintf("pushed host %q is not on %s", host, src.Name)
	}
	if load, ok := m.Row[6].(float64); !ok || !loadInRange(load, src) {
		return fmt.Sprintf("pushed host %s: load %v out of range", host, m.Row[6])
	}
	return ""
}

// corrupt damages a response the way a wrong answer would look: one host
// renamed. The -corrupt flag and the smoke test use it to show the oracle
// rejects it.
func corrupt(resp *core.Response) {
	if resp != nil && resp.ResultSet != nil && resp.ResultSet.Len() > 0 {
		resp.ResultSet.RowAt(0)[0] = "no-such-host"
	}
}
