package main

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/gma"
	"gridrm/internal/history"
	"gridrm/internal/qcache"
	"gridrm/internal/resultset"
	"gridrm/internal/router"
	"gridrm/internal/sim"
	"gridrm/internal/sqlparse"
	"gridrm/internal/tsdb"
	"gridrm/internal/web"
)

// probeOrder picks the request the probes replay: the cheapest common class
// the workload sends, so a thousand iterations stay inside the run budget.
var probeOrder = []class{cachedRaw, realtime, remote, cachedMiss, fanoutRaw}

// meanUS times iters calls of fn after one warm call and returns the mean
// in microseconds.
func meanUS(iters int, fn func()) float64 {
	fn()
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(iters)
}

func allocs(iters int, fn func()) float64 {
	if iters > 100 {
		iters = 100
	}
	return testing.AllocsPerRun(iters, fn)
}

// probe times each layer's public functions in isolation, on inputs the
// traced phases captured from the workload itself: its typical request, the
// rows that request returns, the sources it names. Anything that would
// disturb the live gateway's state (cache, history, router, journal) runs on
// a private instance fed the same rows.
func probe(rt *testbed, cp *captured, iters int, m metrics) error {
	var req *request
	var resp *core.Response
	for _, c := range probeOrder {
		if cp.reqs[c] != nil && cp.reqs[c].opts.SQL == sqlRaw {
			req, resp = cp.reqs[c], cp.resps[c]
			break
		}
	}
	if req == nil {
		return fmt.Errorf("probe: the traced phases captured no raw-row request")
	}
	ctx := context.Background()
	gw := rt.h.EntryGateway()
	rs := resp.ResultSet
	src := rt.entry[0]
	now := time.Now()

	// web: the servlet's codec on this response, one HTTP hop, and the bare
	// HTTP round trip the hop cannot go below.
	body := encodeResponse(resp)
	encode := func() { encodeResponse(resp) }
	m["web.response_bytes"] = float64(len(body))
	m["web.encode_us"] = meanUS(iters, encode)
	m["web.encode_allocs"] = allocs(iters, encode)
	m["web.decode_us"] = meanUS(iters, func() { decodeResponse(body) })
	wc := &web.Client{BaseURL: rt.h.Entry.Server.URL(), Principal: sim.SimPrincipal}
	m["web.http_floor_us"] = meanUS(iters, func() { _, _ = wc.Sites(ctx) })
	hop, hopReq := rt.h.Entry.Server.URL(), core.QueryOptions{Principal: sim.SimPrincipal, SQL: sqlRaw}
	if len(rt.leaves) > 0 {
		hop = rt.h.Sites[rt.leaves[0]].Server.URL()
	} else {
		hopReq.Sources = urls(rt.entry[:subsetSize])
	}
	m["web.remote_leg_us"] = meanUS(iters, func() { _, _ = web.RemoteQueryContext(ctx, hop, hopReq) })

	// core: the same request, in-process.
	query := func() { _, _ = gw.QueryContext(ctx, req.opts) }
	m["core.query_us"] = meanUS(iters, query)
	m["core.query_allocs"] = allocs(iters, query)

	// sqlparse: the workload's heaviest statement over the captured rows.
	qFilter, err := sqlparse.Parse(sqlFilter)
	if err != nil {
		return err
	}
	qAgg, err := sqlparse.Parse(sqlAggLoad)
	if err != nil {
		return err
	}
	partial, err := sqlparse.ApplyToResultSet(qAgg.PartialQuery(), rs)
	if err != nil {
		return err
	}
	plans := sqlparse.NewPlanCache(512)
	m["sqlparse.parse_us"] = meanUS(iters, func() { _, _ = sqlparse.Parse(sqlFilter) })
	m["sqlparse.plan_hit_us"] = meanUS(iters, func() { _, _ = plans.Parse(sqlFilter) })
	m["sqlparse.apply_us"] = meanUS(iters, func() { _, _ = sqlparse.ApplyToResultSet(qFilter, rs) })
	m["sqlparse.finalize_us"] = meanUS(iters, func() { _, _ = sqlparse.FinalizeAggregate(qAgg, partial) })

	// qcache and resultset, on a private cache.
	cache := qcache.New(qcache.Options{TTL: time.Hour})
	cache.Put(src.URL, sqlRaw, rs)
	get := func() { _, _, _ = cache.Get(src.URL, sqlRaw) }
	m["qcache.get_us"] = meanUS(iters, get)
	m["qcache.get_allocs"] = allocs(iters, get)
	m["qcache.put_us"] = meanUS(iters, func() { cache.Put(src.URL, sqlRaw, rs) })
	m["resultset.clone_us"] = meanUS(iters, func() { _ = rs.Clone() })
	m["resultset.merge_us"] = meanUS(iters, func() { _ = resultset.New(rs.Metadata()).Merge(rs) })

	// pool and driver: an idle checkout, and the simulated agent's floor.
	m["pool.get_us"] = meanUS(iters, func() {
		if conn, err := gw.Pool().Get(src.URL, nil); err == nil {
			conn.Release()
		}
	})
	conn, err := gw.Pool().Get(src.URL, nil)
	if err != nil {
		return err
	}
	m["driver.harvest_us"] = meanUS(iters, func() {
		if stmt, err := conn.CreateStatement(); err == nil {
			_, _ = stmt.ExecuteQuery(sqlRaw)
			_ = stmt.Close()
		}
	})
	conn.Release()

	// history: reads on the live store at the size the run left it, writes
	// on a private one.
	one, err := processorRows(src, src.BaseLoad)
	if err != nil {
		return err
	}
	hs := gw.HistoryStore()
	m["history.samples"] = float64(hs.TotalSamples())
	if rt.preloaded > 0 {
		m["history.bytes_per_sample"] = float64(rt.preloadBytes) / float64(rt.preloaded)
	}
	m["history.query_us"] = meanUS(iters, func() {
		_, _ = hs.Query(glue.GroupProcessor, src.URL, rt.histSince, rt.histUntil)
	})
	m["history.latest_us"] = meanUS(iters, func() { _, _, _ = hs.Latest(src.URL, glue.GroupProcessor) })
	mem := history.New(history.Options{})
	m["history.record_us"] = meanUS(iters, func() { _ = mem.Record(src.URL, glue.GroupProcessor, one, now) })

	// tsdb: journal-through writes into a private directory.
	dir, err := os.MkdirTemp("", "gridrm-bench-tsdb-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	journal := tsdb.Open(tsdb.Options{Dir: dir, Fsync: "interval", CheckpointInterval: -1}, history.New(history.Options{}))
	m["tsdb.record_us"] = meanUS(iters, func() { _ = journal.Record(src.URL, glue.GroupProcessor, one, now) })
	if st := journal.Stats(); st.WALAppends > 0 {
		m["tsdb.wal_bytes_per_sample"] = float64(st.DiskBytes) / float64(st.WALAppends)
	}
	journal.CrashClose()

	// router: publish into a private router with one draining subscriber.
	pr := router.New(router.Options{})
	sub, err := pr.Subscribe(router.SubscribeOptions{})
	if err != nil {
		return err
	}
	go func() {
		for {
			select {
			case <-sub.C():
			case <-sub.Done():
				return
			}
		}
	}()
	cols := one.Metadata().ColumnNames()
	rows := make([][]any, one.Len())
	for i := range rows {
		rows[i] = one.RowAt(i)
	}
	m["router.publish_us"] = meanUS(iters, func() { pr.Publish(src.URL, glue.GroupProcessor, cols, rows, now) })
	sub.Close()

	// gma and repub, when the workload federates.
	if rt.h.Router != nil {
		var repubs []string
		for _, rr := range rt.h.Repubs {
			repubs = append(repubs, rr.Name)
		}
		ring := gma.NewRing(repubs, 0)
		m["gma.fanout_plan_us"] = meanUS(iters, func() { _, _ = rt.h.Router.FanoutPlan(ctx) })
		m["gma.ring_assign_us"] = meanUS(iters, func() { _ = ring.Assign(rt.h.SiteOrder) })
		m["gma.dir_lookup_us"] = meanUS(iters, func() { _, _, _ = rt.h.MultiDir.LookupContext(ctx, rt.leaves[0]) })
		region := rt.h.Repubs[0].Gateway
		m["repub.region_query_us"] = meanUS(iters, func() {
			_, _ = region.QueryContext(ctx, core.QueryOptions{SQL: sqlRaw})
		})
	}
	return nil
}
