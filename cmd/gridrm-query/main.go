// Command gridrm-query is the GridRM command-line client: it issues SQL
// queries against a gateway's servlet interface and renders the
// consolidated ResultSet, and exposes the management operations of the
// paper's JSP interface (tree view, sources, drivers, events, status).
//
//	gridrm-query -gateway http://127.0.0.1:8080 \
//	    -sql "SELECT HostName, LoadLast1Min FROM Processor ORDER BY LoadLast1Min DESC"
//	gridrm-query -gateway http://127.0.0.1:8080 -tree
//	gridrm-query -gateway http://127.0.0.1:8080 -site siteB -sql "SELECT * FROM Memory"
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/event"
	"gridrm/internal/security"
	"gridrm/internal/trace"
	"gridrm/internal/web"
)

func main() {
	var (
		gateway = flag.String("gateway", "http://127.0.0.1:8080", "gateway base URL")
		sql     = flag.String("sql", "", "SQL query to execute")
		site    = flag.String("site", "", "remote site to query via the Global layer")
		mode    = flag.String("mode", "cached", "query mode: cached, real-time, historical")
		sources = flag.String("sources", "", "comma-separated source URLs to restrict to")
		user    = flag.String("user", "cli", "principal name")
		roles   = flag.String("roles", "operator", "comma-separated principal roles")
		tree    = flag.Bool("tree", false, "show the cached tree view")
		status  = flag.Bool("status", false, "show gateway status counters")
		events  = flag.Bool("events", false, "show recent events")
		listSrc = flag.Bool("list-sources", false, "list registered data sources")
		listDrv = flag.Bool("list-drivers", false, "list drivers")
		sites   = flag.Bool("sites", false, "list reachable sites")
		follow  = flag.Bool("follow", false, "continuous query: stream rows matching -sql as they are harvested")
		fromSeq = flag.Uint64("from", 0, "with -follow, resume after this sequence number")
		poll    = flag.String("poll", "", "source URL to poll in real time (requires -group)")
		group   = flag.String("group", "", "GLUE group for -poll")
		timeout = flag.Duration("timeout", 0, "overall query deadline (0 = gateway default)")
		doTrace = flag.Bool("trace", false, "force-trace the query and print its span tree")
		traceID = flag.String("trace-id", "", "fetch and print a stored trace by ID")
		listTrc = flag.Bool("traces", false, "list recent traces stored on the gateway")
	)
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	principal := security.Principal{Name: *user}
	if *roles != "" {
		principal.Roles = strings.Split(*roles, ",")
	}
	client := &web.Client{BaseURL: *gateway, Principal: principal}

	switch {
	case *traceID != "":
		td, err := client.Trace(ctx, *traceID)
		fail(err)
		printTrace(td)
	case *listTrc:
		sums, err := client.Traces(ctx)
		fail(err)
		for _, s := range sums {
			fmt.Printf("%s  %-8s site=%-10s spans=%-3d %s  %s\n",
				s.TraceID, s.Duration.Round(time.Microsecond), s.Site, s.Spans,
				s.Start.Format(time.RFC3339), s.SQL)
		}
	case *tree:
		nodes, err := client.Tree(ctx)
		fail(err)
		for _, n := range nodes {
			health := "ok"
			if n.Source.LastError != "" {
				health = "FAILED: " + n.Source.LastError
			}
			fmt.Printf("%s  [%s]  driver=%s\n", n.Source.URL, health, n.Source.LastDriver)
			for _, e := range n.Cached {
				fmt.Printf("    %-40s rows=%-4d age=%s\n", e.SQL, e.Rows, e.Age.Round(time.Millisecond))
			}
		}
	case *status:
		st, err := client.Status(ctx)
		fail(err)
		fmt.Printf("site %s\n", st.Site)
		fmt.Printf("  queries=%d errors=%d harvests=%d harvest-errors=%d cache-served=%d coalesced=%d routed=%d denied=%d\n",
			st.Gateway.Queries, st.Gateway.QueryErrors, st.Gateway.Harvests,
			st.Gateway.HarvestErrors, st.Gateway.CacheServed, st.Gateway.Coalesced,
			st.Gateway.Routed, st.Gateway.Denied)
		fmt.Printf("  resilience: timeouts=%d retries=%d breaker-opens=%d breaker-skipped=%d\n",
			st.Gateway.Timeouts, st.Gateway.Retries, st.Gateway.BreakerOpens, st.Gateway.BreakerSkipped)
		fmt.Printf("  degradation: stale-serves=%d history-fallbacks=%d driver-panics=%d\n",
			st.Gateway.StaleServes, st.Gateway.HistoryFallbacks, st.Gateway.DriverPanics)
		fmt.Printf("  plan cache: hits=%d misses=%d\n",
			st.Gateway.PlanCacheHits, st.Gateway.PlanCacheMisses)
		fmt.Printf("  push: published=%d dropped=%d evictions=%d subscribers=%d sinks=%d\n",
			st.Push.Published, st.Push.Dropped, st.Push.Evicted,
			st.Push.Subscribers, st.Push.Sinks)
		for _, sk := range st.Sinks {
			fmt.Printf("  sink %-32s delivered=%-6d dropped=%-4d retries=%-4d breaker=%s\n",
				sk.Name, sk.Delivered, sk.Dropped, sk.Retries, sk.BreakerState)
		}
		fmt.Printf("  history: keys=%d samples=%d pruned=%d\n",
			st.History.Keys, st.History.Samples, st.History.Pruned)
		if d := st.History.Durability; d != nil {
			fmt.Printf("  durability: state=%s dir=%s wal-appends=%d fsyncs=%d replayed=%d corrupt=%d\n",
				d.State, d.Dir, d.WALAppends, d.Fsyncs, d.ReplayedRecords, d.CorruptRecords)
			fmt.Printf("  durability: checkpoints=%d checkpoint-errors=%d wal-errors=%d reattaches=%d segments=%d disk-bytes=%d wal-bytes-since-checkpoint=%d\n",
				d.Checkpoints, d.CheckpointErrors, d.WALErrors, d.Reattaches,
				d.WALSegments, d.DiskBytes, d.WALBytesSinceCheckpoint)
		}
		fmt.Printf("  probes: attempted=%d failed=%d skipped=%d source-transitions=%d\n",
			st.Gateway.Probes, st.Gateway.ProbeFailures, st.Gateway.ProbeSkipped, st.Gateway.SourceTransitions)
		fmt.Printf("  pool: hits=%d misses=%d opens=%d idle=%d\n",
			st.Pool.Hits, st.Pool.Misses, st.Pool.Opens, st.Pool.Idle)
		fmt.Printf("  driver manager: scans=%d probes=%d cache-hits=%d failovers=%d\n",
			st.Drivers.Scans, st.Drivers.ScanProbes, st.Drivers.CacheHits, st.Drivers.Failovers)
		fmt.Printf("  events: published=%d delivered=%d alerts=%d\n",
			st.Events.Published, st.Events.Delivered, st.Events.Alerts)
		if st.Admission != nil {
			fmt.Printf("  admission: max-inflight=%d max-queue=%d inflight=%d queued=%d admitted=%d shed=%d\n",
				st.Admission.MaxInFlight, st.Admission.MaxQueue, st.Admission.InFlight,
				st.Admission.Queued, st.Admission.Admitted, st.Admission.Shed)
		}
		for _, stage := range st.Stages {
			avg := time.Duration(0)
			if stage.Count > 0 {
				avg = time.Duration(stage.Sum / float64(stage.Count) * float64(time.Second))
			}
			fmt.Printf("  stage %-12s count=%-8d avg=%s\n", stage.Label, stage.Count, avg.Round(time.Microsecond))
		}
		fmt.Printf("  traces: started=%d stored=%d evicted=%d recycled=%d bytes=%d slow-queries=%d dropped-spans=%d\n",
			st.Traces.Started, st.Traces.Stored, st.Traces.Evicted, st.Traces.Recycled,
			st.Traces.Bytes, st.Traces.SlowQueries, st.Traces.DroppedSpans)
		for _, sq := range st.Slow {
			note := ""
			if sq.Err != "" {
				note = "  ERROR: " + sq.Err
			}
			if sq.TraceID != "" {
				note += "  trace=" + sq.TraceID
			}
			fmt.Printf("  slow %s %-10s %-9s %s%s\n", sq.Time.Format(time.RFC3339),
				sq.Site, sq.Elapsed.Round(time.Microsecond), sq.SQL, note)
		}
	case *events:
		evs, err := client.Events(ctx, event.Filter{}, time.Time{})
		fail(err)
		for _, ev := range evs {
			fmt.Printf("%s  %-8s %-24s host=%-16s value=%.2f  %s\n",
				ev.Time.Format(time.RFC3339), ev.Severity, ev.Name, ev.Host, ev.Value, ev.Detail)
		}
	case *listSrc:
		srcs, err := client.Sources(ctx)
		fail(err)
		for _, s := range srcs {
			fmt.Printf("%-48s driver=%-16s %-8s failures=%-3d breaker=%-9s %s\n",
				s.URL, s.LastDriver, s.Health, s.Failures, s.Breaker, s.Description)
		}
	case *listDrv:
		drvs, err := client.Drivers(ctx)
		fail(err)
		for _, d := range drvs {
			state := "available"
			if d.Active {
				state = "active"
			}
			fmt.Printf("%-18s %-10s v%-8s groups=%s\n", d.Name, state, d.Version, strings.Join(d.Groups, ","))
		}
	case *sites:
		ss, err := client.Sites(ctx)
		fail(err)
		for _, s := range ss {
			fmt.Println(s)
		}
	case *poll != "":
		if *group == "" {
			log.Fatal("gridrm-query: -poll requires -group")
		}
		resp, err := client.Poll(ctx, *poll, *group)
		fail(err)
		printResponse(resp)
	case *follow:
		if *sql == "" {
			log.Fatal("gridrm-query: -follow requires -sql")
		}
		followQuery(ctx, client, *sql, *sources, *fromSeq)
	case *sql != "":
		m, err := web.ParseMode(*mode)
		fail(err)
		req := core.QueryOptions{SQL: *sql, Site: *site, Mode: m}
		if *sources != "" {
			req.Sources = strings.Split(*sources, ",")
		}
		if *doTrace {
			req.Trace = trace.DecideOn
		}
		resp, err := client.Query(ctx, req)
		fail(err)
		printResponse(resp)
		if *doTrace {
			if resp.TraceID == "" {
				fmt.Println("-- no trace recorded (gateway sampling off?)")
				return
			}
			td, err := client.Trace(ctx, resp.TraceID)
			fail(err)
			printTrace(td)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// followQuery streams a continuous query to stdout, reconnecting with
// sequence-number resume when the stream drops. It returns when ctx ends
// (deadline or interrupt) or the subscription is rejected outright.
func followQuery(ctx context.Context, client *web.Client, sql, sources string, from uint64) {
	req := core.QueryOptions{SQL: sql, FromSeq: from}
	if sources != "" {
		req.Sources = strings.Split(sources, ",")
	}
	for {
		sub, err := client.SubscribeContext(ctx, web.SubscribeConfig{Query: req})
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			log.Fatalf("gridrm-query: %v", err)
		}
	stream:
		for {
			select {
			case m := <-sub.C():
				cells := make([]string, len(m.Columns))
				for i, col := range m.Columns {
					cells[i] = fmt.Sprintf("%s=%v", col, m.Row[i])
				}
				fmt.Printf("%s  seq=%-8d %s %s  %s\n",
					m.Time.Format(time.RFC3339), m.Seq, m.Source, m.Group,
					strings.Join(cells, " "))
			case <-sub.Done():
				break stream
			}
		}
		if ctx.Err() != nil {
			return
		}
		if err := sub.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "gridrm-query: stream ended: %v (resuming from seq %d)\n",
				err, sub.LastSeq())
		}
		if d := sub.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "gridrm-query: %d rows lost to backpressure\n", d)
		}
		req.FromSeq = sub.LastSeq()
		select {
		case <-time.After(time.Second):
		case <-ctx.Done():
			return
		}
	}
}

func printResponse(resp *core.Response) {
	fmt.Printf("-- site=%s mode=%s elapsed=%s rows=%d\n",
		resp.Site, resp.Mode, resp.Elapsed.Round(time.Microsecond), resp.ResultSet.Len())
	fmt.Print(resp.ResultSet.String())
	for _, s := range resp.Sources {
		note := "fresh"
		if s.Cached {
			note = "cached"
		}
		if s.Err != "" {
			note = "ERROR: " + s.Err
		}
		if s.Degraded != "" {
			note = fmt.Sprintf("DEGRADED(%s age=%s): %s",
				s.Degraded, s.Age.Round(time.Millisecond), s.Err)
		}
		fmt.Printf("## %-48s driver=%-16s rows=%-4d %s\n", s.Source, s.Driver, s.Rows, note)
	}
}

// printTrace renders the span tree with one indented line per span, e.g.
//
//	-- trace 9f2c... (11 spans)
//	query 14.2ms site=siteA sql="SELECT ..."
//	  parse 12µs
//	  fanout 13.9ms sites=2
//	    site 13.8ms site=siteB
//	      remote-query 13.7ms endpoint=http://...
//	        query 9.1ms site=siteB [remote]
func printTrace(td *trace.TraceData) {
	fmt.Printf("-- trace %s (%d spans)\n", td.TraceID, td.Spans)
	var walk func(n *trace.Node, depth int)
	walk = func(n *trace.Node, depth int) {
		line := strings.Repeat("  ", depth) + n.Name + " " +
			n.Duration.Round(time.Microsecond).String()
		if n.Site != "" {
			line += " site=" + n.Site
		}
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			line += fmt.Sprintf(" %s=%q", k, n.Attrs[k])
		}
		if n.Err != "" {
			line += " ERROR=" + fmt.Sprintf("%q", n.Err)
		}
		if n.Remote {
			line += " [remote]"
		}
		fmt.Println(line)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, root := range td.Roots {
		walk(root, 0)
	}
}

func fail(err error) {
	if err != nil {
		log.Fatalf("gridrm-query: %v", err)
	}
}
