package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestParseCarrierRejectsHostileIDs: the header arrives unauthenticated, so
// an ID this package could not have made is no carrier at all.
func TestParseCarrierRejectsHostileIDs(t *testing.T) {
	long := strings.Repeat("a", 8<<10)
	for name, h := range map[string]string{
		"8 KB trace ID":      long + "-b.1-1",
		"8 KB parent ID":     "abc-" + long + "-1",
		"65-byte trace ID":   strings.Repeat("a", 65) + "-b.1-1",
		"quote in trace ID":  `ab"c-b.1-1`,
		"quote in parent ID": `abc-b".1-1`,
		"upper-case hex":     "ABC-b.1-1",
		"space inside":       "a c-b.1-1",
		"newline":            "abc\n-b.1-1",
		"non-ASCII":          "abç-b.1-1",
	} {
		if _, ok := ParseCarrier(h); ok {
			t.Errorf("%s: accepted", name)
		}
	}
	ok64 := strings.Repeat("f", 64)
	if c, ok := ParseCarrier(ok64 + "-0a1b2c3d.17-1"); !ok || c.TraceID != ok64 || c.Parent != "0a1b2c3d.17" {
		t.Errorf("a 64-byte ID must pass: %+v ok=%v", c, ok)
	}
}

// TestMergedTraceHoldsTheSpanCap: legs stored under one trace ID share one
// MaxSpans, and what does not fit is counted, not kept.
func TestMergedTraceHoldsTheSpanCap(t *testing.T) {
	tr := newTestTracer(Options{MaxSpans: 8})
	car := Carrier{TraceID: "feed", Parent: "0a.1", Sampled: true}
	const legs, perLeg = 1000, 3
	for i := 0; i < legs; i++ {
		ctx, root := tr.StartTrace(ContextWithRemote(bg, car), "query", "siteB", DecideSample)
		for j := 1; j < perLeg; j++ {
			_, sp := StartSpan(ctx, "source")
			sp.End()
		}
		root.End()
	}
	td, ok := tr.Trace("feed")
	if !ok || td.Spans != 8 {
		t.Fatalf("merged trace holds %d spans (ok=%v), want the cap of 8", td.Spans, ok)
	}
	if sums := tr.Traces(); len(sums) != 1 || sums[0].Spans != 8 {
		t.Fatalf("summaries = %+v, want one row of 8 spans", sums)
	}
	st := tr.Stats()
	if st.Stored != 1 || st.DroppedSpans != legs*perLeg-8 {
		t.Fatalf("stats = %+v, want stored=1 dropped=%d", st, legs*perLeg-8)
	}
	// The store keeps three legs (3+3+3 ≥ 8), not a thousand.
	n := 0
	for leg := tr.traces["feed"]; leg != nil; leg = leg.nextLeg {
		n++
	}
	if n != 3 {
		t.Fatalf("store links %d legs, want 3", n)
	}
}

// TestStragglerEndsInItsOwnSlot: a span that outlives its root is in the
// stored trace once it ends, and a span started after the cap is counted.
func TestStragglerEndsInItsOwnSlot(t *testing.T) {
	tr := newTestTracer(Options{MaxSpans: 3})
	ctx, root := tr.StartTrace(bg, "query", "siteA", DecideOn)
	hctx, harvest := StartSpan(ctx, "harvest")
	root.End()
	if td, _ := tr.Trace(root.TraceID()); td.Spans != 1 {
		t.Fatalf("stored %d spans before the straggler ends, want 1", td.Spans)
	}
	exec := SpanFromContext(hctx).Child("driver-execute") // started after the root ended
	exec.SetAttr("driver", "jdbc-mem")
	exec.End()
	harvest.End()
	if late := SpanFromContext(hctx).Child("dispatch"); late != nil {
		t.Fatal("a span beyond MaxSpans must be nil")
	}
	td, _ := tr.Trace(root.TraceID())
	if td.Spans != 3 || len(td.Roots) != 1 || len(td.Roots[0].Children) != 1 {
		t.Fatalf("stored trace = %+v, want query > harvest > driver-execute", td)
	}
	h := td.Roots[0].Children[0]
	if h.Name != "harvest" || len(h.Children) != 1 || h.Children[0].Attrs["driver"] != "jdbc-mem" {
		t.Fatalf("straggler subtree = %+v", h)
	}
	if got := tr.Stats().DroppedSpans; got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
}

// TestSpillAndOverwrite: attributes beyond the inline array, repeated keys
// and numbers all read back as the map they would have been.
func TestSpillAndOverwrite(t *testing.T) {
	tr := newTestTracer(Options{})
	ctx, root := tr.StartTrace(bg, "query", "siteA", DecideOn)
	other := SpanFromContext(ctx).Child("other")
	for i, k := range []string{"a", "b", "c", "d", "b", "d", "a"} {
		root.SetAttrInt(k, i)
		other.SetAttr(k, "x")
	}
	root.SetAttr("c", "see")
	other.End()
	root.End()
	td, _ := tr.Trace(root.TraceID())
	want := map[string]string{"a": "6", "b": "4", "c": "see", "d": "5"}
	if got := td.Roots[0].Attrs; len(got) != len(want) {
		t.Fatalf("attrs = %v, want %v", got, want)
	}
	for k, v := range want {
		if got := td.Roots[0].Attrs[k]; got != v {
			t.Errorf("attr %s = %q, want %q", k, got, v)
		}
		if got := td.Roots[0].Children[0].Attrs[k]; got != "x" {
			t.Errorf("the other span's attr %s = %q, want x", k, got)
		}
	}
}

// TestRootEndsBesideItsChildren is for the race detector: eight goroutines
// start, annotate and end children while the root ends and is stored,
// Collected, Trace and Traces are read, and a straggler ends later.
func TestRootEndsBesideItsChildren(t *testing.T) {
	tr := New(Options{MaxSpans: 64}) // low enough that the cap is hit too
	ctx, root := tr.StartTrace(bg, "query", "siteA", DecideOn)
	_, straggler := StartSpan(ctx, "harvest")
	var wg sync.WaitGroup
	begin := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-begin
			for i := 0; i < 20; i++ {
				sctx, sp := StartSpan(ctx, "source")
				sp.SetAttr("url", "gridrm:mem://a:1")
				sp.SetAttrInt("i", i)
				sp.SetAttr("spilled", "yes")
				leaf := SpanFromContext(sctx).Child("pool-checkout")
				leaf.SetAttr("idle", "true")
				leaf.End()
				sp.End()
				sp.SetAttr("late", "ignored")
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-begin
		for i := 0; i < 50; i++ {
			root.Collected()
			tr.Trace(root.TraceID())
			tr.Traces()
			AttachRemote(ctx, []SpanData{{TraceID: root.TraceID(), SpanID: "ffffffff.1", Name: "query"}})
		}
	}()
	close(begin)
	root.End()
	wg.Wait()
	ended := make(chan struct{})
	time.AfterFunc(10*time.Millisecond, func() {
		straggler.End()
		close(ended)
	})
	<-ended
	td, ok := tr.Trace(root.TraceID())
	if !ok {
		t.Fatal("trace not stored")
	}
	st := tr.Stats()
	// 2 + 8×20×2 local starts and 50 remote spans were offered; every one is
	// either in the stored trace or counted.
	if offered := int64(2 + 8*20*2 + 50); int64(td.Spans)+st.DroppedSpans != offered || td.Spans != 64 {
		t.Fatalf("stored %d + dropped %d, want %d offered and the cap of 64 stored", td.Spans, st.DroppedSpans, offered)
	}
}

// TestSpanAllocations holds the point of the slot recorder: spans cost
// slots, not objects.
func TestSpanAllocations(t *testing.T) {
	tr := New(Options{MaxSpans: 1 << 20})
	ctx, root := tr.StartTrace(bg, "query", "siteA", DecideOn)
	defer root.End()
	// Six more leaves fit the recorder's first chunk beside the root and
	// the warm-up run's.
	if n := testing.AllocsPerRun(6, func() {
		sp := SpanFromContext(ctx).Child("pool-checkout")
		sp.SetAttr("idle", "true")
		sp.SetAttrInt("rows", 123456)
		sp.End()
	}); n != 0 {
		t.Errorf("leaf span start + 2 attrs + end = %v allocs, want 0", n)
	}

	// The cached dashboard query's trace: a root, parse, eight sources,
	// consolidate — 11 spans — started, annotated, ended and stored. One
	// recorder, one more chunk, the trace ID, the root's context, and the
	// store's own bookkeeping.
	if n := testing.AllocsPerRun(200, func() {
		ctx, root := tr.StartTrace(bg, "query", "siteA", DecideOn)
		root.SetAttr("sql", "SELECT * FROM Processor")
		root.SetAttr("mode", "cached")
		SpanFromContext(ctx).Child("parse").End()
		for i := 0; i < 8; i++ {
			src := SpanFromContext(ctx).Child("source")
			src.SetAttr("url", "gridrm:mem://a:1")
			src.SetAttr("cached", "true")
			src.End()
		}
		SpanFromContext(ctx).Child("consolidate").End()
		root.End()
	}); n > 10 {
		t.Errorf("an 11-span trace = %v allocs end to end, want ≤ 10", n)
	} else {
		t.Logf("an 11-span trace = %v allocs end to end", n)
	}
}
