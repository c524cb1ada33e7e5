package trace

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

// snapshot is everything a tracer shows of its traces: the stored trees,
// the listing, the counters but Bytes, and the spans one root collects.
func snapshot(t *testing.T, tr *Tracer, root Span, id string) string {
	t.Helper()
	td, _ := tr.Trace(id)
	st := tr.Stats()
	st.Bytes = 0
	return mustJSON(t, []any{td, tr.Traces(), st, root.Collected()})
}

// staleCalls drives every method of a span handle, and of the context it
// came in, whose trace is gone.
func staleCalls(t *testing.T, ctx Span, stale Span) {
	t.Helper()
	stale.SetAttr("sql", "stale")
	stale.SetAttr("extra", "stale")
	stale.SetAttrInt("rows", -1)
	stale.SetError(errors.New("stale"))
	child := stale.Child("stale")
	if child.Recording() {
		t.Error("Child of a stale handle records")
	}
	child.SetAttr("k", "v")
	child.End()
	if got := stale.Collected(); got != nil {
		t.Errorf("stale Collected = %+v", got)
	}
	if id, sid, pid := stale.TraceID(), stale.SpanID(), stale.ParentID(); id+sid+pid != "" {
		t.Errorf("stale identity = %q %q %q", id, sid, pid)
	}
	sctx := ContextWithSpan(bg, ctx)
	if _, sp := StartSpan(sctx, "stale"); sp.Recording() {
		t.Error("StartSpan under a stale handle records")
	}
	AttachRemote(sctx, []SpanData{{SpanID: "eeeeeeee.1", Name: "stale"}})
	if car, ok := CarrierFromContext(sctx); ok {
		t.Errorf("stale carrier = %+v", car)
	}
	stale.End()
}

// TestStaleHandleCannotReachTheReuser: with a store of one, trace C reuses
// the recorder and chunk of trace A, which the store evicted. Every method
// on A's handles, live or stored C, leaves C byte-identical.
func TestStaleHandleCannotReachTheReuser(t *testing.T) {
	tr := newTestTracer(Options{Capacity: 1})
	actx, a := tr.StartTrace(bg, "query", "siteA", DecideOn)
	var aSpans []Span
	for i := 0; i < 10; i++ { // past the first chunk, so a chunk is recycled too
		sp := SpanFromContext(actx).Child("source")
		sp.SetAttr("url", "gridrm:mem://a:1")
		sp.End()
		aSpans = append(aSpans, sp)
	}
	a.End()
	_, b := tr.StartTrace(bg, "query", "siteA", DecideOn)
	b.End() // evicts A, every span of it ended: A's memory goes to the free lists
	if st := tr.Stats(); st.Recycled != 1 {
		t.Fatalf("stats %+v, want A recycled", st)
	}

	cctx, c := tr.StartTrace(bg, "query", "siteC", DecideOn)
	if c.rec != a.rec {
		t.Fatal("C did not reuse A's recorder")
	}
	c.SetAttr("sql", "SELECT C")
	var cSpans []Span
	for i := 0; i < 10; i++ {
		sp := SpanFromContext(cctx).Child("harvest")
		sp.SetAttrInt("i", i)
		if i%2 == 0 {
			sp.End()
		}
		cSpans = append(cSpans, sp)
	}
	if c.rec.head.next == nil {
		t.Fatal("C has no second chunk")
	}

	// C live: A's handles address the very slots C's live spans hold.
	before := snapshot(t, tr, c, c.TraceID())
	for _, stale := range append([]Span{a}, aSpans...) {
		staleCalls(t, a, stale)
	}
	if after := snapshot(t, tr, c, c.TraceID()); after != before {
		t.Fatalf("stale calls changed live C\nbefore: %s\n after: %s", before, after)
	}

	// C stored.
	for _, sp := range cSpans {
		sp.End()
	}
	c.End()
	before = snapshot(t, tr, c, c.TraceID())
	for _, stale := range append([]Span{a}, aSpans...) {
		staleCalls(t, a, stale)
	}
	if after := snapshot(t, tr, c, c.TraceID()); after != before {
		t.Fatalf("stale calls changed stored C\nbefore: %s\n after: %s", before, after)
	}
	td, _ := tr.Trace(c.TraceID())
	if td.Spans != 11 || len(td.Roots) != 1 || td.Roots[0].Attrs["sql"] != "SELECT C" || td.Roots[0].Site != "siteC" {
		t.Fatalf("stored C = %s", mustJSON(t, td))
	}
}

// TestLiveLegIsNotRecycled: a trace evicted while its harvest span is still
// open keeps its recorder, which the next trace does not get; the
// straggler's late Child and End land in that recorder alone.
func TestLiveLegIsNotRecycled(t *testing.T) {
	tr := newTestTracer(Options{Capacity: 1})
	actx, a := tr.StartTrace(bg, "query", "siteA", DecideOn)
	hctx, harvest := StartSpan(actx, "harvest")
	a.End()
	_, b := tr.StartTrace(bg, "query", "siteB", DecideOn)
	b.End() // evicts A, whose harvest is live
	cctx, c := tr.StartTrace(bg, "query", "siteC", DecideOn)
	if st := tr.Stats(); st.Evicted != 1 || st.Recycled != 0 || c.rec == a.rec {
		t.Fatalf("stats %+v, C reuses A: %v; want A evicted and left alone", st, c.rec == a.rec)
	}
	SpanFromContext(cctx).Child("parse").End()
	before := snapshot(t, tr, c, b.TraceID())

	exec := SpanFromContext(hctx).Child("driver-execute")
	exec.SetAttr("driver", "jdbc-mem")
	exec.End()
	harvest.SetError(errors.New("late"))
	harvest.End()
	AttachRemote(hctx, []SpanData{{SpanID: "eeeeeeee.1", Name: "late"}})

	if after := snapshot(t, tr, c, b.TraceID()); after != before {
		t.Fatalf("the straggler changed another trace\nbefore: %s\n after: %s", before, after)
	}
	got := a.Collected() // A's recorder is A's alone: its handles still read it
	if len(got) != 4 || got[1].Name != "driver-execute" || got[2].Err != "late" {
		t.Fatalf("A's own recorder = %s", mustJSON(t, got))
	}
	c.End() // evicts B, which recycles; A is no longer the store's to recycle
	if st := tr.Stats(); st.Recycled != 1 {
		t.Fatalf("stats %+v, want only B recycled", st)
	}
}

// heldByWalk sizes the recorders and chunks the store and the free lists
// hold by walking them, as Stats.Bytes should report without walking.
func heldByWalk(t *Tracer) int64 {
	var recs, chunks int64
	t.mu.Lock()
	for _, leg := range t.traces {
		for ; leg != nil; leg = leg.nextLeg {
			leg.mu.Lock()
			recs++
			for c := leg.head.next; c != nil; c = c.next {
				chunks++
			}
			leg.mu.Unlock()
		}
	}
	t.mu.Unlock()
	t.freeMu.Lock()
	for r := t.freeRecs; r != nil; r = r.nextLeg {
		recs++
	}
	for c := t.freeChunks; c != nil; c = c.next {
		chunks++
	}
	t.freeMu.Unlock()
	return recs*recorderBytes + chunks*chunkBytes
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestReportedBytesMatchTheHeap: what Stats.Bytes reports the tracer holds —
// the stored recorders and chunks and the free lists — is what a walk of
// them finds, and what the heap grows by when a store of 256 fills with
// 20-span traces, within 10 %.
func TestReportedBytesMatchTheHeap(t *testing.T) {
	before := liveHeap()
	tr := New(Options{})
	for i := 0; i < defaultCapacity+8; i++ { // eight evictions leave a free recorder
		ctx, root := tr.StartTrace(bg, "query", "siteA", DecideOn)
		for j := 1; j < 20; j++ {
			SpanFromContext(ctx).Child("source").End()
		}
		root.End()
	}
	grew, st := int64(liveHeap()-before), tr.Stats()
	if held := heldByWalk(tr); st.Bytes != held {
		t.Errorf("Stats.Bytes = %d, the store and free lists hold %d", st.Bytes, held)
	}
	t.Logf("%d traces stored, %d recycled: the heap grew %d bytes, the tracer reports %d", st.Stored-st.Evicted, st.Recycled, grew, st.Bytes)
	if d := float64(st.Bytes-grew) / float64(grew); d < -0.10 || d > 0.10 {
		t.Errorf("the tracer reports %d bytes, the heap grew %d (%+.1f %%), want within 10 %%", st.Bytes, grew, 100*d)
	}
	runtime.KeepAlive(tr)
}

// FuzzParseCarrier: the X-GridRM-Trace header arrives unauthenticated on
// every hop. ParseCarrier never panics, and a carrier it accepts has IDs
// this package could have made and renders back to itself.
func FuzzParseCarrier(f *testing.F) {
	for _, h := range hostileCarriers {
		f.Add(h)
	}
	f.Add(strings.Repeat("f", 64) + "-0a1b2c3d.17-1")
	f.Add("0123456789abcdef0123456789abcdef-0a1b2c3d.1-0")
	f.Add(" abc-b.1-true ")
	f.Fuzz(func(t *testing.T, h string) {
		c, ok := ParseCarrier(h)
		if !ok {
			if c != (Carrier{}) {
				t.Fatalf("refused %q but returned %+v", h, c)
			}
			return
		}
		if !validID(c.TraceID) || !validID(c.Parent) {
			t.Fatalf("accepted %q with IDs %q, %q", h, c.TraceID, c.Parent)
		}
		if back, ok := ParseCarrier(c.Header()); !ok || back != c {
			t.Fatalf("%q parsed to %+v, whose header %q parses to %+v (ok=%v)", h, c, c.Header(), back, ok)
		}
	})
}
