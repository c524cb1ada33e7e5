package trace

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func newTestTracer(o Options) *Tracer {
	if o.Clock == nil {
		now := time.Unix(50000, 0)
		var mu sync.Mutex
		o.Clock = func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			now = now.Add(time.Millisecond)
			return now
		}
	}
	return New(o)
}

func TestSpanTreeRoundTrip(t *testing.T) {
	tr := newTestTracer(Options{})
	ctx, root := tr.StartTrace(context.Background(), "query", "siteA", DecideOn)
	if !root.Recording() {
		t.Fatal("expected sampled root span")
	}
	root.SetAttr("sql", "SELECT * FROM Processor")

	cctx, child := StartSpan(ctx, "source")
	child.SetAttr("url", "gridrm:mem://a:1")
	_, grand := StartSpan(cctx, "harvest")
	grand.SetError(errors.New("boom"))
	grand.End()
	child.End()
	root.End()

	td, ok := tr.Trace(root.TraceID())
	if !ok {
		t.Fatalf("trace %q not stored", root.TraceID())
	}
	if td.Spans != 3 {
		t.Fatalf("spans = %d, want 3", td.Spans)
	}
	if len(td.Roots) != 1 || td.Roots[0].Name != "query" {
		t.Fatalf("unexpected roots: %+v", td.Roots)
	}
	r := td.Roots[0]
	if r.Site != "siteA" || r.Attrs["sql"] != "SELECT * FROM Processor" {
		t.Fatalf("root span = %+v", r.SpanData)
	}
	if len(r.Children) != 1 || r.Children[0].Name != "source" {
		t.Fatalf("root children = %+v", r.Children)
	}
	h := r.Children[0].Children
	if len(h) != 1 || h[0].Name != "harvest" || h[0].Err != "boom" {
		t.Fatalf("harvest node = %+v", h)
	}
	if r.Duration <= 0 {
		t.Fatalf("root duration = %v, want > 0", r.Duration)
	}

	sums := tr.Traces()
	if len(sums) != 1 || sums[0].TraceID != root.TraceID() || sums[0].SQL != "SELECT * FROM Processor" {
		t.Fatalf("summaries = %+v", sums)
	}
}

func TestUntracedPathIsNoop(t *testing.T) {
	tr := newTestTracer(Options{})
	ctx, root := tr.StartTrace(context.Background(), "query", "siteA", DecideOff)
	if root.Recording() {
		t.Fatal("DecideOff must yield the zero Span")
	}
	// Everything on the zero Span must be safe.
	_, child := StartSpan(ctx, "source")
	child.SetAttr("k", "v")
	child.SetError(errors.New("x"))
	child.End()
	root.SetAttr("k", "v")
	root.End()
	if root.TraceID() != "" || root.IsRoot() {
		t.Fatal("the zero Span must report empty identity")
	}
	AttachRemote(ctx, []SpanData{{SpanID: "x"}})
	if got := tr.Stats().Started; got != 0 {
		t.Fatalf("started = %d, want 0", got)
	}
	var nilTracer *Tracer
	if _, sp := nilTracer.StartTrace(context.Background(), "q", "s", DecideOn); sp.Recording() {
		t.Fatal("nil tracer must never sample")
	}
	nilTracer.ObserveQuery(SlowQuery{Elapsed: time.Hour})
}

func TestStoreFIFOEviction(t *testing.T) {
	tr := newTestTracer(Options{Capacity: 3})
	var ids []string
	for i := 0; i < 5; i++ {
		_, sp := tr.StartTrace(context.Background(), "query", "siteA", DecideOn)
		ids = append(ids, sp.TraceID())
		sp.End()
	}
	for _, id := range ids[:2] {
		if _, ok := tr.Trace(id); ok {
			t.Fatalf("trace %q should have been evicted", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := tr.Trace(id); !ok {
			t.Fatalf("trace %q should be retained", id)
		}
	}
	st := tr.Stats()
	if st.Stored != 5 || st.Evicted != 2 {
		t.Fatalf("stats = %+v, want stored=5 evicted=2", st)
	}
	if got := len(tr.Traces()); got != 3 {
		t.Fatalf("len(Traces()) = %d, want 3", got)
	}
}

func TestTracesNewestFirst(t *testing.T) {
	tr := newTestTracer(Options{})
	var ids []string
	for i := 0; i < 3; i++ {
		_, sp := tr.StartTrace(context.Background(), "query", "siteA", DecideOn)
		ids = append(ids, sp.TraceID())
		sp.End()
	}
	sums := tr.Traces()
	if len(sums) != 3 {
		t.Fatalf("len = %d", len(sums))
	}
	for i := range sums {
		if sums[i].TraceID != ids[len(ids)-1-i] {
			t.Fatalf("order[%d] = %s, want %s", i, sums[i].TraceID, ids[len(ids)-1-i])
		}
	}
}

func TestMaxSpansCap(t *testing.T) {
	tr := newTestTracer(Options{MaxSpans: 4})
	ctx, root := tr.StartTrace(context.Background(), "query", "siteA", DecideOn)
	for i := 0; i < 10; i++ {
		_, sp := StartSpan(ctx, "child")
		sp.End()
	}
	root.End()
	td, _ := tr.Trace(root.TraceID())
	if td.Spans != 4 {
		t.Fatalf("spans = %d, want 4 (capped)", td.Spans)
	}
	if tr.Stats().DroppedSpans != 7 {
		t.Fatalf("dropped = %d, want 7", tr.Stats().DroppedSpans)
	}
}

func TestSlowLogRingEviction(t *testing.T) {
	tr := newTestTracer(Options{SlowLog: 3, SlowThreshold: 10 * time.Millisecond})
	for i := 0; i < 5; i++ {
		tr.ObserveQuery(SlowQuery{SQL: fmt.Sprintf("q%d", i), Elapsed: 20 * time.Millisecond})
	}
	tr.ObserveQuery(SlowQuery{SQL: "fast", Elapsed: 5 * time.Millisecond}) // below threshold
	got := tr.SlowQueries()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, want := range []string{"q4", "q3", "q2"} {
		if got[i].SQL != want {
			t.Fatalf("slow[%d] = %s, want %s (got %+v)", i, got[i].SQL, want, got)
		}
	}
	if tr.Stats().SlowQueries != 5 {
		t.Fatalf("slow count = %d, want 5", tr.Stats().SlowQueries)
	}
}

func TestSlowLogDisabled(t *testing.T) {
	tr := newTestTracer(Options{SlowThreshold: -1})
	tr.ObserveQuery(SlowQuery{SQL: "q", Elapsed: time.Hour})
	if got := tr.SlowQueries(); len(got) != 0 {
		t.Fatalf("disabled slowlog recorded %+v", got)
	}
	if tr.SlowThreshold() != 0 {
		t.Fatalf("SlowThreshold() = %v, want 0", tr.SlowThreshold())
	}
}

func TestSamplingRates(t *testing.T) {
	const n = 1000
	count := func(rate float64) int {
		tr := newTestTracer(Options{Sample: rate})
		hits := 0
		for i := 0; i < n; i++ {
			if _, sp := tr.StartTrace(context.Background(), "q", "s", DecideSample); sp.Recording() {
				hits++
				sp.End()
			}
		}
		return hits
	}
	if got := count(-1); got != 0 {
		t.Fatalf("rate -1 sampled %d, want 0", got)
	}
	if got := count(1); got != n {
		t.Fatalf("rate 1 sampled %d, want %d", got, n)
	}
	if got := count(0.5); got < n/4 || got > 3*n/4 {
		t.Fatalf("rate 0.5 sampled %d of %d, want roughly half", got, n)
	}
	// DecideOn overrides a zero rate.
	tr := newTestTracer(Options{Sample: -1})
	if _, sp := tr.StartTrace(context.Background(), "q", "s", DecideOn); !sp.Recording() {
		t.Fatal("DecideOn must sample even at rate 0")
	}
}

func TestCarrierRoundTrip(t *testing.T) {
	tr := newTestTracer(Options{})
	ctx, sp := tr.StartTrace(context.Background(), "query", "siteA", DecideOn)
	car, ok := CarrierFromContext(ctx)
	if !ok || car.TraceID != sp.TraceID() || car.Parent != sp.SpanID() || !car.Sampled {
		t.Fatalf("carrier = %+v ok=%v", car, ok)
	}
	parsed, ok := ParseCarrier(car.Header())
	if !ok || parsed != car {
		t.Fatalf("ParseCarrier(%q) = %+v ok=%v", car.Header(), parsed, ok)
	}
	for _, bad := range []string{"", "abc", "a-b", "a-b-c-d", "-b-1", "a--1", "a-b-x"} {
		if _, ok := ParseCarrier(bad); ok {
			t.Fatalf("ParseCarrier(%q) accepted malformed value", bad)
		}
	}
	if _, ok := CarrierFromContext(context.Background()); ok {
		t.Fatal("untraced context must not produce a carrier")
	}
}

func TestRemoteContinuation(t *testing.T) {
	parent := newTestTracer(Options{})
	pctx, proot := parent.StartTrace(context.Background(), "query", "siteA", DecideOn)
	car, _ := CarrierFromContext(pctx)

	// The remote gateway continues the trace even with sampling disabled
	// locally, because the carrier says sampled.
	remote := newTestTracer(Options{Sample: -1})
	rctx := ContextWithRemote(context.Background(), car)
	_, rroot := remote.StartTrace(rctx, "query", "siteB", DecideSample)
	if !rroot.Recording() {
		t.Fatal("remote gateway must honour the carrier's sampling decision")
	}
	if rroot.TraceID() != proot.TraceID() {
		t.Fatalf("remote trace ID %q, want %q", rroot.TraceID(), proot.TraceID())
	}
	_, child := StartSpan(ContextWithSpan(rctx, rroot), "harvest")
	child.End()
	rroot.End()

	// Stitch the remote spans under the parent and check the merged tree.
	AttachRemote(pctx, rroot.Collected())
	proot.End()
	td, ok := parent.Trace(proot.TraceID())
	if !ok {
		t.Fatal("parent trace not stored")
	}
	if td.Spans != 3 {
		t.Fatalf("stitched spans = %d, want 3", td.Spans)
	}
	if len(td.Roots) != 1 {
		t.Fatalf("stitched roots = %+v, want the parent root only", td.Roots)
	}
	var remoteNode *Node
	for _, c := range td.Roots[0].Children {
		if c.Site == "siteB" {
			remoteNode = c
		}
	}
	if remoteNode == nil || !remoteNode.Remote {
		t.Fatalf("remote root not stitched under parent: %+v", td.Roots[0].Children)
	}
	if len(remoteNode.Children) != 1 || remoteNode.Children[0].Name != "harvest" {
		t.Fatalf("remote children = %+v", remoteNode.Children)
	}

	// An unsampled carrier must suppress remote tracing.
	rctx = ContextWithRemote(context.Background(), Carrier{TraceID: "t", Parent: "p", Sampled: false})
	if _, sp := remote.StartTrace(rctx, "query", "siteB", DecideOn); sp.Recording() {
		t.Fatal("unsampled carrier must win over DecideOn")
	}
}

func TestStoreMergesSameTraceID(t *testing.T) {
	tr := newTestTracer(Options{})
	car := Carrier{TraceID: "shared", Parent: "p1", Sampled: true}
	for i := 0; i < 2; i++ {
		ctx := ContextWithRemote(context.Background(), car)
		_, sp := tr.StartTrace(ctx, "query", "siteB", DecideSample)
		sp.End()
	}
	td, ok := tr.Trace("shared")
	if !ok || td.Spans != 2 {
		t.Fatalf("merged trace = %+v ok=%v, want 2 spans", td, ok)
	}
	if tr.Stats().Stored != 1 {
		t.Fatalf("stored = %d, want 1 (merge, not new entry)", tr.Stats().Stored)
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := newTestTracer(Options{})
	_, sp := tr.StartTrace(context.Background(), "query", "siteA", DecideOn)
	sp.End()
	sp.End()
	td, _ := tr.Trace(sp.TraceID())
	if td.Spans != 1 {
		t.Fatalf("double End recorded %d spans, want 1", td.Spans)
	}
	sp.SetAttr("late", "x")
	if td2, _ := tr.Trace(sp.TraceID()); td2.Roots[0].Attrs["late"] != "" {
		t.Fatal("attr set after End must not leak into the stored span")
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := newTestTracer(Options{Clock: time.Now})
	ctx, root := tr.StartTrace(context.Background(), "query", "siteA", DecideOn)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sctx, sp := StartSpan(ctx, "source")
			sp.SetAttr("i", fmt.Sprint(i))
			_, h := StartSpan(sctx, "harvest")
			h.End()
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	td, _ := tr.Trace(root.TraceID())
	if td.Spans != 33 {
		t.Fatalf("spans = %d, want 33", td.Spans)
	}
}

func TestBuildTreeOrphanBecomesRoot(t *testing.T) {
	roots := BuildTree([]SpanData{
		{SpanID: "a", Parent: "missing", Name: "orphan", Start: time.Unix(2, 0)},
		{SpanID: "b", Name: "root", Start: time.Unix(1, 0)},
	})
	if len(roots) != 2 {
		t.Fatalf("roots = %d, want 2", len(roots))
	}
	if roots[0].Name != "root" || roots[1].Name != "orphan" {
		t.Fatalf("roots misordered: %s, %s", roots[0].Name, roots[1].Name)
	}
}
