package trace

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"time"
)

// The reference model: the Span + recorder + snapshot implementation the
// slot recorder replaced, kept (minus its locks — the script below is
// sequential) so the two can be driven side by side. It differs from what
// it was copied from in one deliberate way, the behaviour the replacement
// changed: the store keeps each leg's recorder rather than a snapshot of
// it, so a span that ends after its root is visible in the stored trace.
// And it models the rule recycling added: an evicted leg whose spans have
// all ended is retired, and every span of it goes inert.

type refSpan struct {
	rec   *refRecorder
	ended bool
	data  SpanData
}

type refRecorder struct {
	tracer *refTracer
	root   *refSpan
	prefix string
	seq    uint64
	spans  []SpanData

	started, ended int  // local spans
	retired        bool // evicted with every span ended: its spans are inert
}

type refTracer struct {
	opts   Options
	traces map[string][]*refRecorder
	order  []string
	stats  Stats
}

func (t *refTracer) startTrace(remote *Carrier, name, site, traceID, prefix string) *refSpan {
	t.stats.Started++
	parent := ""
	if remote != nil {
		traceID, parent = remote.TraceID, remote.Parent
	}
	rec := &refRecorder{tracer: t, prefix: prefix, started: 1}
	sp := &refSpan{rec: rec, data: SpanData{TraceID: traceID, SpanID: rec.nextSpanID(),
		Parent: parent, Name: name, Site: site, Start: t.opts.Clock()}}
	rec.root = sp
	return sp
}

func (r *refRecorder) nextSpanID() string {
	r.seq++
	return r.prefix + "." + strconv.FormatUint(r.seq, 10)
}

func (s *refSpan) child(name string) *refSpan {
	if s.rec.retired {
		return &refSpan{rec: s.rec}
	}
	s.rec.started++
	return &refSpan{rec: s.rec, data: SpanData{TraceID: s.data.TraceID, SpanID: s.rec.nextSpanID(),
		Parent: s.data.SpanID, Name: name, Site: s.data.Site, Start: s.rec.tracer.opts.Clock()}}
}

func (s *refSpan) setAttr(key, value string) {
	if s.ended || s.rec.retired {
		return
	}
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]string, 2)
	}
	s.data.Attrs[key] = value
}

func (s *refSpan) setError(err error) {
	if !s.ended && !s.rec.retired {
		s.data.Err = err.Error()
	}
}

func (s *refSpan) end() {
	if s.ended || s.rec.retired {
		return
	}
	s.ended = true
	s.rec.ended++
	s.data.Duration = s.rec.tracer.opts.Clock().Sub(s.data.Start)
	s.rec.spans = append(s.rec.spans, s.data)
	if s.rec.root == s {
		s.rec.tracer.store(s.data.TraceID, s.rec)
	}
}

func (r *refRecorder) attachRemote(spans []SpanData) {
	if r.retired {
		return
	}
	for _, d := range spans {
		d.Remote = true
		r.spans = append(r.spans, d)
	}
}

func (t *refTracer) store(id string, rec *refRecorder) {
	if _, ok := t.traces[id]; ok {
		t.traces[id] = append(t.traces[id], rec)
		return
	}
	for len(t.order) >= t.opts.Capacity {
		for _, leg := range t.traces[t.order[0]] {
			if leg.started == leg.ended {
				leg.retired = true
				t.stats.Recycled++
			}
		}
		delete(t.traces, t.order[0])
		t.order = t.order[1:]
		t.stats.Evicted++
	}
	t.traces[id] = []*refRecorder{rec}
	t.order = append(t.order, id)
	t.stats.Stored++
}

// collected is what Collected reads on one of r's spans.
func (r *refRecorder) collected() []SpanData {
	if r.retired {
		return nil
	}
	return r.spans
}

func (t *refTracer) spans(id string) []SpanData {
	var out []SpanData
	for _, rec := range t.traces[id] {
		out = append(out, rec.spans...)
	}
	return out
}

func (t *refTracer) trace(id string) (*TraceData, bool) {
	if _, ok := t.traces[id]; !ok {
		return nil, false
	}
	spans := t.spans(id)
	return &TraceData{TraceID: id, Spans: len(spans), Roots: BuildTree(spans)}, true
}

func (t *refTracer) summaries() []Summary {
	out := make([]Summary, 0, len(t.order))
	for i := len(t.order) - 1; i >= 0; i-- {
		id := t.order[i]
		// The row is the first stored leg's root. (Finding it as the first
		// span whose parent the trace lacks, as this model did, misreads a
		// trace whose legs attached one another's spans: a store of three
		// evicted every such trace before the check.)
		root := t.traces[id][0].root.data
		out = append(out, Summary{TraceID: id, Name: root.Name, Site: root.Site, Start: root.Start,
			Duration: root.Duration, Spans: len(t.spans(id)), Err: root.Err, SQL: root.Attrs["sql"]})
	}
	return out
}

var bg = context.Background()

// tickClock returns a clock that advances 1ms per reading from start.
func tickClock(start time.Time) func() time.Time {
	return func() time.Time {
		start = start.Add(time.Millisecond)
		return start
	}
}

// pair is one span in both implementations.
type pair struct {
	site int // which gateway
	real Span
	ref  *refSpan
}

// leg is a root that continues caller's trace on the other gateway.
type leg struct{ root, caller pair }

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sorted orders wire spans by ID: Collected lists a trace's own spans in
// the order they ended in both implementations, but the replacement puts
// stitched-in remote spans after them rather than where they arrived.
func sorted(spans []SpanData) []SpanData {
	out := append([]SpanData(nil), spans...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Remote != out[j].Remote {
			return !out[i].Remote
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// TestDifferentialAgainstReference drives the slot recorder and the
// implementation it replaced with the same seeded random script — roots
// (local, continued from a remote carrier, and the same trace ID stored
// twice), children of live and ended spans, string and integer attributes
// with repeated keys and more keys than a slot holds inline, errors, ends
// in any order including after the root and twice, remote spans attached —
// on two gateways, and requires Trace(id), Traces(), Collected() and
// Stats() to agree field for field, and Stats().Bytes to be what the store
// and the free lists hold. Each seed runs twice: with a store of three,
// which evicts and recycles, so Collected on a retired leg's handles reads
// nothing on both sides; and with a store no script fills, so Collected
// compares every leg's spans in full.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, capacity := range []int{3, 1 << 10} {
		t.Run(fmt.Sprint("capacity=", capacity), func(t *testing.T) { differential(t, capacity) })
	}
}

func differential(t *testing.T, capacity int) {
	keys := []string{"sql", "url", "mode", "hit", "driver", "endpoint"}
	names := []string{"query", "source", "harvest", "parse", "consolidate"}
	var recycled, evicted int64
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var real [2]*Tracer
		var ref [2]*refTracer
		for i := range real {
			// Offset the gateways' clocks so no two spans share a start
			// time and tree order never depends on input order.
			start := time.Unix(50000, int64(i)*int64(500*time.Microsecond))
			o := Options{Capacity: capacity, MaxSpans: 1 << 20}
			o.Clock = tickClock(start)
			real[i] = New(o)
			o.Clock = tickClock(start)
			ref[i] = &refTracer{opts: o, traces: map[string][]*refRecorder{}}
		}
		var spans []pair
		var ids [2][]string
		var legs []leg
		startRoot := func(site int, remote *Carrier) {
			ctx := bg
			if remote != nil {
				ctx = ContextWithRemote(ctx, *remote)
			}
			_, sp := real[site].StartTrace(ctx, "query", fmt.Sprint("site", site), DecideOn)
			rs := ref[site].startTrace(remote, "query", fmt.Sprint("site", site),
				sp.TraceID(), hex.EncodeToString(sp.rec.rnd[16:]))
			spans = append(spans, pair{site, sp, rs})
			ids[site] = append(ids[site], sp.TraceID())
		}
		startRoot(0, nil)
		for op := 0; op < 300; op++ {
			p := spans[rng.Intn(len(spans))]
			switch k := rng.Intn(20); {
			case k == 0:
				startRoot(rng.Intn(2), nil)
			case k == 1 && !p.ref.rec.retired: // a leg on the other gateway, continuing p's trace
				car := Carrier{TraceID: p.real.TraceID(), Parent: p.real.SpanID(), Sampled: true}
				if car.Parent != p.ref.data.SpanID {
					t.Fatalf("seed %d: span ID %q, reference %q", seed, car.Parent, p.ref.data.SpanID)
				}
				startRoot(1-p.site, &car)
				legs = append(legs, leg{spans[len(spans)-1], p})
			case k < 7:
				name := names[rng.Intn(len(names))]
				spans = append(spans, pair{p.site, p.real.Child(name), p.ref.child(name)})
			case k < 11:
				key, v := keys[rng.Intn(len(keys))], fmt.Sprint("v", op)
				p.real.SetAttr(key, v)
				p.ref.setAttr(key, v)
			case k < 13:
				key := keys[rng.Intn(len(keys))]
				p.real.SetAttrInt(key, op-150)
				p.ref.setAttr(key, strconv.Itoa(op-150))
			case k == 13:
				err := errors.New(fmt.Sprint("failure ", op))
				p.real.SetError(err)
				p.ref.setError(err)
			case k == 14 && len(legs) > 0: // a leg's answer arrives: stitch its spans in
				l := legs[rng.Intn(len(legs))]
				wire := l.root.real.Collected()
				l.caller.real.attachRemote(wire)
				l.caller.ref.rec.attachRemote(wire)
			default:
				p.real.End()
				p.ref.end()
			}
		}
		for _, p := range spans { // stragglers: everything still open ends now
			p.real.End()
			p.ref.end()
		}
		for _, p := range spans {
			if got, want := mustJSON(t, sorted(p.real.Collected())), mustJSON(t, sorted(p.ref.rec.collected())); got != want {
				t.Fatalf("seed %d: Collected differs\n got: %s\nwant: %s", seed, got, want)
			}
		}
		for site := range real {
			for _, id := range ids[site] {
				got, gok := real[site].Trace(id)
				want, wok := ref[site].trace(id)
				if gok != wok || mustJSON(t, got) != mustJSON(t, want) {
					t.Fatalf("seed %d: Trace(%s) differs\n got: %s\nwant: %s", seed, id, mustJSON(t, got), mustJSON(t, want))
				}
			}
			if got, want := mustJSON(t, real[site].Traces()), mustJSON(t, ref[site].summaries()); got != want {
				t.Fatalf("seed %d: Traces differs\n got: %s\nwant: %s", seed, got, want)
			}
			got, want := real[site].Stats(), ref[site].stats
			if held := heldByWalk(real[site]); got.Bytes != held {
				t.Fatalf("seed %d: Stats.Bytes = %d, the store and free lists hold %d", seed, got.Bytes, held)
			}
			got.Bytes = 0 // memory, which the model does not have
			if got != want {
				t.Fatalf("seed %d: Stats = %+v, reference %+v", seed, got, want)
			}
			recycled, evicted = recycled+got.Recycled, evicted+got.Evicted
		}
	}
	switch {
	case capacity == 3 && recycled == 0:
		t.Fatal("no seed recycled a leg: the script never reached a stale handle")
	case capacity > 3 && evicted > 0:
		t.Fatalf("%d traces evicted: some legs' spans went uncompared", evicted)
	}
	t.Logf("%d legs recycled across the seeds", recycled)
}
