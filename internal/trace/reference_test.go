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
	rec := &refRecorder{tracer: t, prefix: prefix}
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
	return &refSpan{rec: s.rec, data: SpanData{TraceID: s.data.TraceID, SpanID: s.rec.nextSpanID(),
		Parent: s.data.SpanID, Name: name, Site: s.data.Site, Start: s.rec.tracer.opts.Clock()}}
}

func (s *refSpan) setAttr(key, value string) {
	if s.ended {
		return
	}
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]string, 2)
	}
	s.data.Attrs[key] = value
}

func (s *refSpan) setError(err error) {
	if !s.ended {
		s.data.Err = err.Error()
	}
}

func (s *refSpan) end() {
	if s.ended {
		return
	}
	s.ended = true
	s.data.Duration = s.rec.tracer.opts.Clock().Sub(s.data.Start)
	s.rec.spans = append(s.rec.spans, s.data)
	if s.rec.root == s {
		s.rec.tracer.store(s.data.TraceID, s.rec)
	}
}

func (r *refRecorder) attachRemote(spans []SpanData) {
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
		delete(t.traces, t.order[0])
		t.order = t.order[1:]
		t.stats.Evicted++
	}
	t.traces[id] = []*refRecorder{rec}
	t.order = append(t.order, id)
	t.stats.Stored++
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
		spans := t.spans(id)
		s := Summary{TraceID: id, Spans: len(spans)}
		ids := make(map[string]bool, len(spans))
		for _, sd := range spans {
			ids[sd.SpanID] = true
		}
		for _, sd := range spans {
			if !sd.Remote && (sd.Parent == "" || !ids[sd.Parent]) {
				s.Name, s.Site, s.Start = sd.Name, sd.Site, sd.Start
				s.Duration, s.Err = sd.Duration, sd.Err
				s.SQL = sd.Attrs["sql"]
				break
			}
		}
		out = append(out, s)
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
	real *Span
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
// on two gateways with a small store, and requires Trace(id), Traces(),
// Collected() and Stats() to agree field for field.
func TestDifferentialAgainstReference(t *testing.T) {
	keys := []string{"sql", "url", "mode", "hit", "driver", "endpoint"}
	names := []string{"query", "source", "harvest", "parse", "consolidate"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var real [2]*Tracer
		var ref [2]*refTracer
		for i := range real {
			// Offset the gateways' clocks so no two spans share a start
			// time and tree order never depends on input order.
			start := time.Unix(50000, int64(i)*int64(500*time.Microsecond))
			o := Options{Capacity: 3, MaxSpans: 1 << 20}
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
				sp.TraceID(), hex.EncodeToString(sp.rec.prefix[:]))
			spans = append(spans, pair{site, sp, rs})
			ids[site] = append(ids[site], sp.TraceID())
		}
		startRoot(0, nil)
		for op := 0; op < 300; op++ {
			p := spans[rng.Intn(len(spans))]
			switch k := rng.Intn(20); {
			case k == 0:
				startRoot(rng.Intn(2), nil)
			case k == 1: // a leg on the other gateway, continuing p's trace
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
				l.caller.real.rec.attachRemote(wire)
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
			if got, want := mustJSON(t, sorted(p.real.Collected())), mustJSON(t, sorted(p.ref.rec.spans)); got != want {
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
			if got, want := real[site].Stats(), ref[site].stats; got != want {
				t.Fatalf("seed %d: Stats = %+v, reference %+v", seed, got, want)
			}
		}
	}
}
