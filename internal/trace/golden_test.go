package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden.json from this build's output")

var (
	traceIDRE = regexp.MustCompile(`[0-9a-f]{32}`)
	prefixRE  = regexp.MustCompile(`"([0-9a-f]{8})\.`)
)

// normalizeIDs replaces the random parts of the IDs (the trace ID, each
// leg's span-ID prefix) with stable names in order of first appearance, so
// the rest of the bytes can be held to a golden file.
func normalizeIDs(b []byte) []byte {
	b = traceIDRE.ReplaceAll(b, []byte("TRACE"))
	seen := map[string]string{}
	return prefixRE.ReplaceAllFunc(b, func(m []byte) []byte {
		p := string(m[1:9])
		if _, ok := seen[p]; !ok {
			seen[p] = "leg" + string(rune('A'+len(seen)))
		}
		return []byte(`"` + seen[p] + ".")
	})
}

func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Indent(&got, normalizeIDs(raw), "", "  "); err != nil {
		t.Fatal(err)
	}
	got.WriteByte('\n')
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s differs from the golden file (go test -update rewrites it)\n got: %s\nwant: %s", name, got.Bytes(), want)
	}
}

// TestWireGolden holds the two JSON forms a trace takes on the wire to
// golden files written by the Span/recorder implementation this package
// replaced: what a remote gateway returns in WireResponse.trace
// (Collected) and what GET /traces/<id> serves (Tracer.Trace), on a
// fixed-clock trace that crosses from gateway A to gateway B and back.
func TestWireGolden(t *testing.T) {
	a, b := newTestTracer(Options{}), newTestTracer(Options{})

	actx, aroot := a.StartTrace(bg, "query", "siteA", DecideOn)
	aroot.SetAttr("sql", "SELECT * FROM Processor")
	aroot.SetAttr("mode", "real-time")
	aroot.SetAttr("target", "*")
	fctx, fanout := StartSpan(actx, "fanout")
	fanout.SetAttr("sites", "2")
	fanout.SetAttr("legs", "2")
	rctx, remote := StartSpan(fctx, "remote-query")
	remote.SetAttr("site", "siteB")
	remote.SetAttr("endpoint", "http://b.example:8080")
	remote.SetAttr("endpoint", "http://b2.example:8080") // a retry overwrites
	car, ok := CarrierFromContext(rctx)
	if !ok {
		t.Fatal("no carrier")
	}
	hdr, ok := ParseCarrier(car.Header())
	if !ok {
		t.Fatalf("own header %q rejected", car.Header())
	}

	// Gateway B serves the leg.
	bctx, broot := b.StartTrace(ContextWithRemote(bg, hdr), "query", "siteB", DecideSample)
	broot.SetAttr("sql", "SELECT * FROM Processor")
	broot.SetAttr("mode", "real-time")
	_, parse := StartSpan(bctx, "parse")
	parse.End()
	sctx, source := StartSpan(bctx, "source")
	source.SetAttr("url", "gridrm:mem://siteB:1")
	hctx, harvest := StartSpan(sctx, "harvest")
	_, checkout := StartSpan(hctx, "pool-checkout")
	checkout.SetAttr("url", "gridrm:mem://siteB:1")
	checkout.SetAttr("reused", "false")
	checkout.End()
	_, exec := StartSpan(hctx, "driver-execute")
	exec.SetAttr("driver", "jdbc-mem")
	exec.SetError(errors.New(`agent said "no"`))
	exec.End()
	harvest.SetError(errors.New(`agent said "no"`))
	harvest.End()
	source.SetError(errors.New(`agent said "no"`))
	source.End()
	_, consolidate := StartSpan(bctx, "consolidate")
	consolidate.End()
	broot.End()
	wire := broot.Collected()
	checkGolden(t, "collected.golden.json", wire)

	// Back on A: the spans arrive as JSON and are stitched in.
	raw, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	var arrived []SpanData
	if err := json.Unmarshal(raw, &arrived); err != nil {
		t.Fatal(err)
	}
	AttachRemote(rctx, arrived)
	remote.End()
	fanout.End()
	aroot.End()
	td, ok := a.Trace(aroot.TraceID())
	if !ok {
		t.Fatal("trace not stored")
	}
	checkGolden(t, "trace.golden.json", td)
	checkGolden(t, "traces.golden.json", a.Traces())
}
