package bench

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 10 {
		t.Fatalf("experiments = %v", ids)
	}
	for i, id := range ids {
		want := "e" + string(rune('1'+i))
		if i == 9 {
			want = "e10"
		}
		if id != want {
			t.Errorf("ids[%d] = %q, want %q (numeric order)", i, id, want)
		}
		e, ok := Lookup(id)
		if !ok || e.Anchor == "" || e.Claim == "" || e.run == nil {
			t.Errorf("experiment %s incomplete: %+v", id, e)
		}
	}
	if _, ok := Lookup("e99"); ok {
		t.Error("unknown experiment found")
	}
	if err := Run(io.Discard, "e99", true); err == nil {
		t.Error("running unknown experiment succeeded")
	}
}

// TestEveryExperimentRunsQuick executes the whole harness in quick mode —
// the experiments are themselves assertions (E9 and E10 return errors on
// contract violations), so this is the harness's regression test.
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick harness; skipped in -short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(&buf, id, true); err != nil {
				t.Fatalf("%s: %v\n%s", id, err, buf.String())
			}
			out := buf.String()
			if !strings.Contains(out, "=== "+id+" ") {
				t.Errorf("missing header:\n%s", out)
			}
			if !strings.Contains(out, "completed in") {
				t.Errorf("missing completion marker:\n%s", out)
			}
		})
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable(&buf, "name", "value")
	tb.row("x", 1.5)
	tb.row("y", 42)
	tb.flush()
	out := buf.String()
	for _, want := range []string{"name", "-----", "1.50", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestPickAndTimeIt(t *testing.T) {
	if got := pick(true, []int{1}, []int{1, 2, 3}); len(got) != 1 {
		t.Error("quick pick wrong")
	}
	if got := pick(false, []int{1}, []int{1, 2, 3}); len(got) != 3 {
		t.Error("full pick wrong")
	}
	// One iteration per case is enough here; Run sets its own benchtime.
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	r := &run{w: io.Discard}
	n := 0
	res := r.measure("counts", loop(func() error { n++; return nil }))
	if r.err != nil || res.N == 0 || n < res.N || perOp(res) < 0 {
		t.Errorf("measure: %+v after %d calls, err %v", res, n, r.err)
	}
	r.measure("fails", loop(func() error { return io.EOF }))
	if !errors.Is(r.err, io.EOF) {
		t.Errorf("measure swallowed the case's error: %v", r.err)
	}
	ran := false
	r.measure("after a failure", func(*testing.B) error { ran = true; return nil })
	if ran || r.cases != 3 {
		t.Errorf("a case ran after the first failure (ran=%v cases=%d)", ran, r.cases)
	}
}

// TestWorkersShareTheCount pins the concurrent cases' loop: n goroutines
// make exactly the asked number of calls between them, and a failing call
// is returned.
func TestWorkersShareTheCount(t *testing.T) {
	var calls atomic.Int64
	if err := workers(8, 1000, func() error { calls.Add(1); return nil }); err != nil || calls.Load() != 1000 {
		t.Errorf("workers made %d calls of 1000, err %v", calls.Load(), err)
	}
	if err := workers(4, 100, func() error { return io.EOF }); !errors.Is(err, io.EOF) {
		t.Errorf("workers = %v, want io.EOF", err)
	}
}
