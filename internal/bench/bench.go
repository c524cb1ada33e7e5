// Package bench is the single definition of the GridRM paper experiments:
// one scenario per experiment in DESIGN.md's per-experiment index (E1–E10),
// each regenerating the table/behaviour the paper's figure or claim
// corresponds to. An experiment builds its fixture once and hands every
// measured loop to run.measure as a testing.B case; two front-ends execute
// the same cases. cmd/gridrm-bench (Run) times each case with
// testing.Benchmark and prints the tables; `go test -bench Experiments` at
// the repository root (Bench) runs each case as a sub-benchmark.
//
// The paper (CLUSTER 2003) reports no absolute numbers — its evaluation is
// the architecture figures plus deployment experience — so each experiment
// here states the qualitative claim it checks (who wins, by what shape)
// and prints the measured table; EXPERIMENTS.md records the outcomes.
package bench

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"text/tabwriter"
	"time"
)

// Experiment is one registered scenario.
type Experiment struct {
	// ID is the experiment key ("e1" ... "e10").
	ID string
	// Anchor names the paper figure/section reproduced.
	Anchor string
	// Claim is the qualitative expectation being checked.
	Claim string
	// run executes the experiment: fixtures, measured cases (r.measure),
	// tables (r.w) and the unmeasured checks, whose failure it returns.
	run func(r *run) error
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.ID] = e
}

// Lookup returns an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// e1 < e2 < ... < e10 (numeric suffix order).
		return expNum(out[i]) < expNum(out[j])
	})
	return out
}

func expNum(id string) int {
	n := 0
	for i := 1; i < len(id); i++ {
		n = n*10 + int(id[i]-'0')
	}
	return n
}

// run is one execution of an experiment by either front-end.
type run struct {
	// w receives the tables (io.Discard under go test).
	w io.Writer
	// quick selects the reduced parameter sweeps.
	quick bool
	// b is the parent benchmark under go test, nil when printing tables.
	b *testing.B
	// cases counts the measure calls; err is the first case failure, after
	// which the remaining cases are skipped.
	cases int
	err   error
}

// measure executes one measured case: fn builds whatever the case alone
// needs, calls b.ResetTimer and runs the operation b.N times; counters the
// table wants from the fixture leave through b.ReportMetric. Printing
// tables, the case runs under testing.Benchmark and its result is returned;
// under go test it runs as the sub-benchmark name and the result is zero
// (go test prints it, and the table goes to io.Discard).
func (r *run) measure(name string, fn func(b *testing.B) error) testing.BenchmarkResult {
	r.cases++
	if r.err != nil {
		return testing.BenchmarkResult{}
	}
	wrapped := func(b *testing.B) {
		if err := fn(b); err != nil {
			r.err = fmt.Errorf("%s: %w", name, err)
			b.Fatal(err)
		}
	}
	if r.b != nil {
		r.b.Run(name, wrapped)
		return testing.BenchmarkResult{}
	}
	return testing.Benchmark(wrapped)
}

func (r *run) exec(e Experiment) error {
	if err := e.run(r); err != nil {
		return err
	}
	return r.err
}

// perOp is a case's mean wall-clock time per operation.
func perOp(res testing.BenchmarkResult) time.Duration {
	return time.Duration(res.NsPerOp())
}

// loop is the case with no set-up of its own: fn, b.N times.
func loop(fn func() error) func(b *testing.B) error {
	return func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	}
}

// workers spreads calls calls of fn over n goroutines and returns the first
// error; a worker that fails stops, the others finish the count.
func workers(n, calls int, fn func() error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, n) // one send per worker at most
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(calls) {
				if err := fn(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// Bench is the go test front-end: it runs experiment id with every measured
// case as a sub-benchmark of b, over the full parameter sweep. An experiment
// without a measured loop (E10) runs its checks once and skips.
func Bench(b *testing.B, id string) error {
	e, ok := Lookup(id)
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	r := &run{w: io.Discard, b: b}
	if err := r.exec(e); err != nil {
		return fmt.Errorf("bench: %s: %w", id, err)
	}
	if r.cases == 0 {
		b.Skip("no measured loop; its checks passed")
	}
	return nil
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer, quick bool) error {
	for _, id := range IDs() {
		if err := Run(w, id, quick); err != nil {
			return err
		}
	}
	return nil
}

// Run is the table front-end: it executes one experiment by ID with a
// standard header, timing each case for 200ms (20ms when quick).
func Run(w io.Writer, id string, quick bool) error {
	e, ok := Lookup(id)
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	// testing.Benchmark takes its duration from the -test.benchtime flag
	// and from nowhere else; Init registers it when go test has not.
	testing.Init()
	benchtime := flag.Lookup("test.benchtime").Value
	defer benchtime.Set(benchtime.String())
	d := "200ms"
	if quick {
		d = "20ms"
	}
	if err := benchtime.Set(d); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n=== %s — %s ===\n", e.ID, e.Anchor)
	fmt.Fprintf(w, "claim: %s\n\n", e.Claim)
	start := time.Now()
	if err := (&run{w: w, quick: quick}).exec(e); err != nil {
		return fmt.Errorf("bench: %s: %w", id, err)
	}
	fmt.Fprintf(w, "\n[%s completed in %s]\n", e.ID, time.Since(start).Round(time.Millisecond))
	return nil
}

// table is a small helper for aligned experiment output.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer, headers ...string) *table {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	t := &table{tw: tw}
	t.row(toAny(headers)...)
	sep := make([]any, len(headers))
	for i, h := range headers {
		sep[i] = dashes(len(h))
	}
	t.row(sep...)
	return t
}

func toAny(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		switch x := c.(type) {
		case float64:
			fmt.Fprintf(t.tw, "%.2f", x)
		case time.Duration:
			switch {
			case x >= time.Millisecond:
				fmt.Fprintf(t.tw, "%s", x.Round(10*time.Microsecond))
			case x >= time.Microsecond:
				fmt.Fprintf(t.tw, "%s", x.Round(10*time.Nanosecond))
			default:
				fmt.Fprintf(t.tw, "%s", x)
			}
		default:
			fmt.Fprintf(t.tw, "%v", x)
		}
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { _ = t.tw.Flush() }

// pick returns quick values when quick is set, full otherwise.
func pick[T any](quick bool, quickVals, fullVals []T) []T {
	if quick {
		return quickVals
	}
	return fullVals
}
