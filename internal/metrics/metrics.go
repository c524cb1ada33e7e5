// Package metrics is a dependency-free instrumentation layer for the
// gateway: fixed-bucket latency histograms, which the hot paths update
// lock-free, and counters and gauges that components already keep, all
// collected in a Registry that renders the Prometheus text exposition
// format (served by the servlet's GET /metrics).
//
// A component exports the counters and gauges it keeps through Collect:
// one collect per state owner, which reads that owner once per scrape and
// emits every series from that one reading, so the series of one owner on
// one scrape agree with each other. The registry mutex is only taken at
// registration and scrape time.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency buckets, in seconds.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, +Inf implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds))}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// HistogramSnapshot summarises one histogram (or one label of a vec) for
// status reports.
type HistogramSnapshot struct {
	// Label is the label value ("" for plain histograms).
	Label string `json:"label"`
	// Count is the number of observations.
	Count int64 `json:"count"`
	// Sum is the sum of observed values.
	Sum float64 `json:"sum"`
}

// HistogramVec is a family of histograms partitioned by one label.
type HistogramVec struct {
	bounds []float64
	mu     sync.RWMutex
	kids   map[string]*Histogram
}

// With returns the histogram for one label value, creating it on first use.
func (hv *HistogramVec) With(label string) *Histogram {
	hv.mu.RLock()
	h, ok := hv.kids[label]
	hv.mu.RUnlock()
	if ok {
		return h
	}
	hv.mu.Lock()
	defer hv.mu.Unlock()
	if h, ok = hv.kids[label]; ok {
		return h
	}
	h = newHistogram(hv.bounds)
	hv.kids[label] = h
	return h
}

// Snapshot summarises every label's histogram, sorted by label.
func (hv *HistogramVec) Snapshot() []HistogramSnapshot {
	hv.mu.RLock()
	out := make([]HistogramSnapshot, 0, len(hv.kids))
	for label, h := range hv.kids {
		out = append(out, HistogramSnapshot{Label: label, Count: h.Count(), Sum: h.Sum()})
	}
	hv.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one registered metric name: a histogram, a histogram vec or a
// series of a collect.
type family struct {
	name, help string
	kind       kind
	label      string // vec label name, "" otherwise

	hist    *Histogram
	vec     *HistogramVec
	collect *collect // with idx, the series' place in the collect's reading
	idx     int
}

// collect is one registered Collect: its read function and the families
// it declared, in order.
type collect struct {
	read func(*Collection)
	fams []*family
}

// Collection receives the series one collect emits: at registration, to
// fix their names, help strings and types; at each scrape, their values,
// which must come in the same order under the same names.
type Collection struct {
	declare bool
	fams    []*family
	vals    []float64
	err     error
}

// Counter emits a counter series.
func (c *Collection) Counter(name, help string, v float64) { c.emit(name, help, kindCounter, v) }

// Gauge emits a gauge series.
func (c *Collection) Gauge(name, help string, v float64) { c.emit(name, help, kindGauge, v) }

// Flag is a gauge's value for a condition: 1 while it holds, 0 otherwise.
func Flag(on bool) float64 {
	if on {
		return 1
	}
	return 0
}

func (c *Collection) emit(name, help string, k kind, v float64) {
	if c.declare {
		c.fams = append(c.fams, &family{name: name, help: help, kind: k})
		return
	}
	if i := len(c.vals); c.err == nil && (i >= len(c.fams) || c.fams[i].name != name || c.fams[i].kind != k) {
		c.err = fmt.Errorf("metrics: a collect emitted %s %q, not the series it declared at registration", k, name)
	}
	c.vals = append(c.vals, v)
}

// scrape runs the collect's read once, putting one value per declared
// family into vals.
func (col *collect) scrape(vals []float64) error {
	c := Collection{fams: col.fams, vals: vals[:0:len(vals)]}
	col.read(&c)
	if c.err == nil && len(c.vals) < len(col.fams) {
		c.err = fmt.Errorf("metrics: a collect did not emit %q, which it declared at registration", col.fams[len(c.vals)].name)
	}
	return c.err
}

// Registry holds registered metrics and renders them as Prometheus text.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{byName: make(map[string]*family)} }

func (r *Registry) add(fams ...*family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range fams {
		if _, dup := r.byName[f.name]; dup {
			panic(fmt.Sprintf("metrics: %q registered twice", f.name))
		}
		r.byName[f.name] = f
	}
	r.families = append(r.families, fams...)
}

// Histogram registers and returns a histogram with the given bucket upper
// bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	h := newHistogram(buckets)
	r.add(&family{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// HistogramVec registers and returns a one-label histogram family (nil
// buckets means DefBuckets).
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	hv := &HistogramVec{bounds: append([]float64(nil), buckets...), kids: make(map[string]*Histogram)}
	r.add(&family{name: name, help: help, kind: kindHistogram, label: label, vec: hv})
	return hv
}

// Collect registers the series of one state owner. At each scrape read
// runs once: it reads the owner once and emits every series from that one
// reading, so they agree with each other. Registration runs read once too,
// to fix the series' names, help strings and types; a name already
// registered panics. A scrape whose read emits a series it did not declare
// then, or leaves one out, fails with an error.
func (r *Registry) Collect(read func(*Collection)) {
	c := Collection{declare: true}
	read(&c)
	col := &collect{read: read, fams: c.fams}
	for i, f := range c.fams {
		f.collect, f.idx = col, i
	}
	r.add(c.fams...)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), in registration order. It runs every
// collect before it writes, so a collect that breaks its declaration fails
// the scrape with nothing written.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	vals := make([]float64, len(fams)) // each collected series' value
	for i, f := range fams {
		if f.collect != nil && f.idx == 0 {
			if err := f.collect.scrape(vals[i : i+len(f.collect.fams)]); err != nil {
				return err
			}
		}
	}
	for i, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		var err error
		switch {
		case f.collect != nil:
			_, err = fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(vals[i]))
		case f.hist != nil:
			err = writeHistogram(w, f.name, "", "", f.hist)
		case f.vec != nil:
			f.vec.mu.RLock()
			labels := make([]string, 0, len(f.vec.kids))
			for l := range f.vec.kids {
				labels = append(labels, l)
			}
			f.vec.mu.RUnlock()
			sort.Strings(labels)
			for _, l := range labels {
				if err = writeHistogram(w, f.name, f.label, l, f.vec.With(l)); err != nil {
					break
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name, label, value string, h *Histogram) error {
	pair := ""
	sep := ""
	if label != "" {
		pair = label + `="` + escapeLabel(value) + `"`
		sep = ","
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, pair, sep, formatFloat(b), cum); err != nil {
			return err
		}
	}
	count := h.Count()
	if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, pair, sep, count); err != nil {
		return err
	}
	braces := ""
	if pair != "" {
		braces = "{" + pair + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, braces, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, braces, count)
	return err
}

// formatFloat renders a sample without an exponent, so a whole number reads
// as an integer.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

func escapeLabel(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`).Replace(s)
}
