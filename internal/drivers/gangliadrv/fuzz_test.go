package gangliadrv

import (
	"encoding/xml"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"testing"
	"time"

	"gridrm/internal/agents/ganglia"
	"gridrm/internal/agents/sim"
	"gridrm/internal/glue"
	"gridrm/internal/schema"
)

// FuzzGangliaDocument feeds parseDocument what a hostile gmond could send:
// it must not panic, must allocate in proportion to the input, and every
// document it accepts must map to rows of every group the driver serves
// without error, each integral value the truncated reading it came from.
// The seeds are the agent's own dumps.
func FuzzGangliaDocument(f *testing.F) {
	// One host's dump: a larger seed slows the minimizing of every input
	// derived from it more than it adds.
	site := sim.New(sim.Config{Name: "g", Hosts: 1, Seed: 17})
	site.StepN(2)
	out, err := xml.Marshal(ganglia.BuildDocument(site))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(xml.Header), out...))
	f.Add([]byte(`<GANGLIA_XML><CLUSTER><HOST NAME="h"><METRIC NAME="load_one" VAL="x" TYPE="string"/>` +
		`<METRIC NAME="cpu_num" VAL="1e300" TYPE="uint32"/><METRIC NAME="boottime" VAL="-9e18"/></HOST></CLUSTER></GANGLIA_XML>`))
	f.Add([]byte(`<GANGLIA_XML><CLUSTER><HOST><METRIC/><METRIC NAME="" VAL=""/></HOST><HOST/></CLUSTER></GANGLIA_XML>`))
	ds := Schema()
	f.Fuzz(func(t *testing.T, data []byte) {
		var doc *ganglia.Document
		var err error
		if grew := allocated(func() { doc, err = parseDocument(data) }); grew > 1<<20+256*uint64(len(data)) {
			t.Fatalf("parsing %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		for name, gm := range ds.Groups {
			g, ok := glue.Lookup(name)
			if !ok {
				t.Fatalf("schema maps unknown group %s", name)
			}
			for _, host := range doc.Cluster.Hosts {
				if _, err := schema.BuildRow(g, gm, hostResolver(g, gm, host)); err != nil {
					t.Fatalf("accepted document does not map to %s rows: %v\nhost %+v", name, err, host)
				}
				metrics := make(map[string]ganglia.Metric, len(host.Metrics))
				for _, m := range host.Metrics {
					metrics[m.Name] = m
				}
				for _, fm := range gm.Fields {
					if err := integralIsReading(host, metrics, fm.Native); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	})
}

// integralIsReading checks an integral value hostValue reads for native
// against the VAL it came from: it must be that reading truncated (scaled
// to MB first for gb-to-mb, divided after for kb-to-mb), so a VAL no int64
// holds can only read NULL.
func integralIsReading(host ganglia.Host, metrics map[string]ganglia.Metric, native string) error {
	v, ok := hostValue(host, metrics, native)
	if !ok {
		return nil
	}
	var n int64
	switch v := v.(type) {
	case int64:
		n = v
	case time.Time:
		n = v.Unix()
	default:
		return nil
	}
	name, conv, _ := cutConv(native)
	val := metrics[name].Val
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("%s reads %d from the non-numeric VAL %q", native, n, val)
	}
	want := math.Trunc(f)
	switch conv {
	case "kb-to-mb":
		want = math.Trunc(want / 1024)
	case "gb-to-mb":
		want = math.Trunc(f * 1024)
	}
	if float64(n) != want {
		return fmt.Errorf("%s reads %d from VAL %q, want %g", native, n, val, want)
	}
	return nil
}

// allocated reports the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
