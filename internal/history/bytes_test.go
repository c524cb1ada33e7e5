package history

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// harvestShape records what the benchmark's harvest_history workload keeps:
// sources × samples Processor samples of two hosts, HostName and
// LoadLast1Min filled (both hosts at one of five loads) and every other
// field NULL, taken 1 s apart and jittered by up to ±250 ms as live
// harvests are, the sources interleaved. It returns the store and the live
// heap it grew by, the inputs built beforehand not counted.
func harvestShape(t *testing.T, sources, samples int) (*Store, int64) {
	t.Helper()
	meta, err := resultset.MetadataForGroup(glue.Processor, nil)
	if err != nil {
		t.Fatal(err)
	}
	host, load := glue.Processor.FieldIndex("HostName"), glue.Processor.FieldIndex("LoadLast1Min")
	shapes := make([][5]*resultset.ResultSet, sources)
	urls := make([]string, sources)
	for k := range shapes {
		urls[k] = fmt.Sprintf("gridrm:snmp://node%03d:161", k)
		for v := range shapes[k] {
			b := resultset.NewBuilder(meta)
			for h := 0; h < 2; h++ {
				row := make([]any, len(glue.Processor.Fields))
				row[host], row[load] = fmt.Sprintf("node%03d-%d", k, h), 0.5+float64(k%7)+0.1*float64(v)
				b.Append(row...)
			}
			if shapes[k][v], err = b.Build(); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	base := time.Unix(1_700_000_000, 0)
	end := base.Add(time.Duration(samples+1) * time.Second)
	before := liveHeap()
	s := New(Options{Clock: func() time.Time { return end }})
	for i := 0; i < samples; i++ {
		for k := range shapes {
			jitter := time.Duration(rng.Int63n(int64(500*time.Millisecond))) - 250*time.Millisecond
			at := base.Add(time.Duration(i)*time.Second + jitter)
			if err := s.Record(urls[k], glue.GroupProcessor, shapes[k][rng.Intn(5)], at); err != nil {
				t.Fatal(err)
			}
		}
	}
	grown := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(shapes)
	return s, grown
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainedBytesPerSample holds what a sample of the harvest_history
// shape costs at rest: 400 sources × 700 two-host samples. The doubling
// arrays of one column header per field held 49.5 B a sample; sealed,
// encoded chunks must hold at most half that.
func TestRetainedBytesPerSample(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes what the heap holds")
	}
	const sources, samples = 400, 700
	s, grown := harvestShape(t, sources, samples)
	per := float64(grown) / float64(s.TotalSamples())
	t.Logf("%d samples hold %d B of heap: %.1f B a sample", s.TotalSamples(), grown, per)
	if per > 24.7 {
		t.Errorf("%.1f B a retained sample, want ≤ 24.7 (half the doubling arrays' 49.5)", per)
	}
}

// TestBytesGaugeMatchesTheHeap: gridrm_history_bytes, the store's running
// total, is within 15 % of the live heap the same samples grew by.
func TestBytesGaugeMatchesTheHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes what the heap holds")
	}
	s, grown := harvestShape(t, 400, 700)
	gauge := s.Bytes()
	t.Logf("gauge %d B, heap grew %d B (%.1f %%)", gauge, grown, 100*float64(gauge-grown)/float64(grown))
	if d := float64(gauge - grown); d > 0.15*float64(grown) || d < -0.15*float64(grown) {
		t.Errorf("gauge %d B, heap grew %d B: off by more than 15 %%", gauge, grown)
	}
}
