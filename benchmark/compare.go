package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// demoteAbove is how far two sets of the same commit may disagree on an
// end-to-end metric before it belongs on the per-layer list instead.
const demoteAbove = 0.10

// compareMain prints, per (metric, workload), the median and quartiles of
// two saved result files and checks every end-to-end metric against its
// bound in BENCHMARK.json. A file holding two or more sets is first checked
// against itself: a metric whose own sets disagree by more than a tenth
// cannot resolve a bound and is reported for demotion.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare a.json b.json")
		return 2
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var files [2]saved
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			return 2
		}
		fmt.Printf("%s: %s\n", path, mustJSON(files[i].Stamp))
	}
	code := 0
	fmt.Printf("%-20s %-18s %30s %30s %8s %6s  %s\n", "metric", "workload", "a: q1 / median / q3", "b: q1 / median / q3", "change", "bound", "verdict")
	for _, def := range sp.EndToEnd {
		for _, l := range sp.Workloads {
			a, b := files[0].values(l.Name, def.Name), files[1].values(l.Name, def.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			aq, bq := quartiles(a), quartiles(b)
			worse := (bq[1] - aq[1]) / aq[1]
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case files[0].selfSpread(l.Name, def.Name) > demoteAbove || files[1].selfSpread(l.Name, def.Name) > demoteAbove:
				verdict = "DEMOTE: its own sets differ by more than a tenth"
				if def.Name == "setup_s" {
					verdict = "unresolved: its own sets differ by more than a tenth (the driver requires setup_s, so it stays)"
				}
			case worse > def.Bound && (aq[2]-aq[0])/aq[1] > def.Bound:
				verdict = "unresolved: spread wider than the bound"
			case worse > def.Bound:
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Printf("%-20s %-18s %30s %30s %+7.1f%% %5.0f%%  %s\n", def.Name, l.Name,
				fmt.Sprintf("%.4g / %.4g / %.4g", aq[0], aq[1], aq[2]),
				fmt.Sprintf("%.4g / %.4g / %.4g", bq[0], bq[1], bq[2]), 100*worse, 100*def.Bound, verdict)
		}
	}
	return code
}

// values pools one metric's runs over every set of a file.
func (f *saved) values(workload, metric string) []float64 {
	var v []float64
	for _, set := range f.Sets {
		v = append(v, set[workload][metric]...)
	}
	return v
}

// selfSpread is the largest relative gap between the medians of a file's
// own sets; 0 when it holds fewer than two.
func (f *saved) selfSpread(workload, metric string) float64 {
	var meds []float64
	for _, set := range f.Sets {
		if v := set[workload][metric]; len(v) > 0 {
			meds = append(meds, median(v))
		}
	}
	if len(meds) < 2 {
		return 0
	}
	sort.Float64s(meds)
	return (meds[len(meds)-1] - meds[0]) / meds[0]
}

func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return [3]float64{quantileSorted(s, 0.25), quantileSorted(s, 0.5), quantileSorted(s, 0.75)}
}
