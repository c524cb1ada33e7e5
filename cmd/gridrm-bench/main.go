// Command gridrm-bench regenerates the per-experiment tables of
// EXPERIMENTS.md (E1–E10), each reproducing a figure or performance claim
// from the GridRM paper on the simulated substrate.
//
//	gridrm-bench -exp all
//	gridrm-bench -exp e4          # driver granularity / caching policies
//	gridrm-bench -exp e6 -quick   # reduced sweep
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"gridrm/internal/bench"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment to run: all, or comma-separated IDs ("+strings.Join(bench.IDs(), ",")+")")
		quick = flag.Bool("quick", false, "reduced parameter sweeps")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.IDs() {
			e, _ := bench.Lookup(id)
			fmt.Printf("%-5s %s\n", e.ID, e.Anchor)
		}
		return
	}

	if *exp == "all" {
		if err := bench.RunAll(os.Stdout, *quick); err != nil {
			log.Fatalf("gridrm-bench: %v", err)
		}
		return
	}
	for _, id := range strings.Split(*exp, ",") {
		if err := bench.Run(os.Stdout, strings.TrimSpace(id), *quick); err != nil {
			log.Fatalf("gridrm-bench: %v", err)
		}
	}
}
