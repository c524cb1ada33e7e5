package main

import (
	"testing"
	"time"
)

// smokeConfig is a run small enough for tier-1: a fleet a fiftieth the
// size, one set-up, a fraction of a second of load, a handful of probe
// iterations. It exercises every code path a real run does.
func smokeConfig(t *testing.T, w *workload, traced bool) runConfig {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir()) // the harness's durable-history dirs
	cfg := defaultConfig(w, devSeed, 0.3, traced)
	cfg.scale, cfg.setups, cfg.setupBudget, cfg.warmup, cfg.probeIters = 0.02, 1, 0, 20*time.Millisecond, 5
	cfg.outDir = t.TempDir()
	return cfg
}

// TestSmokeEmitsEveryMetric runs each workload both ways and asserts that
// every name in BENCHMARK.json comes out exactly once with its unit, that no
// answer was wrong, and that the names are well formed.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	sp, err := loadSpec("../" + specPath)
	if err != nil {
		t.Fatal(err) // malformed or duplicate names, unknown workloads, rate_qps not recorded
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the program has %d", specPath, len(sp.Workloads), len(workloads))
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := run(smokeConfig(t, w, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d answers wrong: %v", w.name, traced, out.failed, out.attempted, out.defects)
			}
			res, err := sp.emit(traced, out)
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
				continue
			}
			listed := sp.listed(traced)
			if len(res.Metrics) != len(listed) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d listed", w.name, traced, len(res.Metrics), len(listed))
			}
			for _, def := range listed {
				if got, ok := res.Metrics[def.Name]; !ok || got.Unit != def.Unit {
					t.Errorf("%s traced=%v: %s emitted as %+v, want unit %q", w.name, traced, def.Name, got, def.Unit)
				}
			}
		}
	}
}

// TestOracleRejectsCorruptedResponse damages one response on its way to the
// oracle; the run must count it as failed.
func TestOracleRejectsCorruptedResponse(t *testing.T) {
	for _, name := range []string{"cached_dashboard", "federated_tree"} {
		cfg := smokeConfig(t, workloadByName(name), false)
		cfg.corrupt = true
		out, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 1 {
			t.Errorf("%s: %d answers failed, want exactly the corrupted one: %v", name, out.failed, out.defects)
		}
	}
}
