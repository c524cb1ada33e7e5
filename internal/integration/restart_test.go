package integration_test

import (
	"path/filepath"
	"testing"

	"gridrm/internal/sim"
)

// TestRestartRecoveryScenario runs the repo's crash-recovery acceptance
// scenario end to end: a durable-history gateway is loaded, its sources are
// killed, the gateway is crash-restarted against the same history directory,
// and the replacement must serve the pre-crash samples through the
// degradation ladder — proven by the scenario's own assertions
// (min_replayed_records, min_history_fallbacks, min_wal_appends).
func TestRestartRecoveryScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario run")
	}
	sc, err := sim.LoadScenario(filepath.Join("..", "..", "scenarios", "restart_recovery.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run(sc, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("scenario failed:\n%s", r.Summary())
	}
	if r.Counters["gridrm_history_replayed_records_total"] == 0 {
		t.Error("restart restored nothing from the WAL")
	}
	if r.Counters["gridrm_history_fallbacks_total"] == 0 {
		t.Error("restored history never served a query")
	}
	if r.Load.Errors > 0 {
		t.Errorf("clients saw %d errors across the crash-restart", r.Load.Errors)
	}
}
