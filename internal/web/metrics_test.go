package web

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"gridrm/internal/core"
)

// sampleLine matches one Prometheus text-format sample:
// metric_name{optional="labels"} value
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eEInfNa]+$`)

func TestMetricsEndpoint(t *testing.T) {
	f := newFixture(t, nil)
	// Drive some traffic so the stage histograms have samples.
	if _, err := f.client.Query(context.Background(), core.QueryOptions{
		SQL: "SELECT HostName FROM Processor", Mode: core.ModeRealTime,
	}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(f.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// Every non-comment, non-blank line must parse as a sample.
	scanner := bufio.NewScanner(strings.NewReader(string(body)))
	samples := 0
	for scanner.Scan() {
		line := scanner.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("unparseable sample line: %q", line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("no samples exposed")
	}

	text := string(body)
	for _, want := range []string{
		"gridrm_coalesced_total",
		"gridrm_queries_total",
		"gridrm_query_stage_seconds_bucket",
		"gridrm_query_stage_seconds_sum",
		"gridrm_query_stage_seconds_count",
		`le="+Inf"`,
		"gridrm_pool_dial_seconds_count",
		"gridrm_events_dropped_total",
		"gridrm_runtime_goroutines",
		"gridrm_runtime_heap_alloc_bytes",
		"gridrm_runtime_heap_objects",
		"gridrm_runtime_mallocs_total",
		"gridrm_runtime_gc_cycles_total",
		"gridrm_runtime_gc_pause_seconds_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics output missing %q", want)
		}
	}
	// The query above must have produced harvest-stage observations.
	if !strings.Contains(text, `gridrm_query_stage_seconds_count{stage="harvest"}`) {
		t.Error("no harvest-stage histogram in /metrics")
	}
}

func TestMetricsRejectsNonGET(t *testing.T) {
	f := newFixture(t, nil)
	resp, err := http.Post(f.srv.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", resp.StatusCode)
	}
}

func TestStatusIncludesStages(t *testing.T) {
	f := newFixture(t, nil)
	if _, err := f.client.Query(context.Background(), core.QueryOptions{
		SQL: "SELECT HostName FROM Processor", Mode: core.ModeRealTime,
	}); err != nil {
		t.Fatal(err)
	}
	st, err := f.client.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Stages) == 0 {
		t.Fatal("status report has no stage latencies")
	}
	seen := map[string]bool{}
	for _, s := range st.Stages {
		seen[s.Label] = true
	}
	for _, want := range []string{core.StageParse, core.StageHarvest} {
		if !seen[want] {
			t.Errorf("status stages missing %q (have %v)", want, st.Stages)
		}
	}
}
