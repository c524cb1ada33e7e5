#!/usr/bin/env bash
# Measures what a quiet federation's upkeep allocates, in two ways:
# - the federated_tree workload's fleet (hub + 8 leaves of 50 sources x 2
#   hosts, 2 republishers, 1 directory, its lookup TTL and refresh
#   intervals) is built through sim.NewHarness with no load, left 3 s to
#   settle, and read over 5 s;
# - one directory client and directory on loopback, holding that fleet's
#   11 records, make 1,000 of each upkeep call: an unchanged list, an
#   unchanged watch and a heartbeat.
# Run from the root of a checkout; it adds two test files for the run and
# removes them after:
#   bash docs/results/pr51/upkeep.sh
set -euo pipefail
f=internal/sim/zz_idle_upkeep_test.go
g=internal/gma/zz_upkeep_calls_test.go
trap 'rm -f "$f" "$g"' EXIT
cat >"$f" <<'EOF'
package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func TestZZIdleUpkeep(t *testing.T) {
	sc, err := ParseScenario([]byte(`
name: idle
duration: 1s
fleet:
  sites:
    - name: hub
      count: 1
      sources: 50
      hosts: 2
      cache_ttl: 10m
    - name: leaf
      count: 8
      sources: 50
      hosts: 2
      cache_ttl: 10m
federation:
  enabled: true
  directories: 1
  entry_site: hub
  lookup_ttl: 250ms
  retry_attempts: 1
  republishers: 2
  repub_refresh: 200ms
  repub_scrape: 300ms
`))
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHarness(sc, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	time.Sleep(3 * time.Second)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	time.Sleep(5 * time.Second)
	runtime.ReadMemStats(&b)
	t.Logf("idle upkeep: %.0f allocations/s, %.0f KB/s", float64(b.Mallocs-a.Mallocs)/5, float64(b.TotalAlloc-a.TotalAlloc)/5/1024)
}
EOF
cat >"$g" <<'EOF'
package gma

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"

	"gridrm/internal/glue"
)

func TestZZUpkeepBytes(t *testing.T) {
	d := NewDirectory(0, nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	ctx := context.Background()
	for i := 0; i < 9; i++ {
		_ = d.RegisterContext(ctx, Registration{Name: fmt.Sprintf("site-%d", i), Endpoint: fmt.Sprintf("http://127.0.0.1:%d", 9000+i), Groups: glue.GroupNames()})
	}
	for i := 1; i <= 2; i++ {
		_ = d.RegisterContext(ctx, Registration{Name: fmt.Sprintf("repub-%d", i), Endpoint: fmt.Sprintf("http://127.0.0.1:%d", 9100+i), Role: RoleRepublisher})
	}
	c := &DirectoryClient{BaseURL: srv.URL}
	regs, _ := c.ListContext(ctx)
	digest := Digest(regs)
	hb := Registration{Name: "site-3", Endpoint: "http://127.0.0.1:9003", Groups: glue.GroupNames()}
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"unchanged list", func() { _, _ = c.ListContext(ctx) }},
		{"unchanged watch", func() { _, _ = c.WatchContext(ctx, digest, 0) }},
		{"heartbeat", func() { _ = c.RegisterContext(ctx, hb) }},
	} {
		for i := 0; i < 50; i++ {
			tc.f()
		}
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for i := 0; i < 1000; i++ {
			tc.f()
		}
		runtime.ReadMemStats(&b)
		t.Logf("%s: %.0f allocations, %.0f bytes", tc.name, float64(b.Mallocs-a.Mallocs)/1000, float64(b.TotalAlloc-a.TotalAlloc)/1000)
	}
}
EOF
go test -count=1 -v -run '^TestZZIdleUpkeep$' ./internal/sim/ | grep 'idle upkeep'
go test -count=1 -v -run '^TestZZUpkeepBytes$' ./internal/gma/ | grep -E 'unchanged|heartbeat'
