package repub

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/gma"
	"gridrm/internal/metrics"
	"gridrm/internal/web"
)

// TestDigestGaugesAgreeAfterAJoin reads nothing but the members' GET
// /metrics: the entry router's gridrm_directory_copy_digest and each
// republisher's agree once a membership has settled, and while the entry
// still routes from its copy from before a republisher joined, its gauge
// differs from theirs until it lists the directory again.
func TestDigestGaugesAgreeAfterAJoin(t *testing.T) {
	dir := gma.NewDirectory(0, nil)
	_, query, _ := fakeSites(t, dir, 3)
	a := startRepub(t, dir, "repub-0", query)
	var now atomic.Int64
	now.Store(time.Unix(1000, 0).UnixNano())
	entry := core.New(core.Config{Name: "entry"})
	t.Cleanup(entry.Close)
	router := gma.NewRouter(dir, nil, "entry", gma.Config{LookupTTL: time.Hour,
		Clock: func() time.Time { return time.Unix(0, now.Load()) }})
	entry.SetGlobalRouter(router)
	router.RegisterMetrics(entry.Metrics())
	front := web.NewServer(entry, nil, nil)
	front.SetSiteLister(router.Sites)
	entrySrv := httptest.NewServer(front)
	defer entrySrv.Close()
	aSrv := httptest.NewServer(a.Handler())
	defer aSrv.Close()

	gauge := func(base string) float64 {
		t.Helper()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		ex, err := metrics.Parse(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := ex.Samples["gridrm_directory_copy_digest"]
		if !ok {
			t.Fatalf("%s/metrics has no gridrm_directory_copy_digest", base)
		}
		return v
	}
	// relist ages the entry's copy past its TTL and has it route once.
	relist := func() {
		t.Helper()
		now.Add(int64(2 * time.Hour))
		resp, err := http.Get(entrySrv.URL + "/sites")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var settled float64
	waitFor(t, "the entry and repub-0 to agree", func() bool {
		relist()
		settled = gauge(aSrv.URL)
		return settled != 0 && gauge(entrySrv.URL) == settled
	})

	b := startRepub(t, dir, "repub-1", query)
	bSrv := httptest.NewServer(b.Handler())
	defer bSrv.Close()
	var joined float64
	waitFor(t, "the republishers to agree on the join", func() bool {
		joined = gauge(aSrv.URL)
		return joined != settled && gauge(bSrv.URL) == joined
	})
	if got := gauge(entrySrv.URL); got != settled || got == joined {
		t.Fatalf("entry gauge %v while it holds its old copy, want %v (the republishers read %v)", got, settled, joined)
	}
	relist()
	if got := gauge(entrySrv.URL); got != joined {
		t.Fatalf("entry gauge %v after listing again, want the republishers' %v", got, joined)
	}
}
