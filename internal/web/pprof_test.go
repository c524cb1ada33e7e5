package web

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"gridrm/internal/core"
)

// TestPprofOnlyWhenEnabled: the profiling endpoints gridrm-gateway -pprof
// mounts are absent from a default servlet and served once EnablePprof runs.
func TestPprofOnlyWhenEnabled(t *testing.T) {
	gw := core.New(core.Config{Name: "prof"})
	t.Cleanup(gw.Close)
	for _, enabled := range []bool{false, true} {
		s := NewServer(gw, nil, nil)
		if enabled {
			s.EnablePprof()
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
		if got := rec.Code == http.StatusOK; got != enabled {
			t.Errorf("enabled=%v: GET /debug/pprof/ = %d", enabled, rec.Code)
		}
	}
}
