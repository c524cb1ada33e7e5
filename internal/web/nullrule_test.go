package web

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"gridrm/internal/core"
	"gridrm/internal/drivers/memdrv"
	"gridrm/internal/security"
)

// TestNonFiniteLoadIsNullOnEveryRoute holds the codec's rule — a non-finite
// Float is an unknown value, which is what SQL NULL means — on every route to
// an answer. A fleet of four hosts reports loads NaN, +Inf, 2 and 3; one
// harvest of it queried locally, through RemoteQueryContext and read back
// from history must agree on every predicate, order and aggregate. Before the
// rule was the ResultSet's own, NaN reached a local predicate as a number
// that equals every number: "= 2" matched it, and it was IS NULL only after
// a hop.
func TestNonFiniteLoadIsNullOnEveryRoute(t *testing.T) {
	gw := core.New(core.Config{Name: "siteA"})
	t.Cleanup(gw.Close)
	for i, load := range []float64{math.NaN(), math.Inf(1), 2, 3} {
		backend := memdrv.NewBackend([]string{fmt.Sprintf("h%d", i)})
		backend.SetLoad(load)
		proto := fmt.Sprintf("mem%d", i)
		d := memdrv.New("jdbc-"+proto, proto, backend)
		if err := gw.RegisterDriver(d, d.Schema()); err != nil {
			t.Fatal(err)
		}
		if err := gw.AddSource(core.SourceConfig{URL: "gridrm:" + proto + "://a:1"}); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewServer(gw, nil, nil))
	t.Cleanup(srv.Close)
	admin := security.Principal{Name: "admin", Roles: []string{"operator"}}

	routes := []struct {
		name  string
		query func(sql string) (*core.Response, error)
	}{
		{"local", func(sql string) (*core.Response, error) {
			return gw.QueryContext(context.Background(), core.QueryOptions{Principal: admin, SQL: sql, Mode: core.ModeCached})
		}},
		{"remote", func(sql string) (*core.Response, error) {
			return RemoteQueryContext(context.Background(), srv.URL, core.QueryOptions{Principal: admin, SQL: sql, Mode: core.ModeCached})
		}},
		{"history", func(sql string) (*core.Response, error) {
			return gw.QueryContext(context.Background(), core.QueryOptions{Principal: admin, SQL: sql, Mode: core.ModeHistorical})
		}},
	}
	// The one harvest every route reads: it fills the cache and the history.
	if _, err := routes[0].query("SELECT * FROM Processor"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct{ sql, want string }{
		{"SELECT HostName FROM Processor WHERE LoadLast1Min = 2", "h2"},
		{"SELECT HostName FROM Processor WHERE LoadLast1Min <> 2", "h3"},
		{"SELECT HostName FROM Processor WHERE LoadLast1Min IS NULL ORDER BY HostName", "h0 h1"},
		{"SELECT HostName FROM Processor WHERE LoadLast1Min IS NOT NULL ORDER BY LoadLast1Min DESC", "h3 h2"},
		{"SELECT HostName FROM Processor ORDER BY LoadLast1Min LIMIT 3", "h0|h1 h0|h1 h2"},
		{"SELECT count(LoadLast1Min), avg(LoadLast1Min), min(LoadLast1Min), max(LoadLast1Min) FROM Processor", "2 2.5 2 3"},
	} {
		for _, route := range routes {
			resp, err := route.query(q.sql)
			if err != nil {
				t.Fatalf("%s, %s: %v", route.name, q.sql, err)
			}
			var got []string
			for rs := resp.ResultSet.Clone(); rs.Next(); {
				for c := 0; c < rs.Metadata().ColumnCount(); c++ {
					s, _ := rs.GetString(rs.Metadata().Column(c).Name)
					got = append(got, s)
				}
			}
			want := strings.Fields(q.want)
			ok := len(got) == len(want)
			for k := 0; ok && k < len(want); k++ {
				ok = strings.Contains("|"+want[k]+"|", "|"+got[k]+"|")
			}
			if !ok {
				t.Errorf("%s route, %s: got %v, want %v", route.name, q.sql, got, want)
			}
		}
	}
}
