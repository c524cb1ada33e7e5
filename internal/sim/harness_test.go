package sim

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/gma"
	"gridrm/internal/metrics"
	"gridrm/internal/repub"
	"gridrm/internal/resultset"
)

// TestDroppedServerSeversOpenStreams: dropping a server cuts the responses
// already streaming through it, as a partition cuts an open /subscribe
// stream, and not only the requests that arrive after the drop.
func TestDroppedServerSeversOpenStreams(t *testing.T) {
	srv, err := NewChaosServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "open\n")
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := bufio.NewReader(resp.Body)
	if line, err := body.ReadString('\n'); err != nil || line != "open\n" {
		t.Fatalf("stream opened with %q, %v", line, err)
	}
	srv.SetDropped(true)
	ended := make(chan struct{})
	go func() {
		io.Copy(io.Discard, body)
		close(ended)
	}()
	select {
	case <-ended:
	case <-time.After(2 * time.Second):
		t.Fatal("the open stream outlived the drop")
	}
}

// TestPartitionCutsRepublisherFeed: partitioning a leaf cuts its
// republisher's /subscribe feed and scrapes stand in while it is cut. After
// the heal a fresh feed is seeded, and the republisher's answer for the leaf
// is the leaf's own: the rows the leaf harvested during the cut, each entity
// exactly once. The leaf's cache outlives the test, so its own answer is
// that harvest's rows.
func TestPartitionCutsRepublisherFeed(t *testing.T) {
	sc, err := ParseScenario([]byte(`
name: partition-feed
duration: 1s
fleet:
  sites:
    - name: hub
      count: 1
      sources: 2
      hosts: 1
    - name: leaf
      count: 2
      sources: 2
      hosts: 1
      cache_ttl: 1h
federation:
  enabled: true
  entry_site: hub
  republishers: 1
  repub_scrape: 50ms
`))
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHarness(sc, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rp, leaf := h.Republisher(1).Gateway, "leaf-1"
	gw := h.SiteGateway(leaf)
	feed := func() repub.Feed {
		for _, f := range rp.Feeds() {
			if f.Site == leaf {
				return f
			}
		}
		return repub.Feed{}
	}
	wait := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; feed %+v, stats %+v", what, feed(), rp.Stats())
			}
		}
	}
	wait("the leaf's feed", func() bool { return feed().Mode == "stream" })

	before, harvests := rp.Stats(), gw.Stats().Harvests
	h.PartitionSite(leaf, true)
	wait("the scrape fallback", func() bool {
		st := rp.Stats()
		return feed().Mode == "scrape" && st.SubscribeFallbacks > before.SubscribeFallbacks && st.Scrapes > before.Scrapes
	})
	for _, group := range fleetGroups() {
		if _, err := gw.QueryContext(context.Background(), core.QueryOptions{
			Principal: SimPrincipal, SQL: "SELECT * FROM " + group, Mode: core.ModeRealTime,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if gw.Stats().Harvests == harvests {
		t.Fatal("the leaf harvested nothing during the cut")
	}
	h.PartitionSite(leaf, false)
	wait("a fresh feed after the heal", func() bool { return feed().Mode == "stream" })

	for _, group := range fleetGroups() {
		req := core.QueryOptions{Principal: SimPrincipal, SQL: "SELECT * FROM " + group, Site: leaf}
		own, err := gw.QueryContext(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		mirrored, err := rp.QueryContext(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameEntities(group, own.ResultSet, mirrored.ResultSet); err != nil {
			t.Errorf("%s: the republisher's answer for %s: %v", group, leaf, err)
		}
	}
}

// sameEntities reports how got differs from want: in its columns, in a GLUE
// entity it holds more than once, or in its rows as a multiset.
func sameEntities(group string, want, got *resultset.ResultSet) error {
	meta := got.Metadata()
	if w, g := want.Metadata().ColumnNames(), meta.ColumnNames(); !slices.Equal(w, g) {
		return fmt.Errorf("columns %v, want %v", g, w)
	}
	keys, seen := glue.MustLookup(group).KeyFields(), map[string]bool{}
	for r := 0; r < got.Len(); r++ {
		var key strings.Builder
		for _, f := range keys {
			fmt.Fprintf(&key, "%v ", got.Cell(r, meta.ColumnIndex(f)).Value())
		}
		if seen[key.String()] {
			return fmt.Errorf("entity %q appears more than once", key.String())
		}
		seen[key.String()] = true
	}
	if w, g := typedRows(want), typedRows(got); !slices.Equal(w, g) {
		return fmt.Errorf("rows %q, want %q", g, w)
	}
	return nil
}

// typedRows renders rs's rows sorted, each cell with its Go type, so an Int
// that came back as a Float differs.
func typedRows(rs *resultset.ResultSet) []string {
	out := make([]string, rs.Len())
	for r := range out {
		var row strings.Builder
		for c := 0; c < rs.Metadata().ColumnCount(); c++ {
			v := rs.Cell(r, c).Value()
			fmt.Fprintf(&row, "%T(%v) ", v, v)
		}
		out[r] = row.String()
	}
	slices.Sort(out)
	return out
}

// TestShardsPartitionAfterEveryMembershipEvent: with a refresh interval no
// run reaches, the republishers' shards still partition the sites exactly
// once after the federation starts, after a drain and after a revive,
// because each membership change wakes every republisher's directory watch.
func TestShardsPartitionAfterEveryMembershipEvent(t *testing.T) {
	sc, err := ParseScenario([]byte(`
name: membership-events
duration: 1s
fleet:
  sites:
    - name: hub
      count: 1
      sources: 1
      hosts: 1
    - name: leaf
      count: 6
      sources: 1
      hosts: 1
federation:
  enabled: true
  entry_site: hub
  republishers: 3
  repub_refresh: 1h
`))
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHarness(sc, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// settled waits for the event's convergence; member is the republisher
	// the event should leave listed (start, revive) or unlisted (drain).
	settled := func(event, member string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			for _, c := range h.convergences() {
				if c.event == event {
					if misowned, _ := h.ownership(""); misowned != 0 {
						t.Fatalf("%s settled, yet %d sites are not owned exactly once", event, misowned)
					}
					return
				}
			}
			if time.Now().After(deadline) {
				misowned, listed := h.ownership(member)
				t.Fatalf("%s never settled: %d sites not owned exactly once, %s listed: %v",
					event, misowned, member, listed)
			}
		}
	}
	settled("start", "repub-3")
	h.DrainRepublisher(2)
	settled("drain repub-2", "repub-2")
	h.ReviveRepublisher(2)
	settled("revive repub-2", "repub-2")
	if n := h.RepubStats().MembershipChanges; n == 0 {
		t.Fatal("no republisher counted a membership change")
	}
}

// TestRepubStatsSumsEveryField: the harness's republisher total adds every
// counter of repub.Stats, so none reads a silent zero.
func TestRepubStatsSumsEveryField(t *testing.T) {
	var a, b repub.Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(int64(i + 1))
		vb.Field(i).SetInt(int64(100 * (i + 1)))
	}
	sum := reflect.ValueOf(addStats(a, b))
	for i := 0; i < sum.NumField(); i++ {
		if got, want := sum.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("%s sums to %d, want %d", sum.Type().Field(i).Name, got, want)
		}
	}
}

// TestEntryDirectoryCopyOnMetrics: the entry router's copy of the
// directory shows on /metrics. A join leaves the member count alone while
// the copy is fresh and shows once it re-lists, and the re-list resets
// the copy's age.
func TestEntryDirectoryCopyOnMetrics(t *testing.T) {
	sc, err := ParseScenario([]byte(`
name: directory-copy
duration: 1s
fleet:
  sites:
    - name: hub
      count: 1
      sources: 1
      hosts: 1
    - name: leaf
      count: 2
      sources: 1
      hosts: 1
federation:
  enabled: true
  entry_site: hub
  lookup_ttl: 1m
`))
	if err != nil {
		t.Fatal(err)
	}
	clk := NewClock()
	h, err := NewHarnessOpts(sc, rand.New(rand.NewSource(1)), HarnessOptions{Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	copyOnMetrics := func() (age, members float64) {
		t.Helper()
		resp, err := http.Get(h.Entry.Server.URL() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		ex, err := metrics.Parse(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		age, ok1 := ex.Samples["gridrm_directory_copy_age_seconds"]
		members, ok2 := ex.Samples["gridrm_directory_copy_members"]
		if !ok1 || !ok2 {
			t.Fatalf("directory copy gauges missing from /metrics")
		}
		return age, members
	}

	if got := len(h.Router.Sites()); got != 2 {
		t.Fatalf("Sites = %d, want 2", got)
	}
	clk.Advance(5 * time.Second)
	if age, members := copyOnMetrics(); age != 5 || members != 3 {
		t.Fatalf("listed copy: age %v members %v, want 5 and 3", age, members)
	}
	if err := h.MultiDir.RegisterContext(context.Background(), gma.Registration{Name: "late", Endpoint: "http://late"}); err != nil {
		t.Fatal(err)
	}
	_ = h.Router.Sites()
	if age, members := copyOnMetrics(); age != 5 || members != 3 {
		t.Errorf("fresh copy after a join: age %v members %v, want 5 and 3", age, members)
	}
	clk.Advance(time.Minute)
	if got := len(h.Router.Sites()); got != 3 {
		t.Fatalf("Sites after the re-list = %d, want 3", got)
	}
	if age, members := copyOnMetrics(); age != 0 || members != 4 {
		t.Errorf("re-listed copy: age %v members %v, want 0 and 4", age, members)
	}
}

// TestQuietFederationDialsNothing: once federated_tree's fleet has settled,
// its upkeep — heartbeats, directory watches and re-lists, republisher
// feeds — rides connections the shared transport keeps alive, so two idle
// seconds dial nothing. Every member's /metrics exports the count.
func TestQuietFederationDialsNothing(t *testing.T) {
	sc, err := ParseScenario([]byte(`
name: quiet-federation
duration: 1s
fleet:
  sites:
    - name: hub
      count: 1
      sources: 6
      hosts: 2
      cache_ttl: 10m
    - name: leaf
      count: 8
      sources: 4
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
	members := []string{h.Entry.Server.URL()}
	for _, rp := range h.Repubs {
		members = append(members, rp.Server.URL())
	}
	scrape := http.Client{Transport: &http.Transport{}} // not the transport it counts
	defer scrape.CloseIdleConnections()
	dials := func() float64 {
		t.Helper()
		var first float64
		for i, url := range members {
			resp, err := scrape.Get(url + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			ex, err := metrics.Parse(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			n, ok := ex.Samples["gridrm_http_dials_total"]
			if !ok {
				t.Fatalf("%s/metrics has no gridrm_http_dials_total", url)
			}
			if i == 0 {
				first = n
			} else if n < first {
				t.Fatalf("%s/metrics reads %v dials, the entry %v: one transport counts them all", url, n, first)
			}
		}
		return first
	}
	streaming := func() bool {
		for _, rp := range h.Repubs {
			feeds := rp.Gateway.Feeds()
			for _, f := range feeds {
				if f.Mode != "stream" {
					return false
				}
			}
			if len(feeds) == 0 {
				return false
			}
		}
		return true
	}
	// Settled: every republisher's feeds stream, and a second passes
	// without a dial.
	settled := dials()
	for deadline := time.Now().Add(15 * time.Second); ; {
		time.Sleep(time.Second)
		now := dials()
		if now == settled && streaming() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never settled: %v dials a second ago, %v now; feeds streaming: %v", settled, now, streaming())
		}
		settled = now
	}
	time.Sleep(2 * time.Second)
	if idle := dials(); idle != settled {
		t.Errorf("the settled fleet dialled %v times in 2 idle seconds", idle-settled)
	}
}
