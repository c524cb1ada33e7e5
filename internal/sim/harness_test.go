package sim

import (
	"bufio"
	"context"
	"io"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/repub"
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
// republisher's /subscribe feed, scrapes stand in while it is cut, and
// after the heal the feed resumes by seq: the rows the leaf published during
// the cut arrive by replay. A second consumer on the leaf keeps its router
// publishing through the cut; with none, a harvest nobody hears is a gap,
// and the republisher re-scrapes instead.
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
	harvest := func() {
		for _, group := range fleetGroups() {
			if _, err := gw.QueryContext(context.Background(), core.QueryOptions{
				Principal: SimPrincipal, SQL: "SELECT * FROM " + group, Mode: core.ModeRealTime,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// published counts the rows every site's router published. Until the
	// second consumer below subscribes, a router publishes only while the
	// republisher listens, so every row counted reaches the republisher.
	published := func() (n int64) {
		for _, site := range h.SiteOrder {
			n += h.SiteGateway(site).PushRouter().Stats().Published
		}
		return n
	}
	// arrived reports whether the republisher applied every row published
	// since the routers had published p0 and it had applied l0.
	arrived := func(p0, l0 int64) func() bool {
		return func() bool { return rp.Stats().LiveRows-l0 == published()-p0 }
	}
	wait("every feed, seeded and caught up", func() bool {
		for _, f := range rp.Feeds() {
			if f.Mode != "stream" {
				return false
			}
		}
		return arrived(0, 0)()
	})
	other, err := gw.Subscribe(context.Background(), core.QueryOptions{Principal: SimPrincipal, SQL: "SELECT * FROM Memory"})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	go func() {
		for {
			select {
			case <-other.C():
			case <-other.Done():
				return
			}
		}
	}()

	p0, l0 := published(), rp.Stats().LiveRows
	harvest() // every stream of the feed carries a row, so each has a seq to resume after
	wait("the harvest's rows", arrived(p0, l0))

	before := rp.Stats()
	h.PartitionSite(leaf, true)
	wait("the scrape fallback", func() bool {
		st := rp.Stats()
		return feed().Mode == "scrape" && st.SubscribeFallbacks > before.SubscribeFallbacks && st.Scrapes > before.Scrapes
	})
	cutAt, p0, l0 := gw.PushRouter().Seq(), published(), rp.Stats().LiveRows
	harvest() // published while the feed is cut
	if published() == p0 {
		t.Fatal("the harvest during the cut published nothing")
	}
	h.PartitionSite(leaf, false)
	wait("the rows published during the cut", func() bool { return feed().Mode == "stream" && arrived(p0, l0)() })
	if f := feed(); f.LastSeq <= cutAt {
		t.Errorf("after the heal the feed's last seq is %d, want past %d, where the cut began", f.LastSeq, cutAt)
	}
	if st := rp.Stats(); st.Resumes <= before.Resumes {
		t.Errorf("the feed came back with %d resumes, as many as before the cut", st.Resumes)
	}
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
	settled := func(event string) {
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
				misowned, _ := h.ownership("")
				t.Fatalf("%s never settled: %d sites not owned exactly once", event, misowned)
			}
		}
	}
	settled("start")
	h.DrainRepublisher(2)
	settled("drain repub-2")
	h.ReviveRepublisher(2)
	settled("revive repub-2")
	if n := h.RepubStats().MembershipChanges; n == 0 {
		t.Fatal("no republisher counted a membership change")
	}
}
