package router

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"
)

func publishN(r *Router, n int, group string) {
	cols := []string{"host", "load"}
	for i := 0; i < n; i++ {
		r.Publish("http://src", group, cols, [][]any{{"h1", float64(i)}}, time.Unix(int64(i), 0))
	}
}

// TestPublishIdleIsFree: Idle is what callers check before boxing rows for
// nobody. A publish made to an idle router anyway fans out nowhere and
// leaves it idle; the row is only recorded in the replay ring.
func TestPublishIdleIsFree(t *testing.T) {
	r := New(Options{})
	if !r.Idle() {
		t.Fatal("fresh router should be idle")
	}
	if n := r.Publish("s", "g", []string{"a"}, [][]any{{1}}, time.Now()); n != 1 {
		t.Fatalf("publish with no consumers recorded %d rows, want 1", n)
	}
	if st := r.Stats(); st.Published != 1 || st.Enqueued != 0 || !r.Idle() {
		t.Fatalf("stats %+v, idle %v: want one row recorded, none enqueued, still idle", st, r.Idle())
	}
	if b := r.Buffered(); len(b) != 1 || b[0].Seq != 1 || b[0].Group != "g" {
		t.Fatalf("replay ring holds %+v", b)
	}
}

func TestSubscribeReceivesRows(t *testing.T) {
	r := New(Options{})
	s, err := r.Subscribe(SubscribeOptions{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	publishN(r, 3, "cpu")
	for i := 0; i < 3; i++ {
		select {
		case m := <-s.C():
			if m.Seq != uint64(i+1) {
				t.Fatalf("seq = %d, want %d", m.Seq, i+1)
			}
			if m.Group != "cpu" {
				t.Fatalf("group = %q", m.Group)
			}
		case <-time.After(time.Second):
			t.Fatal("timed out waiting for metric")
		}
	}
}

func TestMatchFiltersAndTransforms(t *testing.T) {
	r := New(Options{})
	s, err := r.Subscribe(SubscribeOptions{
		Match: func(m Metric) (Metric, bool) {
			if m.Group != "cpu" {
				return Metric{}, false
			}
			m.Group = "cpu-only"
			return m, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r.Publish("s", "mem", []string{"a"}, [][]any{{1}}, time.Now())
	r.Publish("s", "cpu", []string{"a"}, [][]any{{2}}, time.Now())
	select {
	case m := <-s.C():
		if m.Group != "cpu-only" {
			t.Fatalf("group = %q, want transformed cpu-only", m.Group)
		}
	case <-time.After(time.Second):
		t.Fatal("no metric")
	}
	if len(s.ch) != 0 {
		t.Fatal("mem row should have been filtered out")
	}
}

// TestStuckSubscriberNeverBlocksPublish is the core invariant: a consumer
// that never reads cannot slow Publish down — rows drop oldest-first and
// are accounted.
func TestStuckSubscriberNeverBlocksPublish(t *testing.T) {
	r := New(Options{QueueSize: 4, Stall: -1})
	stuck, err := r.Subscribe(SubscribeOptions{Name: "stuck"})
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	live, err := r.Subscribe(SubscribeOptions{Name: "live", Queue: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		publishN(r, 1000, "cpu")
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked behind a stuck subscriber")
	}

	if got := stuck.Dropped(); got != 1000-4 {
		t.Fatalf("stuck dropped = %d, want %d", got, 1000-4)
	}
	// Drop-oldest: the stuck queue holds the freshest rows.
	m := <-stuck.C()
	if m.Seq != 1000-4+1 {
		t.Fatalf("oldest surviving seq = %d, want %d", m.Seq, 1000-4+1)
	}
	if got := live.Enqueued(); got != 1000 {
		t.Fatalf("live enqueued = %d, want 1000", got)
	}
	st := r.Stats()
	if st.Published != 1000 || st.Dropped != 1000-4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStallEviction(t *testing.T) {
	clock := time.Unix(1000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	advance := func(d time.Duration) { mu.Lock(); clock = clock.Add(d); mu.Unlock() }

	r := New(Options{QueueSize: 1, Stall: 100 * time.Millisecond, Clock: now})
	s, err := r.Subscribe(SubscribeOptions{Name: "stall"})
	if err != nil {
		t.Fatal(err)
	}
	publishN(r, 2, "cpu") // fills the queue, starts the stall clock on row 2
	advance(200 * time.Millisecond)
	publishN(r, 1, "cpu") // past the stall: evict

	select {
	case <-s.Done():
	case <-time.After(time.Second):
		t.Fatal("stalled subscriber was not evicted")
	}
	if !s.Evicted() {
		t.Fatal("Evicted() = false")
	}
	st := r.Stats()
	if st.Evicted != 1 {
		t.Fatalf("router evicted = %d, want 1", st.Evicted)
	}
	if st.Subscribers != 0 {
		t.Fatalf("subscribers = %d after eviction", st.Subscribers)
	}
	// Discarded queue contents count as drops — nothing is silent.
	if s.Dropped() == 0 {
		t.Fatal("eviction left drops unaccounted")
	}
	// A fast consumer keeps working after the eviction pass.
	ok, err := r.Subscribe(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Close()
	publishN(r, 1, "cpu")
	select {
	case <-ok.C():
	case <-time.After(time.Second):
		t.Fatal("router dead after eviction")
	}
}

func TestFromSeqResume(t *testing.T) {
	r := New(Options{ReplaySize: 16})
	probe, _ := r.Subscribe(SubscribeOptions{}) // keeps the router non-idle
	defer probe.Close()
	publishN(r, 10, "cpu")

	s, err := r.Subscribe(SubscribeOptions{FromSeq: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Gapped() {
		t.Fatal("resume within the ring should not be gapped")
	}
	for want := uint64(7); want <= 10; want++ {
		select {
		case m := <-s.C():
			if m.Seq != want {
				t.Fatalf("replayed seq = %d, want %d", m.Seq, want)
			}
		case <-time.After(time.Second):
			t.Fatalf("replay stopped before seq %d", want)
		}
	}
	// Live rows continue after replay with no duplicates.
	publishN(r, 1, "cpu")
	if m := <-s.C(); m.Seq != 11 {
		t.Fatalf("live seq after replay = %d, want 11", m.Seq)
	}
}

func TestFromSeqGapDetection(t *testing.T) {
	r := New(Options{ReplaySize: 4})
	probe, _ := r.Subscribe(SubscribeOptions{})
	defer probe.Close()
	publishN(r, 20, "cpu") // ring holds seqs 17..20

	s, err := r.Subscribe(SubscribeOptions{FromSeq: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Gapped() {
		t.Fatal("resume past the ring must report a gap")
	}
	if m := <-s.C(); m.Seq != 17 {
		t.Fatalf("first replayed seq = %d, want 17 (ring oldest)", m.Seq)
	}
	if got := r.OldestBuffered(); got != 17 {
		t.Fatalf("OldestBuffered = %d, want 17", got)
	}
}

// TestResumePastHeadIsGapped: a resume point beyond the newest seq is one a
// restarted producer's numbering began again under, so the rows it stood for
// are gone. The subscriber must hear of it, over an empty ring, a used one
// and a disabled one alike.
func TestResumePastHeadIsGapped(t *testing.T) {
	for _, tc := range []struct {
		name      string
		replay    int
		published int
	}{{"empty ring", 16, 0}, {"after 3 rows", 16, 3}, {"disabled ring", -1, 3}} {
		r := New(Options{ReplaySize: tc.replay})
		probe, _ := r.Subscribe(SubscribeOptions{})
		publishN(r, tc.published, "cpu")
		s, err := r.Subscribe(SubscribeOptions{FromSeq: 500})
		if err != nil {
			t.Fatal(err)
		}
		if !s.Gapped() {
			t.Errorf("%s: a resume from 500 at seq %d is not gapped", tc.name, r.Seq())
		}
		s.Close()
		probe.Close()
	}
}

// TestReplayRingGrowsToItsBound: the ring holds nothing until a row is
// published, then doubles from replayFirstSlots to its bound, and wraps
// there. At every step it holds exactly the newest min(n, bound) rows,
// oldest first, and resume and gap detection answer as a ring allocated
// whole would. A disabled ring holds nothing ever and reports every resume
// that missed a row as gapped.
func TestReplayRingGrowsToItsBound(t *testing.T) {
	const bound = 100 // 16 → 32 → 64 → 100, then the wrap
	r := New(Options{ReplaySize: bound})
	if len(r.replay.buf) != 0 || r.OldestBuffered() != 0 || len(r.Buffered()) != 0 {
		t.Fatalf("an unused ring holds %d slots", len(r.replay.buf))
	}
	slots := []int{}
	for n := 1; n <= 2*bound+bound/2; n++ {
		publishN(r, 1, "cpu")
		if k := len(r.replay.buf); len(slots) == 0 || slots[len(slots)-1] != k {
			slots = append(slots, k)
		}
		oldest := uint64(max(1, n-bound+1))
		got := r.Buffered()
		if len(got) != n-int(oldest)+1 || got[0].Seq != oldest || got[len(got)-1].Seq != uint64(n) {
			t.Fatalf("after %d rows the ring holds %d rows from seq %d, want %d from %d", n, len(got), got[0].Seq, n-int(oldest)+1, oldest)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Seq != got[i-1].Seq+1 {
				t.Fatalf("after %d rows: seq %d follows %d", n, got[i].Seq, got[i-1].Seq)
			}
		}
		if r.OldestBuffered() != oldest || r.Seq() != uint64(n) {
			t.Fatalf("after %d rows: oldest %d, seq %d", n, r.OldestBuffered(), r.Seq())
		}
		for _, after := range []uint64{0, oldest - 1, oldest, uint64(n)} {
			fed, gapped := r.replay.since(after, func(Metric) {})
			want := n - int(max(after, oldest-1))
			if fed != want || gapped != (after+1 < oldest) {
				t.Fatalf("after %d rows, since(%d) fed %d gapped %v, want %d %v", n, after, fed, gapped, want, after+1 < oldest)
			}
		}
	}
	if want := []int{16, 32, 64, 100}; !slices.Equal(slots, want) {
		t.Fatalf("ring sizes %v, want %v", slots, want)
	}

	off := New(Options{ReplaySize: -1})
	publishN(off, 3, "cpu")
	if len(off.replay.buf) != 0 || off.Buffered() != nil || off.OldestBuffered() != 0 || off.Seq() != 3 {
		t.Fatalf("a disabled ring holds %d slots, oldest %d, seq %d", len(off.replay.buf), off.OldestBuffered(), off.Seq())
	}
	if _, gapped := off.replay.since(2, func(Metric) {}); !gapped {
		t.Fatal("a disabled ring resumed past a row without a gap")
	}
	if fed, gapped := off.replay.since(3, func(Metric) {}); fed != 0 || gapped {
		t.Fatal("a disabled ring reported a gap where no row was missed")
	}
}

func TestSubscribeAfterCloseFails(t *testing.T) {
	r := New(Options{})
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Subscribe(SubscribeOptions{}); err == nil {
		t.Fatal("Subscribe after Close should fail")
	}
	if n := r.Publish("s", "g", []string{"a"}, [][]any{{1}}, time.Now()); n != 0 {
		t.Fatal("Publish after Close should be a no-op")
	}
}

func TestCloseSignalsSubscribers(t *testing.T) {
	r := New(Options{})
	s, _ := r.Subscribe(SubscribeOptions{})
	publishN(r, 2, "cpu")
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Done():
	case <-time.After(time.Second):
		t.Fatal("Close did not end the subscription")
	}
	// Buffered rows remain drainable after Done.
	if m := <-s.C(); m.Seq != 1 {
		t.Fatalf("post-close drain seq = %d", m.Seq)
	}
}

func TestConcurrentPublishSubscribeRace(t *testing.T) {
	r := New(Options{QueueSize: 8, Stall: time.Millisecond})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					publishN(r, 10, "cpu")
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := r.Subscribe(SubscribeOptions{})
			if err != nil {
				return
			}
			if i%2 == 0 {
				// Fast consumers drain until unsubscribed.
				for {
					select {
					case <-s.C():
					case <-s.Done():
						return
					case <-stop:
						s.Close()
						return
					}
				}
			}
			// Slow consumers just wait to be evicted or stopped.
			select {
			case <-s.Done():
			case <-stop:
				s.Close()
			}
		}(i)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestStallEvictionUnderConcurrentPublishers: a consumer that takes nothing
// must be evicted however many goroutines publish at once. One publisher's
// send landing in the slot another's drop-oldest had just freed used to
// count as the consumer catching up and restart the stall clock, so under
// concurrent harvests a wedged subscriber outlived Stall indefinitely
// (scenarios/subscriber_churn.yaml under -race: 0 evictions of 3).
func TestStallEvictionUnderConcurrentPublishers(t *testing.T) {
	clock := time.Unix(1000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }

	r := New(Options{QueueSize: 4, Stall: time.Second, Clock: now})
	s, err := r.Subscribe(SubscribeOptions{Name: "wedged"})
	if err != nil {
		t.Fatal(err)
	}
	// Four publishers overflow the queue together while the clock moves a
	// tenth of Stall per round: the queue is full throughout and nothing is
	// consumed, so the first publish of round 10 must evict.
	for round := 0; round < 12 && !s.Evicted(); round++ {
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				publishN(r, 500, "cpu")
			}()
		}
		wg.Wait()
		mu.Lock()
		clock = clock.Add(100 * time.Millisecond)
		mu.Unlock()
	}
	if !s.Evicted() {
		t.Fatal("wedged subscriber outlived Stall: concurrent publishers restarted its stall clock")
	}
	if st := r.Stats(); st.Dropped != st.Enqueued {
		t.Errorf("stats = %+v: a consumer that took nothing drops exactly what it was offered", st)
	}
}
