package event

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/router"
)

// TestBoundedQueueDropsOldest: a burst past a blocked listener's queue drops
// the oldest events and accounts for them, Publish never blocks, and the
// newest event always survives.
func TestBoundedQueueDropsOldest(t *testing.T) {
	m := newManager(router.Options{QueueSize: 8})
	defer m.Close()
	block := make(chan struct{})
	var got []Event
	var mu sync.Mutex
	m.Subscribe(Filter{}, func(ev Event) {
		<-block
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	})
	// The first event occupies the listener; the rest hit the queue's cap.
	for i := 0; i < 100; i++ {
		m.Publish(Event{Name: "e", Value: float64(i), Time: time.Now()})
	}
	close(block)
	settle(t, m)
	st := m.Stats()
	if st.Dropped == 0 {
		t.Fatal("overflow was not accounted")
	}
	if st.Delivered+st.Dropped != st.Published {
		t.Fatalf("delivered(%d) + dropped(%d) != published(%d)", st.Delivered, st.Dropped, st.Published)
	}
	mu.Lock()
	last := got[len(got)-1]
	mu.Unlock()
	if last.Value != 99 {
		t.Fatalf("newest event was dropped; last delivered = %v", last.Value)
	}
}

// blockingOutbound transmits nothing until released.
type blockingOutbound struct{ release chan struct{} }

func (b blockingOutbound) Name() string         { return "wedged" }
func (b blockingOutbound) Transmit(Event) error { <-b.release; return nil }

// TestWedgedConsumersNeverHoldPublish: with one outbound driver and one
// listener wedged, a hundred queues' worth of events still publishes at
// once, a healthy listener still gets the newest events, no queue or ring
// holds more than its bound, and once the wedge clears every event is
// delivered or counted dropped by every consumer it was for.
func TestWedgedConsumersNeverHoldPublish(t *testing.T) {
	m := NewManager()
	defer m.Close()
	release := make(chan struct{})
	if err := m.AddOutbound(Filter{}, blockingOutbound{release}); err != nil {
		t.Fatal(err)
	}
	m.Subscribe(Filter{}, func(Event) { <-release })
	var newest atomic.Int64
	newest.Store(-1)
	m.Subscribe(Filter{}, func(ev Event) { newest.Store(int64(ev.Value)) })
	const consumers, queue = 3, 256 // router.Options' default queue
	const n = 100 * queue

	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; i < n; i++ {
			m.Publish(Event{Name: "burst", Value: float64(i), Time: time.Unix(int64(i), 0)})
		}
	}()
	select {
	case <-published:
	case <-time.After(20 * time.Second):
		t.Fatal("Publish blocked behind the wedged consumers")
	}
	waitFor(t, "the healthy listener to see the newest event", func() bool { return newest.Load() == n-1 })

	for _, s := range m.r.Subscribers() {
		if s.Pending > queue {
			t.Errorf("listener %d holds %d events, bound %d", s.ID, s.Pending, queue)
		}
	}
	for _, s := range m.SinkStats() {
		if s.Pending > queue {
			t.Errorf("outbound %s holds %d events, bound %d", s.Name, s.Pending, queue)
		}
	}
	if h := len(m.History(Filter{}, time.Time{})); h > HistorySize {
		t.Errorf("history holds %d events, bound %d", h, HistorySize)
	}

	close(release)
	settle(t, m)
	st, rs := m.Stats(), m.r.Stats()
	if st.Published != n || rs.Evicted != 0 {
		t.Fatalf("published %d, evicted %d; want %d and none", st.Published, rs.Evicted, n)
	}
	if st.Dropped == 0 {
		t.Fatal("the wedged consumers lost nothing: the scenario lost its teeth")
	}
	if got := st.Delivered + st.Transmitted + st.Dropped; got != n*consumers {
		t.Errorf("delivered %d + transmitted %d + dropped %d = %d, want published %d x %d consumers",
			st.Delivered, st.Transmitted, st.Dropped, got, n, consumers)
	}
}

// TestStalledListenerEvicted: a listener whose queue stays full past the
// stall is evicted, its queue counted as dropped, and publishing goes on.
func TestStalledListenerEvicted(t *testing.T) {
	var clock atomic.Int64
	m := newManager(router.Options{QueueSize: 4, Stall: time.Second,
		Clock: func() time.Time { return time.Unix(0, clock.Load()) }})
	release := make(chan struct{})
	defer m.Close()
	defer close(release)
	m.Subscribe(Filter{}, func(Event) { <-release })
	for i := 0; i < 10; i++ {
		m.Publish(Event{Name: "e", Time: at(i)})
	}
	clock.Add(int64(2 * time.Second))
	m.Publish(Event{Name: "e", Time: at(10)})
	if rs := m.r.Stats(); rs.Evicted != 1 || rs.Subscribers != 0 {
		t.Fatalf("evicted %d, subscribers %d; want the stalled listener gone", rs.Evicted, rs.Subscribers)
	}
	m.Publish(Event{Name: "after", Time: at(11)})
	if st := m.Stats(); st.Published != 12 || st.Dropped < 4 {
		t.Errorf("stats %+v", st)
	}
}
