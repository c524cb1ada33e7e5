package event

import (
	"sync"
	"testing"
	"time"
)

// TestBoundedQueueDropsOldest: with MaxQueue set, a burst past the cap
// drops the oldest events and accounts for them — Publish never blocks and
// Drain still terminates.
func TestBoundedQueueDropsOldest(t *testing.T) {
	m := NewManager(Options{MaxQueue: 8})
	block := make(chan struct{})
	var got []Event
	var mu sync.Mutex
	m.Subscribe(Filter{}, func(ev Event) {
		<-block
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	})
	// First event occupies the dispatcher; the rest hit the buffer cap.
	for i := 0; i < 100; i++ {
		m.Publish(Event{Name: "e", Value: float64(i), Time: time.Now()})
	}
	close(block)
	m.Drain()
	st := m.Stats()
	if st.Dropped == 0 {
		t.Fatal("overflow was not accounted")
	}
	if st.Dispatched+st.Dropped != st.Published {
		t.Fatalf("dispatched(%d) + dropped(%d) != published(%d)",
			st.Dispatched, st.Dropped, st.Published)
	}
	mu.Lock()
	last := got[len(got)-1]
	mu.Unlock()
	// Drop-oldest: the newest event always survives.
	if last.Value != 99 {
		t.Fatalf("newest event was dropped; last delivered = %v", last.Value)
	}
	m.Close()
}
