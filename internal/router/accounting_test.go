package router

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/breaker"
)

// TestPushAccountingConserves runs four concurrent publishers against every
// kind of consumer the router has — a subscriber that never reads (evicted),
// a slow one (drops), a filtered and projected one, and a sink whose Deliver
// fails and then recovers — and checks after Close that every row is
// accounted for exactly once: each consumer's enqueued rows were taken,
// dropped or are still pending; the router's Enqueued and Dropped are the
// consumers' sums; a sink delivered or dropped everything it took; and every
// published row has a sequence number.
func TestPushAccountingConserves(t *testing.T) {
	var clock atomic.Int64 // the stall clock moves only when the test says so
	r := New(Options{
		QueueSize:  16,
		ReplaySize: 64,
		Stall:      time.Second,
		Clock:      func() time.Time { return time.Unix(0, clock.Load()) },
	})

	type consumer struct {
		name  string
		sub   *Subscription
		taken atomic.Int64
	}
	subscribe := func(name string, match func(Metric) (Metric, bool)) *consumer {
		sub, err := r.Subscribe(SubscribeOptions{Name: name, Match: match})
		if err != nil {
			t.Fatal(err)
		}
		return &consumer{name: name, sub: sub}
	}
	stalled := subscribe("stalled", nil)
	slow := subscribe("slow", nil)
	filtered := subscribe("filtered", func(m Metric) (Metric, bool) {
		if m.Group != "cpu" {
			return Metric{}, false
		}
		m.Columns, m.Row = m.Columns[1:], m.Row[1:]
		return m, true
	})

	var sinkCalls atomic.Int64
	var sinkRows atomic.Int64
	sink := &funcSink{name: "flaky", fn: func(_ context.Context, batch []Metric) error {
		if n := sinkCalls.Add(1); n <= 6 {
			return errors.New("collector down")
		}
		sinkRows.Add(int64(len(batch)))
		return nil
	}}
	if err := r.AddSink(sink, SinkOptions{
		Queue: 16, Retries: 1, Backoff: time.Microsecond,
		Breaker: breaker.Options{Threshold: 1000}, // recovery is the sink's, not the breaker's
	}); err != nil {
		t.Fatal(err)
	}
	var sr *sinkRunner
	r.mu.RLock()
	for _, s := range r.sinks {
		sr = s
	}
	r.mu.RUnlock()

	// Readers: the slow one takes one row and then waits to be released;
	// the filtered one reads as fast as it can.
	release := make(chan struct{})
	var readers sync.WaitGroup
	read := func(c *consumer, gate <-chan struct{}) {
		defer readers.Done()
		for first := true; ; first = false {
			if !first && gate != nil {
				<-gate
				gate = nil
			}
			select {
			case <-c.sub.C():
				c.taken.Add(1)
			case <-c.sub.Done():
				return
			}
		}
	}
	readers.Add(2)
	go read(slow, release)
	go read(filtered, nil)

	const publishers, batches = 4, 150
	var pubs sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			cols := []string{"host", "load"}
			for i := 0; i < batches; i++ {
				group := []string{"cpu", "mem"}[(p+i)%2]
				r.Publish("src", group, cols, [][]any{{"h1", float64(i)}, {"h2", float64(p)}, {"h3", 1.0}}, time.Unix(int64(i), 0))
			}
		}(p)
	}
	pubs.Wait()

	// Let the slow and filtered readers catch up, then move the clock past
	// the stall: the next publish evicts the subscriber that never read, and
	// only it.
	close(release)
	waitFor(t, "slow reader to drain", func() bool { return len(slow.sub.C()) == 0 })
	waitFor(t, "filtered reader to drain", func() bool { return len(filtered.sub.C()) == 0 })
	clock.Add(int64(2 * time.Second))
	r.Publish("src", "cpu", []string{"host", "load"}, [][]any{{"h9", 9.0}}, time.Unix(999, 0))
	if !stalled.sub.Evicted() || slow.sub.Evicted() || filtered.sub.Evicted() {
		t.Fatalf("evicted: stalled %v, slow %v, filtered %v", stalled.sub.Evicted(), slow.sub.Evicted(), filtered.sub.Evicted())
	}

	// The sink fails its first 6 calls, and under load every row it has
	// taken so far can have landed in them: feed it mem rows, which the
	// filtered reader never sees, until one is delivered.
	extra := 0
	for deadline := time.Now().Add(5 * time.Second); sinkRows.Load() == 0; extra++ {
		if time.Now().After(deadline) {
			t.Fatal("the sink never delivered a row")
		}
		r.Publish("src", "mem", []string{"host", "load"}, [][]any{{"h8", 8.0}}, time.Unix(1000, 0))
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	readers.Wait()

	st := r.Stats()
	rows := int64(publishers*batches*3 + 1 + extra)
	if st.Published != rows || r.Seq() != uint64(st.Published) {
		t.Fatalf("published %d, seq %d, want %d both", st.Published, r.Seq(), rows)
	}
	if slow.sub.Dropped() == 0 || stalled.sub.Dropped() == 0 || st.SinkErrors == 0 || sinkRows.Load() == 0 {
		t.Fatalf("the scenario lost its teeth: slow dropped %d, stalled dropped %d, sink errors %d, sink rows %d",
			slow.sub.Dropped(), stalled.sub.Dropped(), st.SinkErrors, sinkRows.Load())
	}
	var enqueued, dropped int64
	for _, c := range []*consumer{stalled, slow, filtered, {name: "sink", sub: sr.sub}} {
		taken := c.taken.Load()
		if c.sub == sr.sub {
			taken = sr.delivered.Load() + sr.dropped.Load()
		}
		pending := int64(len(c.sub.C()))
		if e := c.sub.Enqueued(); e != taken+c.sub.Dropped()+pending {
			t.Errorf("%s: enqueued %d != taken %d + dropped %d + pending %d", c.name, e, taken, c.sub.Dropped(), pending)
		}
		enqueued += c.sub.Enqueued()
		dropped += c.sub.Dropped()
	}
	if st.Enqueued != enqueued || st.Dropped != dropped {
		t.Errorf("router enqueued %d dropped %d, consumers' sums %d and %d", st.Enqueued, st.Dropped, enqueued, dropped)
	}
	if want := (publishers*batches/2)*3 + 1; filtered.sub.Enqueued() != int64(want) {
		t.Errorf("filtered subscriber enqueued %d, want the %d cpu rows", filtered.sub.Enqueued(), want)
	}
	ss := r.SinkStats()[0]
	if ss.Delivered+ss.Dropped != sr.sub.Enqueued()-int64(ss.Pending) || ss.Delivered != sinkRows.Load() {
		t.Errorf("sink: delivered %d + dropped %d != enqueued %d - pending %d (rows the sink saw: %d)",
			ss.Delivered, ss.Dropped, sr.sub.Enqueued(), ss.Pending, sinkRows.Load())
	}
	if st.SinkDelivered != ss.Delivered || st.SinkDropped != sr.dropped.Load() {
		t.Errorf("router sink totals %d delivered %d dropped, the sink's %d and %d", st.SinkDelivered, st.SinkDropped, ss.Delivered, sr.dropped.Load())
	}
}
