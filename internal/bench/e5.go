package bench

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/event"
)

func init() {
	register(Experiment{
		ID:     "e5",
		Anchor: "Fig 4: the Event Manager architecture",
		Claim: "Publish never blocks and losses are counted: every event is delivered " +
			"to or dropped by each listener; delivery cost scales with listener fan-out; " +
			"threshold rules synthesise alerts promptly and forward them to outbound transmitters",
		run: runE5,
	})
}

type countingOutbound struct {
	n atomic.Int64
}

func (c *countingOutbound) Name() string { return "counting" }
func (c *countingOutbound) Transmit(event.Event) error {
	c.n.Add(1)
	return nil
}

// settled waits until the manager's listeners and outbound drivers have
// delivered, transmitted or dropped want events between them.
func settled(m *event.Manager, want int64) (event.Stats, error) {
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		st := m.Stats()
		if got := st.Delivered + st.Transmitted + st.Dropped; got == want {
			return st, nil
		} else if got > want || time.Now().After(deadline) {
			return st, fmt.Errorf("e5: delivered %d + transmitted %d + dropped %d, want %d",
				st.Delivered, st.Transmitted, st.Dropped, want)
		}
	}
}

func runE5(r *run) error {
	fanouts := pick(r.quick, []int{1, 8}, []int{1, 4, 16, 64})

	// One burst of b.N events published back to back, then taken by every
	// listener: the burst size is whatever the front-end's benchtime makes
	// b.N, and each listener's queue bounds what it can fall behind.
	t := newTable(r.w, "listeners", "burst size", "publish time", "events/sec", "delivered", "dropped", "published x listeners")
	for _, listeners := range fanouts {
		res := r.measure(fmt.Sprintf("burst/listeners-%d", listeners), func(b *testing.B) error {
			m := event.NewManager()
			defer m.Close()
			for i := 0; i < listeners; i++ {
				m.Subscribe(event.Filter{}, func(event.Event) {})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Publish(event.Event{Name: "burst", Host: "h", Value: float64(i), Time: time.Unix(int64(i), 0)})
			}
			b.StopTimer()
			st, err := settled(m, int64(b.N*listeners))
			b.ReportMetric(float64(st.Delivered), "delivered")
			b.ReportMetric(float64(st.Dropped), "dropped")
			return err
		})
		t.row(listeners, res.N, res.T.Round(time.Millisecond),
			fmt.Sprintf("%.0f", float64(res.N)/res.T.Seconds()),
			int64(res.Extra["delivered"]), int64(res.Extra["dropped"]), res.N*listeners)
	}
	t.flush()

	// Threshold alert latency: publish a crossing event, time until the
	// alert lands at a listener and an outbound transmitter.
	res := r.measure("threshold-alert", func(b *testing.B) error {
		m := event.NewManager()
		defer m.Close()
		if err := m.AddRule(event.ThresholdRule{
			Name: "load-alarm", Match: event.Filter{Name: "load"},
			Op: event.Above, Threshold: 4, Rearm: 0.75,
		}); err != nil {
			return err
		}
		out := &countingOutbound{}
		if err := m.AddOutbound(event.Filter{Severity: event.SeverityAlert}, out); err != nil {
			return err
		}
		alertAt := make(chan time.Time, 1)
		m.Subscribe(event.Filter{Severity: event.SeverityAlert}, func(event.Event) {
			select {
			case alertAt <- time.Now():
			default:
			}
		})
		var total time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			m.Publish(event.Event{Name: "load", Host: "h", Value: 9, Time: time.Unix(int64(i), 0)})
			at := <-alertAt
			total += at.Sub(start)
			// Let the transmitter take the alert too: back-to-back
			// iterations can keep its goroutine off the CPU for a queue's
			// worth of alerts.
			for out.n.Load() <= int64(i) {
				runtime.Gosched()
			}
			// Re-arm the rule.
			m.Publish(event.Event{Name: "load", Host: "h", Value: 0, Time: time.Unix(int64(i), 1)})
		}
		b.StopTimer()
		st, err := settled(m, int64(2*b.N)) // each alert: one listener, one transmitter
		b.ReportMetric(float64(total)/float64(b.N), "alert-ns/op")
		b.ReportMetric(float64(out.n.Load()), "transmitted")
		b.ReportMetric(float64(st.TransmitErrors), "transmit-errors")
		return err
	})
	fmt.Fprintf(r.w, "\nthreshold alert latency (publish → alert delivered): mean %s over %d alerts\n",
		time.Duration(res.Extra["alert-ns/op"]).Round(time.Microsecond), res.N)
	fmt.Fprintf(r.w, "alerts transmitted to outbound driver: %d (transmit errors: %d)\n",
		int64(res.Extra["transmitted"]), int64(res.Extra["transmit-errors"]))
	return nil
}
