package bench

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/event"
)

func init() {
	register(Experiment{
		ID:     "e5",
		Anchor: "Fig 4: the Event Manager architecture",
		Claim: "the fast buffer absorbs bursts without losing events; delivery cost " +
			"scales with listener fan-out; threshold rules synthesise alerts promptly " +
			"and forward them to outbound transmitters",
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

func runE5(r *run) error {
	fanouts := pick(r.quick, []int{1, 8}, []int{1, 4, 16, 64})

	// One burst of b.N events published back to back, then drained: the
	// burst size is whatever the front-end's benchtime makes b.N.
	t := newTable(r.w, "listeners", "burst size", "drain time", "events/sec", "delivered", "lost", "high water")
	for _, listeners := range fanouts {
		res := r.measure(fmt.Sprintf("burst/listeners-%d", listeners), func(b *testing.B) error {
			m := event.NewManager(event.Options{HistorySize: 1024})
			defer m.Close()
			var delivered atomic.Int64
			for i := 0; i < listeners; i++ {
				m.Subscribe(event.Filter{}, func(event.Event) { delivered.Add(1) })
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Publish(event.Event{Name: "burst", Host: "h", Value: float64(i), Time: time.Unix(int64(i), 0)})
			}
			m.Drain()
			b.StopTimer()
			b.ReportMetric(float64(int64(b.N*listeners)-delivered.Load()), "lost")
			b.ReportMetric(float64(m.Stats().HighWater), "high-water")
			return nil
		})
		lost := int64(res.Extra["lost"])
		t.row(listeners, res.N, res.T.Round(time.Millisecond),
			fmt.Sprintf("%.0f", float64(res.N)/res.T.Seconds()),
			int64(res.N*listeners)-lost, lost, int64(res.Extra["high-water"]))
	}
	t.flush()

	// Threshold alert latency: publish a crossing event, time until the
	// alert lands at a listener and an outbound transmitter.
	res := r.measure("threshold-alert", func(b *testing.B) error {
		m := event.NewManager(event.Options{})
		defer m.Close()
		if err := m.AddRule(event.ThresholdRule{
			Name: "load-alarm", Match: event.Filter{Name: "load"},
			Op: event.Above, Threshold: 4, Rearm: 0.75,
		}); err != nil {
			return err
		}
		out := &countingOutbound{}
		m.AddOutbound(event.Filter{Severity: event.SeverityAlert}, out)
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
			// Re-arm the rule.
			m.Publish(event.Event{Name: "load", Host: "h", Value: 0, Time: time.Unix(int64(i), 1)})
			m.Drain()
		}
		b.ReportMetric(float64(total)/float64(b.N), "alert-ns/op")
		b.ReportMetric(float64(out.n.Load()), "transmitted")
		b.ReportMetric(float64(m.Stats().TransmitErrors), "transmit-errors")
		return nil
	})
	fmt.Fprintf(r.w, "\nthreshold alert latency (publish → alert delivered): mean %s over %d alerts\n",
		time.Duration(res.Extra["alert-ns/op"]).Round(time.Microsecond), res.N)
	fmt.Fprintf(r.w, "alerts transmitted to outbound driver: %d (transmit errors: %d)\n",
		int64(res.Extra["transmitted"]), int64(res.Extra["transmit-errors"]))
	return nil
}
