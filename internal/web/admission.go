package web

import (
	"context"
	"sync/atomic"

	"gridrm/internal/metrics"
)

// retryAfter is the Retry-After hint, in seconds, sent with 429 responses.
const retryAfter = "1"

// AdmissionStats snapshots the gate for /status.
type AdmissionStats struct {
	// MaxInFlight and MaxQueue echo the configuration.
	MaxInFlight int `json:"maxInFlight"`
	MaxQueue    int `json:"maxQueue"`
	// InFlight is how many admitted requests are executing now.
	InFlight int64 `json:"inFlight"`
	// Queued is how many requests are waiting for a slot now.
	Queued int64 `json:"queued"`
	// Admitted counts requests that got a slot.
	Admitted int64 `json:"admitted"`
	// Shed counts requests rejected with 429 (or abandoned while queued).
	Shed int64 `json:"shed"`
}

// admission is the load-shedding gate, so a federated query storm sheds
// load with 429s instead of collapsing the gateway under unbounded
// goroutines: a semaphore of maxInFlight slots plus at most maxQueue
// waiters; arrivals past the queue are shed immediately.
type admission struct {
	slots    chan struct{}
	maxQueue int

	inflight atomic.Int64
	queued   atomic.Int64
	admitted atomic.Int64
	shed     atomic.Int64
}

func newAdmission(maxInFlight, maxQueue int) *admission {
	return &admission{slots: make(chan struct{}, maxInFlight), maxQueue: max(maxQueue, 0)}
}

// acquire admits the request or reports it shed. The caller must invoke the
// returned release exactly once when ok.
func (a *admission) acquire(ctx context.Context) (release func(), ok bool) {
	select {
	case a.slots <- struct{}{}:
	default:
		// No free slot: join the bounded queue or shed.
		if a.queued.Add(1) > int64(a.maxQueue) {
			a.queued.Add(-1)
			a.shed.Add(1)
			return nil, false
		}
		select {
		case a.slots <- struct{}{}:
			a.queued.Add(-1)
		case <-ctx.Done():
			// The client gave up while queued; count it shed so saturation
			// is visible even when nobody sees the 429.
			a.queued.Add(-1)
			a.shed.Add(1)
			return nil, false
		}
	}
	a.admitted.Add(1)
	a.inflight.Add(1)
	return func() {
		a.inflight.Add(-1)
		<-a.slots
	}, true
}

func (a *admission) stats() AdmissionStats {
	return AdmissionStats{
		MaxInFlight: cap(a.slots),
		MaxQueue:    a.maxQueue,
		InFlight:    a.inflight.Load(),
		Queued:      a.queued.Load(),
		Admitted:    a.admitted.Load(),
		Shed:        a.shed.Load(),
	}
}

// SetAdmissionLimits installs a load-shedding gate in front of the Gated
// routes (/query and /poll): at most maxInFlight requests execute at once,
// at most maxQueue more wait for a slot, and excess requests are shed with
// 429 + Retry-After. Call once, before serving; maxInFlight <= 0 leaves the
// surface ungated.
func (f *Front) SetAdmissionLimits(maxInFlight, maxQueue int) {
	if maxInFlight > 0 && f.admit == nil {
		f.admit = newAdmission(maxInFlight, maxQueue)
	}
}

// SetAdmissionLimits gates the servlet (see Front.SetAdmissionLimits) and
// exports gate occupancy and shed counts on /status and /metrics.
func (s *Server) SetAdmissionLimits(maxInFlight, maxQueue int) {
	if maxInFlight <= 0 || s.admit != nil {
		return
	}
	s.Front.SetAdmissionLimits(maxInFlight, maxQueue)
	s.gw.Metrics().Collect(func(c *metrics.Collection) {
		st := s.admit.stats()
		c.Counter("gridrm_http_shed_total", "Requests shed by the admission gate (429).", float64(st.Shed))
		c.Counter("gridrm_http_admitted_total", "Requests admitted by the admission gate.", float64(st.Admitted))
		c.Gauge("gridrm_http_inflight", "Admitted requests currently executing.", float64(st.InFlight))
		c.Gauge("gridrm_http_queued", "Requests waiting for an admission slot.", float64(st.Queued))
	})
}
