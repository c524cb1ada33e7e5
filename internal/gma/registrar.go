package gma

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gridrm/internal/metrics"
	"gridrm/internal/retry"
	"gridrm/internal/web"
)

// deregisterTimeout bounds the best-effort deregistration performed by
// Registrar.Stop, so shutdown cannot hang on an unreachable directory.
const deregisterTimeout = 3 * time.Second

// RegistrarStats is one reading of a Registrar.
type RegistrarStats struct {
	// Registrations counts registrations, the first and every heartbeat,
	// the directory accepted.
	Registrations int64
	// Failures counts registrations that failed.
	Failures int64
	// Reachable reports whether the last registration succeeded; it is
	// false once the registrar has stopped.
	Reachable bool
}

// Registrar keeps one federation member's record in a directory: a site's
// and a republisher's alike.
//
// Start never fails for a transient directory outage: the initial
// registration is attempted synchronously, and on failure the background
// loop keeps retrying with jittered exponential backoff until the directory
// answers — a gateway boots and serves local queries even when its
// directory is down. Re-registration failures flip the registrar into the
// unreachable state (observable via Stats and the state listener); the next
// success flips it back.
//
// Each registration runs to the directory's answer, bounded by the
// directory client's timeout, and is never abandoned by Stop or Halt: a
// registration abandoned on the wire could reach the directory after the
// deregistration that follows it and list a stopped member again. Stop
// deregisters once the loop has exited, so the withdrawal is the
// directory's last word; Halt leaves the record behind, as a crash does.
// Either may be followed by Start.
type Registrar struct {
	dir      DirectoryService
	info     Registration
	interval time.Duration
	onState  func(reachable bool, err error)

	mu      sync.Mutex
	started bool
	cancel  context.CancelFunc
	done    chan struct{}

	// outcomeMu serialises outcomes: it guards stats and the listener's
	// edge detection, so flips are reported exactly once and in order.
	outcomeMu  sync.Mutex
	stats      RegistrarStats
	reported   bool
	reportedOK bool
}

// NewRegistrar creates a registrar that re-registers info every interval.
// An empty Role normalises to RoleSite.
func NewRegistrar(dir DirectoryService, info Registration, interval time.Duration) *Registrar {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	info.normalize()
	return &Registrar{dir: dir, info: info, interval: interval}
}

// SetStateListener installs a callback invoked whenever directory
// reachability flips (and once with the initial outcome): reachable=false
// with the failing error when registration starts failing, reachable=true
// when it recovers. Callbacks are serialised; they must not call back into
// the Registrar. Call before Start.
func (r *Registrar) SetStateListener(fn func(reachable bool, err error)) {
	r.onState = fn
}

// Stats returns one reading of the registrar's counters and reachability.
func (r *Registrar) Stats() RegistrarStats {
	r.outcomeMu.Lock()
	defer r.outcomeMu.Unlock()
	return r.stats
}

// RegisterMetrics exports one Stats reading per scrape on reg:
// gridrm_directory_reachable, gridrm_directory_registrations_total and
// gridrm_directory_registration_failures_total. Beside them,
// gridrm_http_dials_total is web.Dials, the connections the process's
// shared client transport has dialled: every member of one process exports
// the same count, for they share the transport.
func (r *Registrar) RegisterMetrics(reg *metrics.Registry) {
	reg.Collect(func(c *metrics.Collection) {
		st := r.Stats()
		c.Gauge("gridrm_directory_reachable", "1 when the last directory registration succeeded.", metrics.Flag(st.Reachable))
		c.Counter("gridrm_directory_registrations_total", "Directory registrations, the first and every heartbeat, that succeeded.", float64(st.Registrations))
		c.Counter("gridrm_directory_registration_failures_total", "Directory registrations that failed.", float64(st.Failures))
		c.Counter("gridrm_http_dials_total", "Connections the process's shared HTTP client transport has dialled.", float64(web.Dials()))
	})
}

// register performs one registration, under no context that Stop or Halt
// cancels, and reports reachability flips (and the very first outcome) to
// the state listener.
func (r *Registrar) register() error {
	err := r.dir.RegisterContext(context.Background(), r.info)
	ok := err == nil
	r.outcomeMu.Lock()
	defer r.outcomeMu.Unlock()
	if ok {
		r.stats.Registrations++
	} else {
		r.stats.Failures++
	}
	r.stats.Reachable = ok
	flip := !r.reported || r.reportedOK != ok
	r.reported, r.reportedOK = true, ok
	if flip && r.onState != nil {
		// Called under outcomeMu so flips arrive in order; listeners must
		// not call back into the Registrar.
		r.onState(ok, err)
	}
	return err
}

// Start begins keeping the record fresh until Stop or Halt. It returns an error
// only for invalid configuration (missing site or endpoint) — a directory
// that is down does not fail Start; registration is retried in the
// background with jittered exponential backoff until it lands.
func (r *Registrar) Start() error {
	if r.info.Name == "" || r.info.Endpoint == "" {
		return fmt.Errorf("gma: registration needs name and endpoint")
	}
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return nil
	}
	r.started = true
	// Fresh context per Start: a restarted registrar must not observe the
	// previous run's cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	r.cancel, r.done = cancel, done
	r.mu.Unlock()

	// First attempt runs synchronously so a healthy directory sees the
	// record the moment Start returns; a failure only schedules retries.
	initialErr := r.register()

	// Retries start at an eighth of the refresh interval and are capped at
	// it, jittered so a directory restart is not met by a thundering herd.
	backoff := retry.Backoff{Base: max(r.interval/8, 10*time.Millisecond), Max: r.interval}
	go func() {
		defer close(done)
		retrying := initialErr != nil
		attempt := 0
		for {
			wait := r.interval
			if retrying {
				wait = backoff.Delay(attempt)
				attempt++
			} else {
				attempt = 0
			}
			if retry.Sleep(ctx, wait) != nil {
				return
			}
			retrying = r.register() != nil
		}
	}()
	return nil
}

// Halt stops refreshing and leaves the record in the directory, the crash
// path: the member stays listed until the directory's TTL expires it. A
// registration in flight finishes first. It reports whether the registrar
// was running.
func (r *Registrar) Halt() bool {
	r.mu.Lock()
	started := r.started
	r.started = false
	stop, done := r.cancel, r.done
	r.mu.Unlock()
	if !started {
		return false
	}
	stop()
	<-done
	return true
}

// Stop halts refreshing and then deregisters the member, best-effort and
// bounded: an unreachable directory cannot hang shutdown.
func (r *Registrar) Stop() {
	if !r.Halt() {
		return
	}
	r.outcomeMu.Lock()
	r.stats.Reachable = false
	r.outcomeMu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), deregisterTimeout)
	defer cancel()
	_ = r.dir.DeregisterContext(ctx, r.info.Name)
}
