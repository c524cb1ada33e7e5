package gma

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gridrm/internal/retry"
)

// deregisterTimeout bounds the best-effort deregistration performed by
// Registrar.Stop, so shutdown cannot hang on an unreachable directory.
const deregisterTimeout = 3 * time.Second

// RegistrarStats counts a Registrar's directory traffic.
type RegistrarStats struct {
	// Registrations counts successful Register calls.
	Registrations int64
	// Failures counts Register calls that failed.
	Failures int64
}

// Registrar keeps one federation member's record fresh in a directory.
//
// Start never fails for a transient directory outage: the initial
// registration is attempted synchronously, and on failure the background
// loop keeps retrying with jittered exponential backoff until the directory
// answers — a gateway boots and serves local queries even when its
// directory is down. Re-registration failures flip the registrar into the
// unreachable state (observable via Registered and the state listener);
// the next success flips it back. Stop→Start restart is supported.
type Registrar struct {
	dir      DirectoryService
	info     Registration
	interval time.Duration
	onState  func(reachable bool, err error)

	mu      sync.Mutex
	started bool
	cancel  context.CancelFunc
	done    chan struct{}

	// notifyMu serialises state-listener callbacks and guards the edge
	// detection, so flips are reported exactly once and in order.
	notifyMu      sync.Mutex
	reported      bool
	reportedOK    bool
	registered    atomic.Bool
	registrations atomic.Int64
	failures      atomic.Int64
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

// Registered reports whether the producer record is currently registered
// (the last Register call succeeded). Backs the directory-reachable gauge.
func (r *Registrar) Registered() bool { return r.registered.Load() }

// Stats returns the registrar's counters.
func (r *Registrar) Stats() RegistrarStats {
	return RegistrarStats{
		Registrations: r.registrations.Load(),
		Failures:      r.failures.Load(),
	}
}

// register performs one Register call and reports reachability flips (and
// the very first outcome) to the state listener.
func (r *Registrar) register(ctx context.Context) error {
	err := r.dir.RegisterContext(ctx, r.info)
	if ctx.Err() != nil {
		// Stopped mid-call: not an observation of the directory.
		return err
	}
	ok := err == nil
	if ok {
		r.registrations.Add(1)
	} else {
		r.failures.Add(1)
	}
	r.registered.Store(ok)
	r.notifyMu.Lock()
	flip := !r.reported || r.reportedOK != ok
	r.reported, r.reportedOK = true, ok
	if flip && r.onState != nil {
		// Called under notifyMu so flips arrive in order; listeners must
		// not call back into the Registrar.
		r.onState(ok, err)
	}
	r.notifyMu.Unlock()
	return err
}

// Start begins keeping the record fresh until Stop. It returns an error
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
	initialErr := r.register(ctx)

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
			retrying = r.register(ctx) != nil
		}
	}()
	return nil
}

// Stop halts refreshing and deregisters the producer, best-effort and
// bounded: an unreachable directory cannot hang shutdown. The registrar can
// be started again afterwards.
func (r *Registrar) Stop() {
	r.mu.Lock()
	started := r.started
	r.started = false
	stop, done := r.cancel, r.done
	r.mu.Unlock()
	if !started {
		return
	}
	stop()
	<-done
	r.registered.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), deregisterTimeout)
	defer cancel()
	_ = r.dir.DeregisterContext(ctx, r.info.Name)
}
