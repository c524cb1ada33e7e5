package gma

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// MultiDirectory federates N directory replicas into one DirectoryService,
// mirroring R-GMA's replicated-registry design: registrations fan out to
// every replica (so any one of them can answer lookups), while lookups fail
// over through the replicas in health-ranked order — replicas that answered
// recently are tried before replicas that have been failing. One reachable
// replica is enough for the Global layer to keep working.
type MultiDirectory struct {
	replicas []*replica
}

// replica is one directory endpoint plus its observed health.
type replica struct {
	name string
	svc  DirectoryService

	mu          sync.Mutex
	consecutive int
	lastErr     string
	lastOK      time.Time
	lastFailure time.Time
}

func (r *replica) noteOK(at time.Time) {
	r.mu.Lock()
	r.consecutive = 0
	r.lastErr = ""
	r.lastOK = at
	r.mu.Unlock()
}

func (r *replica) noteErr(err error, at time.Time) {
	r.mu.Lock()
	r.consecutive++
	r.lastErr = err.Error()
	r.lastFailure = at
	r.mu.Unlock()
}

func (r *replica) failures() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.consecutive
}

// ReplicaHealth is one replica's observed health, for gauges and /status.
type ReplicaHealth struct {
	// Name identifies the replica (its BaseURL for DirectoryClient
	// replicas, "replica-<i>" otherwise).
	Name string `json:"name"`
	// Healthy reports whether the replica's last operation succeeded.
	Healthy bool `json:"healthy"`
	// ConsecutiveFailures counts failures since the last success.
	ConsecutiveFailures int `json:"consecutiveFailures"`
	// LastError is the most recent failure ("" when healthy).
	LastError string `json:"lastError,omitempty"`
	// LastOK is when the replica last answered successfully.
	LastOK time.Time `json:"lastOK"`
}

// NewMultiDirectory builds a replicated directory over the given replicas
// (at least one). DirectoryClient replicas are named by their BaseURL.
func NewMultiDirectory(services ...DirectoryService) *MultiDirectory {
	if len(services) == 0 {
		panic("gma: MultiDirectory needs at least one replica")
	}
	md := &MultiDirectory{}
	for i, svc := range services {
		name := fmt.Sprintf("replica-%d", i)
		if dc, ok := svc.(*DirectoryClient); ok && dc.BaseURL != "" {
			name = dc.BaseURL
		}
		md.replicas = append(md.replicas, &replica{name: name, svc: svc})
	}
	return md
}

// ReplicaHealth snapshots every replica's health, in construction order.
func (m *MultiDirectory) ReplicaHealth() []ReplicaHealth {
	out := make([]ReplicaHealth, 0, len(m.replicas))
	for _, r := range m.replicas {
		r.mu.Lock()
		out = append(out, ReplicaHealth{
			Name:                r.name,
			Healthy:             r.consecutive == 0,
			ConsecutiveFailures: r.consecutive,
			LastError:           r.lastErr,
			LastOK:              r.lastOK,
		})
		r.mu.Unlock()
	}
	return out
}

// ranked returns the replicas ordered by health: fewest consecutive
// failures first, construction order as the tiebreak.
func (m *MultiDirectory) ranked() []*replica {
	out := append([]*replica(nil), m.replicas...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].failures() < out[j].failures() })
	return out
}

// RegisterContext implements DirectoryService: the record fans out to
// every replica concurrently and succeeds if at least one replica accepted
// it.
func (m *MultiDirectory) RegisterContext(ctx context.Context, p Registration) error {
	return m.everywhere("register", func(r *replica) error {
		err := r.svc.RegisterContext(ctx, p)
		if err != nil {
			r.noteErr(err, time.Now())
		} else {
			r.noteOK(time.Now())
		}
		return err
	})
}

// DeregisterContext implements DirectoryService: best-effort fan-out like
// RegisterContext.
func (m *MultiDirectory) DeregisterContext(ctx context.Context, name string) error {
	return m.everywhere("deregister", func(r *replica) error { return r.svc.DeregisterContext(ctx, name) })
}

// everywhere runs do on every replica, concurrently, and succeeds if it
// succeeded on one; what names the operation in the all-failed error. A
// lone replica is asked on the caller's goroutine, as most federations run.
func (m *MultiDirectory) everywhere(what string, do func(*replica) error) error {
	if len(m.replicas) == 1 {
		if err := do(m.replicas[0]); err != nil {
			return fmt.Errorf("gma: %s failed on every replica: %w", what, err)
		}
		return nil
	}
	errs := make([]error, len(m.replicas))
	var wg sync.WaitGroup
	for i, r := range m.replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = do(r)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err == nil {
			return nil
		}
	}
	return fmt.Errorf("gma: %s failed on every replica: %w", what, errors.Join(errs...))
}

// LookupContext implements DirectoryService: replicas are tried in
// health-ranked order and the first positive answer wins. A replica that
// answers "not found" does not end the search — during a partial outage
// another replica may hold a registration this one missed.
func (m *MultiDirectory) LookupContext(ctx context.Context, name string) (Registration, bool, error) {
	var errs []error
	notFound := false
	for _, r := range m.ranked() {
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			break
		}
		p, ok, err := r.svc.LookupContext(ctx, name)
		if err != nil {
			r.noteErr(err, time.Now())
			errs = append(errs, err)
			continue
		}
		r.noteOK(time.Now())
		if ok {
			return p, true, nil
		}
		notFound = true
	}
	if notFound {
		return Registration{}, false, nil
	}
	return Registration{}, false, fmt.Errorf("gma: lookup failed on every replica: %w", errors.Join(errs...))
}

// firstAnswer asks the replicas in health-ranked order and returns the
// first answer; what names the operation in the all-failed error.
func firstAnswer[T any](ctx context.Context, m *MultiDirectory, what string, ask func(DirectoryService) (T, error)) (T, error) {
	var errs []error
	for _, r := range m.ranked() {
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			break
		}
		v, err := ask(r.svc)
		if err != nil && errors.Is(ctx.Err(), context.Canceled) {
			errs = append(errs, err) // the caller gave up; the replica did not fail
			break
		}
		if err != nil {
			r.noteErr(err, time.Now())
			errs = append(errs, err)
			continue
		}
		r.noteOK(time.Now())
		return v, nil
	}
	var zero T
	return zero, fmt.Errorf("gma: %s failed on every replica: %w", what, errors.Join(errs...))
}

// ListContext implements DirectoryService: the first replica
// (health-ranked) that answers wins.
func (m *MultiDirectory) ListContext(ctx context.Context) ([]Registration, error) {
	return firstAnswer(ctx, m, "registrations", func(d DirectoryService) ([]Registration, error) { return d.ListContext(ctx) })
}

// WatchContext implements DirectoryService over the first replica
// (health-ranked) that answers, the one ListContext answers from. Watching
// every replica would return at once, for ever, while two of them disagree.
func (m *MultiDirectory) WatchContext(ctx context.Context, digest string, wait time.Duration) ([]Registration, error) {
	return firstAnswer(ctx, m, "watch", func(d DirectoryService) ([]Registration, error) { return d.WatchContext(ctx, digest, wait) })
}

var _ DirectoryService = (*MultiDirectory)(nil)
