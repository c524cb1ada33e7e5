package driver

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// FailureAction says what the Manager does when the preferred or cached
// driver for a source cannot connect (paper §3.1.3/§4: "retry the driver,
// try another, report the error" — retrying is the Policy.Retries knob, and
// this action picks between the remaining two).
type FailureAction int

const (
	// TryNext falls back to dynamic selection across the remaining
	// registered drivers.
	TryNext FailureAction = iota
	// Report surfaces the connection failure to the caller immediately.
	Report
)

// String returns the action name.
func (a FailureAction) String() string {
	if a == Report {
		return "report"
	}
	return "try-next"
}

// Policy configures driver-to-resource allocation failure handling.
type Policy struct {
	// Retries is how many additional attempts each selected driver gets
	// before it is considered failed for this request.
	Retries int
	// OnFailure selects the follow-up when the preferred/cached driver
	// is exhausted.
	OnFailure FailureAction
}

// Stats counts Manager activity; all fields are cumulative. Benchmarks E2
// read these to report scan cost and cache effectiveness.
type Stats struct {
	// Registrations counts successful RegisterDriver calls.
	Registrations int64
	// Scans counts dynamic driver-location scans.
	Scans int64
	// ScanProbes counts AcceptsURL probes performed during scans.
	ScanProbes int64
	// CacheHits counts connects satisfied by the last-good driver cache.
	CacheHits int64
	// CacheMisses counts connects that had no usable cache entry.
	CacheMisses int64
	// Connects counts successful driver connects.
	Connects int64
	// ConnectFailures counts failed driver connect attempts.
	ConnectFailures int64
	// Failovers counts times a preferred/cached driver was abandoned for
	// dynamic selection.
	Failovers int64
}

type statsCounters struct {
	registrations, scans, scanProbes     atomic.Int64
	cacheHits, cacheMisses               atomic.Int64
	connects, connectFailures, failovers atomic.Int64
}

func (c *statsCounters) snapshot() Stats {
	return Stats{
		Registrations:   c.registrations.Load(),
		Scans:           c.scans.Load(),
		ScanProbes:      c.scanProbes.Load(),
		CacheHits:       c.cacheHits.Load(),
		CacheMisses:     c.cacheMisses.Load(),
		Connects:        c.connects.Load(),
		ConnectFailures: c.connectFailures.Load(),
		Failovers:       c.failovers.Load(),
	}
}

// Manager is the GridRMDriverManager (paper §3.1.3): it registers and
// un-registers resource drivers and performs driver-to-resource allocation,
// statically (user preferences), dynamically (AcceptsURL scan, Table 2), or
// via a cache of the driver last successfully used for a data source.
// Drivers can be added and removed at runtime without affecting normal
// operation; all methods are safe for concurrent use.
type Manager struct {
	mu       sync.RWMutex
	drivers  []Driver // registration order, scanned in order like Table 2
	byName   map[string]Driver
	prefs    map[string][]string
	lastGood map[string]string
	policy   Policy
	stats    statsCounters
}

// NewManager returns an empty Manager with an empty last-good cache and a
// zero-retry TryNext policy.
func NewManager() *Manager {
	return &Manager{
		byName:   make(map[string]Driver),
		prefs:    make(map[string][]string),
		lastGood: make(map[string]string),
		policy:   Policy{Retries: 0, OnFailure: TryNext},
	}
}

// RegisterDriver adds a driver. Registering a name twice is an error; the
// registration component stays generic by never referencing concrete driver
// types (paper Table 1).
func (m *Manager) RegisterDriver(d Driver) error {
	if d == nil || d.Name() == "" {
		return fmt.Errorf("driver: cannot register unnamed driver")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.byName[d.Name()]; dup {
		return fmt.Errorf("driver: %q already registered", d.Name())
	}
	m.byName[d.Name()] = d
	m.drivers = append(m.drivers, d)
	m.stats.registrations.Add(1)
	return nil
}

// DeregisterDriver removes a driver at runtime; cached selections that point
// at it are invalidated.
func (m *Manager) DeregisterDriver(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.byName[name]; !ok {
		return fmt.Errorf("driver: %q not registered", name)
	}
	delete(m.byName, name)
	for i, d := range m.drivers {
		if d.Name() == name {
			m.drivers = append(m.drivers[:i], m.drivers[i+1:]...)
			break
		}
	}
	for url, cached := range m.lastGood {
		if cached == name {
			delete(m.lastGood, url)
		}
	}
	return nil
}

// Drivers returns the names of registered drivers in registration order.
func (m *Manager) Drivers() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, len(m.drivers))
	for i, d := range m.drivers {
		names[i] = d.Name()
	}
	return names
}

// Driver returns the registered driver with the given name.
func (m *Manager) Driver(name string) (Driver, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.byName[name]
	return d, ok
}

// SetPreferences registers an ordered driver preference list for a
// data-source URL (paper §4, Fig 8: "register a number of drivers to be
// used in prioritised order"). An empty list clears the preference.
func (m *Manager) SetPreferences(url string, driverNames []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(driverNames) == 0 {
		delete(m.prefs, url)
		return
	}
	m.prefs[url] = append([]string(nil), driverNames...)
}

// Preferences returns the preference list registered for a URL, if any.
func (m *Manager) Preferences(url string) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.prefs[url]...)
}

// SetPolicy configures failure handling for subsequent Connect calls.
func (m *Manager) SetPolicy(p Policy) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p.Retries < 0 {
		p.Retries = 0
	}
	m.policy = p
}

// ClearCache drops all last-good cache entries.
func (m *Manager) ClearCache() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastGood = make(map[string]string)
}

// CachedDriver returns the last-good driver name cached for a URL, if any.
func (m *Manager) CachedDriver(url string) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	name, ok := m.lastGood[url]
	return name, ok
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats { return m.stats.snapshot() }

// Connect allocates a driver for the data source and opens a connection,
// applying static preferences, the last-good cache, and dynamic selection
// in that order, under the configured failure policy.
func (m *Manager) Connect(url string, props Properties) (Conn, error) {
	if _, err := ParseURL(url); err != nil {
		return nil, err
	}

	m.mu.RLock()
	prefs := m.prefs[url]
	cached, hasCached := m.lastGood[url]
	policy := m.policy
	m.mu.RUnlock()

	var firstErr error

	// 1. Static preferences, in priority order.
	if len(prefs) > 0 {
		for _, name := range prefs {
			d, ok := m.Driver(name)
			if !ok {
				continue
			}
			conn, err := m.tryConnect(d, url, props, policy.Retries)
			if err == nil {
				m.remember(url, d.Name())
				return conn, nil
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		if policy.OnFailure == Report {
			return nil, fmt.Errorf("driver: preferred drivers for %s failed: %w", url, firstErr)
		}
		m.stats.failovers.Add(1)
		return m.dynamicConnect(url, props, policy.Retries, firstErr)
	}

	// 2. Last-good cache.
	if hasCached {
		if d, ok := m.Driver(cached); ok {
			conn, err := m.tryConnect(d, url, props, policy.Retries)
			if err == nil {
				m.stats.cacheHits.Add(1)
				return conn, nil
			}
			firstErr = err
			// Configuration rules determine what happens when a cached
			// driver reference is no longer valid (§3.1.3).
			if policy.OnFailure == Report {
				m.forget(url)
				return nil, fmt.Errorf("driver: cached driver %s for %s failed: %w", cached, url, err)
			}
			m.forget(url)
			m.stats.failovers.Add(1)
		}
	}
	m.stats.cacheMisses.Add(1)

	// 3. Dynamic location.
	return m.dynamicConnect(url, props, policy.Retries, firstErr)
}

// LocateDriver performs only the dynamic AcceptsURL scan (paper Table 2)
// without connecting, returning the first registered driver that accepts
// the URL.
func (m *Manager) LocateDriver(url string) (Driver, error) {
	m.mu.RLock()
	drivers := append([]Driver(nil), m.drivers...)
	m.mu.RUnlock()
	m.stats.scans.Add(1)
	for _, d := range drivers {
		m.stats.scanProbes.Add(1)
		if SafeAccepts(d, url) {
			return d, nil
		}
	}
	return nil, fmt.Errorf("%w for %s", ErrNoDriver, url)
}

func (m *Manager) dynamicConnect(url string, props Properties, retries int, prevErr error) (Conn, error) {
	m.mu.RLock()
	drivers := append([]Driver(nil), m.drivers...)
	m.mu.RUnlock()
	m.stats.scans.Add(1)
	firstErr := prevErr
	// Iterate the registered drivers: the first that accepts the URL AND
	// can connect to the data source is used (Table 2).
	for _, d := range drivers {
		m.stats.scanProbes.Add(1)
		if !SafeAccepts(d, url) {
			continue
		}
		conn, err := m.tryConnect(d, url, props, retries)
		if err == nil {
			m.remember(url, d.Name())
			return conn, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("driver: all drivers failed for %s: %w", url, firstErr)
	}
	return nil, fmt.Errorf("%w for %s", ErrNoDriver, url)
}

func (m *Manager) tryConnect(d Driver, url string, props Properties, retries int) (Conn, error) {
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		var conn Conn
		conn, err = SafeConnect(d, url, props)
		if err == nil {
			m.stats.connects.Add(1)
			return conn, nil
		}
		m.stats.connectFailures.Add(1)
	}
	return nil, fmt.Errorf("driver %s: %w", d.Name(), err)
}

func (m *Manager) remember(url, driverName string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastGood[url] = driverName
}

func (m *Manager) forget(url string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.lastGood, url)
}
