// Package pool implements the GridRM ConnectionManager (paper §3.1.2): it
// executes real-time queries against resource drivers through a pool of
// driver connections, because "driver connections typically incur an
// overhead when a data source is first connected, especially if drivers are
// dynamically mapped to the data source".
//
// The manager asks the GridRMDriverManager for a new connection only when
// no suitable pooled instance exists; every new connection is registered
// with the pool before use. An idle connection is trusted until a statement on
// it fails (Conn.PingContext then tells a stale session from a failed query)
// and reaped after MaxIdleTime. A connection keeps the statement it was first
// asked for (Conn.Statement) while it is pooled, so a harvest on a reused
// connection makes none, and the statement closes with its connection.
package pool

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridrm/internal/driver"
	"gridrm/internal/trace"
)

// Options configures a Manager.
type Options struct {
	// MaxIdlePerSource bounds idle connections kept per data source
	// (default 4).
	MaxIdlePerSource int
	// MaxIdleTime evicts idle connections older than this (default 5m).
	MaxIdleTime time.Duration
	// Disabled turns pooling off: every Get opens a fresh connection and
	// every Release closes it. Used by the E3 ablation.
	Disabled bool
	// DialObserver, when set, receives the latency in seconds of every
	// driver connect the pool performs, successful or not (the gateway
	// wires it to the gridrm_pool_dial_seconds histogram).
	DialObserver func(seconds float64)
	// Clock is injectable for tests; defaults to time.Now.
	Clock func() time.Time
}

// Stats counts ConnectionManager activity.
type Stats struct {
	// Hits counts Gets satisfied from the pool.
	Hits int64
	// Misses counts Gets that had to open a new connection.
	Misses int64
	// Opens counts connections opened via the DriverManager.
	Opens int64
	// Closes counts underlying connections closed.
	Closes int64
	// PingFailures counts pooled connections discarded as stale: a reused
	// connection whose PingContext failed, after a statement on it did or
	// when the source sweep asked.
	PingFailures int64
	// Evictions counts idle connections dropped by capacity or age.
	Evictions int64
	// Idle is the number of idle pooled connections.
	Idle int
}

// Manager is the ConnectionManager.
type Manager struct {
	drivers *driver.Manager
	opts    Options

	mu   sync.Mutex
	idle map[string][]idleConn

	hits, misses, opens, closes atomic.Int64
	pingFailures, evictions     atomic.Int64
}

type idleConn struct {
	conn    driver.Conn
	stmt    driver.Stmt // nil until the connection's first Statement
	retired time.Time
}

// New creates a ConnectionManager on top of a DriverManager.
func New(dm *driver.Manager, opts Options) *Manager {
	if opts.MaxIdlePerSource <= 0 {
		opts.MaxIdlePerSource = 4
	}
	if opts.MaxIdleTime <= 0 {
		opts.MaxIdleTime = 5 * time.Minute
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	return &Manager{drivers: dm, opts: opts, idle: make(map[string][]idleConn)}
}

// key identifies a pool bucket: URL plus canonicalised properties, since
// connections opened with different credentials must not be shared.
func key(url string, props driver.Properties) string {
	if len(props) == 0 {
		return url
	}
	parts := make([]string, 0, len(props))
	for k, v := range props {
		parts = append(parts, k+"="+v)
	}
	sort.Strings(parts)
	return url + "\x00" + strings.Join(parts, "\x00")
}

// Conn is a pooled connection handle. Callers must call Release (to return
// it for reuse) or Discard (to close it) when done; the embedded
// driver.Conn methods remain available in between.
type Conn struct {
	driver.Conn
	mgr      *Manager
	key      string
	stmt     driver.Stmt
	reused   bool
	released atomic.Bool
}

// Reused reports whether the connection came from the idle pool, unvalidated,
// rather than from a fresh connect.
func (c *Conn) Reused() bool { return c.reused }

// Statement returns the connection's statement, making it on first use. A
// statement runs many queries (driver.Stmt), so it stays with the connection
// while it is pooled and is closed with it, never by the caller.
func (c *Conn) Statement() (driver.Stmt, error) {
	if c.stmt == nil {
		stmt, err := driver.SafeCreateStatement(c.Conn)
		if err != nil {
			return nil, err
		}
		c.stmt = stmt
	}
	return c.stmt, nil
}

// Release returns the connection, with its statement, to the pool for reuse.
func (c *Conn) Release() {
	if c.released.Swap(true) {
		return
	}
	c.mgr.put(c.key, idleConn{conn: c.Conn, stmt: c.stmt})
}

// Discard closes the underlying connection and its statement without pooling
// them; use after errors that suggest the session is broken.
func (c *Conn) Discard() {
	if c.released.Swap(true) {
		return
	}
	c.mgr.close(idleConn{conn: c.Conn, stmt: c.stmt})
}

// Get returns a connection to the data source, reusing a pooled instance
// as it is when there is one, otherwise opening a new one via the
// DriverManager.
func (m *Manager) Get(url string, props driver.Properties) (*Conn, error) {
	return m.GetContext(context.Background(), url, props)
}

// GetContext is Get bounded by ctx: if ctx expires while a new connection
// is being opened, the call returns ctx.Err() immediately. The in-flight
// connect keeps running in the background; when it eventually succeeds, the
// connection is adopted into the idle pool (not leaked), ready for the next
// caller. When the request is being traced, the checkout is recorded as a
// "pool-checkout" span noting whether an idle connection was reused.
func (m *Manager) GetContext(ctx context.Context, url string, props driver.Properties) (*Conn, error) {
	sp := trace.SpanFromContext(ctx).Child("pool-checkout")
	if sp.Recording() {
		sp.SetAttr("url", url)
	}
	conn, err := m.getContext(ctx, url, props)
	if sp.Recording() {
		sp.SetAttr("reused", strconv.FormatBool(err == nil && conn.reused))
		sp.SetError(err)
		sp.End()
	}
	return conn, err
}

func (m *Manager) getContext(ctx context.Context, url string, props driver.Properties) (*Conn, error) {
	k := key(url, props)
	if ic, ok := m.takeIdle(k); ok {
		m.hits.Add(1)
		return &Conn{Conn: ic.conn, mgr: m, key: k, stmt: ic.stmt, reused: true}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.misses.Add(1)
	if ctx.Done() == nil {
		conn, err := m.connect(url, props)
		if err != nil {
			return nil, fmt.Errorf("pool: %w", err)
		}
		m.opens.Add(1)
		return &Conn{Conn: conn, mgr: m, key: k}, nil
	}
	type result struct {
		conn driver.Conn
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		conn, err := m.connect(url, props)
		ch <- result{conn, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			return nil, fmt.Errorf("pool: %w", r.err)
		}
		m.opens.Add(1)
		return &Conn{Conn: r.conn, mgr: m, key: k}, nil
	case <-ctx.Done():
		go func() {
			if r := <-ch; r.err == nil {
				m.opens.Add(1)
				m.put(k, idleConn{conn: r.conn})
			}
		}()
		return nil, ctx.Err()
	}
}

// connect opens a new connection through the DriverManager, reporting its
// dial latency to the observer when one is configured.
func (m *Manager) connect(url string, props driver.Properties) (driver.Conn, error) {
	start := m.opts.Clock()
	conn, err := m.drivers.Connect(url, props)
	if m.opts.DialObserver != nil {
		m.opts.DialObserver(m.opts.Clock().Sub(start).Seconds())
	}
	return conn, err
}

// PingContext asks the driver whether the session is still alive: after a
// statement failed on a reused connection, or because liveness is the caller's
// question (the source sweep). Nil means alive, and the connection is still the
// caller's to Release or Discard. Any error spends the handle: a failed ping
// counts the connection as stale and closes it. A driver's Ping carries no
// context, so when ctx can expire the wait (not the probe) is abandoned at the
// deadline: the probe finishes in the background and re-pools or closes the
// connection on its own outcome, while the caller gets ctx.Err().
func (c *Conn) PingContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		c.Release()
		return err
	}
	stale := func(err error) error {
		if err != nil {
			c.mgr.pingFailures.Add(1)
			c.Discard()
		}
		return err
	}
	if ctx.Done() == nil {
		return stale(driver.SafePing(c.Conn))
	}
	ch := make(chan error, 1)
	go func() { ch <- driver.SafePing(c.Conn) }()
	select {
	case err := <-ch:
		return stale(err)
	case <-ctx.Done():
		go func() {
			if stale(<-ch) == nil {
				c.Release()
			}
		}()
		return ctx.Err()
	}
}

func (m *Manager) takeIdle(k string) (idleConn, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	conns := m.idle[k]
	if len(conns) == 0 {
		return idleConn{}, false
	}
	last := conns[len(conns)-1]
	m.idle[k] = conns[:len(conns)-1]
	return last, true
}

// put pools ic, or closes it when pooling is off or the bucket is full.
func (m *Manager) put(k string, ic idleConn) {
	if m.opts.Disabled {
		m.close(ic)
		return
	}
	m.mu.Lock()
	conns := m.idle[k]
	if len(conns) >= m.opts.MaxIdlePerSource {
		m.mu.Unlock()
		m.evictions.Add(1)
		m.close(ic)
		return
	}
	ic.retired = m.opts.Clock()
	m.idle[k] = append(conns, ic)
	m.mu.Unlock()
}

// close closes a connection and the statement kept with it, counting one
// close. Every path that drops a connection ends here.
func (m *Manager) close(ic idleConn) {
	m.closes.Add(1)
	if ic.stmt != nil {
		_ = driver.SafeClose(ic.stmt)
	}
	_ = driver.SafeClose(ic.conn)
}

// Reap closes idle connections older than MaxIdleTime and returns how many
// were evicted. Gateways call this periodically.
func (m *Manager) Reap() int {
	cutoff := m.opts.Clock().Add(-m.opts.MaxIdleTime)
	var victims []idleConn
	m.mu.Lock()
	for k, conns := range m.idle {
		keep := conns[:0]
		for _, ic := range conns {
			if ic.retired.Before(cutoff) {
				victims = append(victims, ic)
			} else {
				keep = append(keep, ic)
			}
		}
		if len(keep) == 0 {
			delete(m.idle, k)
		} else {
			m.idle[k] = keep
		}
	}
	m.mu.Unlock()
	for _, ic := range victims {
		m.evictions.Add(1)
		m.close(ic)
	}
	return len(victims)
}

// CloseAll drains and closes every idle connection and its statement (gateway
// shutdown).
func (m *Manager) CloseAll() {
	m.mu.Lock()
	all := m.idle
	m.idle = make(map[string][]idleConn)
	m.mu.Unlock()
	for _, conns := range all {
		for _, ic := range conns {
			m.close(ic)
		}
	}
}

// Stats returns the pool counters and the idle count as of one instant: it
// reads them all under one hold of the pool lock.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	idle := 0
	for _, conns := range m.idle {
		idle += len(conns)
	}
	return Stats{
		Hits:         m.hits.Load(),
		Misses:       m.misses.Load(),
		Opens:        m.opens.Load(),
		Closes:       m.closes.Load(),
		PingFailures: m.pingFailures.Load(),
		Evictions:    m.evictions.Load(),
		Idle:         idle,
	}
}

// Drivers exposes the underlying DriverManager (the RequestManager reaches
// it through the ConnectionManager, as in Fig 3).
func (m *Manager) Drivers() *driver.Manager { return m.drivers }
