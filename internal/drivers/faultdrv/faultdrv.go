// Package faultdrv wraps any GridRM driver with fault-injection knobs —
// added connect/query latency, every-Nth-query errors, and hang-forever
// switches — the substrate the deadline, straggler and circuit-breaker
// tests build on. The wrapper is a full driver.Driver: it can be registered
// with a gateway under its own name, delegates AcceptsURL/Connect to the
// wrapped driver, and implements driver.StmtContext so a hung query can be
// abandoned by context cancellation (set ContextAware(false) to model a
// legacy driver that ignores contexts and exercises the goroutine shim).
// A context-aware statement reads the mode at every execution, so one a pooled
// connection keeps follows a later ContextAware(false) too.
package faultdrv

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gridrm/internal/driver"
	"gridrm/internal/resultset"
)

// Faults is the shared fault-injection state. One Faults instance can be
// shared by several wrapped drivers or owned by one; all knobs are safe for
// concurrent use while queries are in flight.
type Faults struct {
	connectLatency atomic.Int64 // nanoseconds
	queryLatency   atomic.Int64 // nanoseconds
	errEvery       atomic.Int64 // every Nth query fails; 0 = never
	panicEveryQ    atomic.Int64 // every Nth query panics; 0 = never
	panicEveryC    atomic.Int64 // every Nth connect panics; 0 = never
	hangConnect    atomic.Bool
	hangQuery      atomic.Bool
	ctxAware       atomic.Bool

	panicsThrown atomic.Int64

	queryCount   atomic.Int64
	connectCount atomic.Int64
	hangsServed  atomic.Int64

	mu      sync.Mutex
	release chan struct{}
}

// NewFaults returns a Faults with every fault disabled and context support
// enabled.
func NewFaults() *Faults {
	f := &Faults{release: make(chan struct{})}
	f.ctxAware.Store(true)
	return f
}

// SetConnectLatency injects per-connect latency.
func (f *Faults) SetConnectLatency(d time.Duration) { f.connectLatency.Store(int64(d)) }

// SetQueryLatency injects per-query latency (interruptible by ctx when the
// wrapper is context-aware).
func (f *Faults) SetQueryLatency(d time.Duration) { f.queryLatency.Store(int64(d)) }

// SetErrorEvery makes every nth query fail (n <= 0 disables).
func (f *Faults) SetErrorEvery(n int) { f.errEvery.Store(int64(n)) }

// SetPanicEveryQuery makes every nth query panic (n <= 0 disables; n == 1
// panics on every query). The deterministic every-Nth scheme is the
// testable analogue of probabilistic panic injection: it exercises the
// gateway's recover() boundaries on both the context-aware path and the
// legacy goroutine shim.
func (f *Faults) SetPanicEveryQuery(n int) { f.panicEveryQ.Store(int64(n)) }

// SetPanicEveryConnect makes every nth connect panic (n <= 0 disables).
func (f *Faults) SetPanicEveryConnect(n int) { f.panicEveryC.Store(int64(n)) }

// PanicsThrown returns how many injected panics the wrapper has raised.
func (f *Faults) PanicsThrown() int64 { return f.panicsThrown.Load() }

// SetHangConnect makes subsequent connects hang until Release (or, when
// context-aware, the caller's context expires — but driver.Driver.Connect
// carries no context, so only Release frees a hung connect).
func (f *Faults) SetHangConnect(hang bool) { f.setHang(&f.hangConnect, hang) }

// SetHangQuery makes subsequent queries hang until Release or, when the
// wrapper is context-aware, until the query's context expires.
func (f *Faults) SetHangQuery(hang bool) { f.setHang(&f.hangQuery, hang) }

func (f *Faults) setHang(flag *atomic.Bool, hang bool) {
	if flag.Swap(hang) && !hang {
		f.Release()
	}
}

// ContextAware controls whether wrapped statements implement context
// cancellation (default true). When false, statements made from then on hide
// their StmtContext implementation, modelling a legacy blocking driver, and
// statements made before run each query through driver.QueryContext's
// goroutine shim. A statement made while it is false stays legacy.
func (f *Faults) ContextAware(on bool) { f.ctxAware.Store(on) }

// Release frees every currently hung connect and query.
func (f *Faults) Release() {
	f.mu.Lock()
	close(f.release)
	f.release = make(chan struct{})
	f.mu.Unlock()
}

// Queries returns how many queries reached the wrapper.
func (f *Faults) Queries() int64 { return f.queryCount.Load() }

// Connects returns how many connects reached the wrapper.
func (f *Faults) Connects() int64 { return f.connectCount.Load() }

// HangsServed returns how many calls entered a hang.
func (f *Faults) HangsServed() int64 { return f.hangsServed.Load() }

// hang blocks until Release or ctx expiry; ctx may be nil (hang until
// Release only).
func (f *Faults) hang(ctx context.Context) error {
	f.hangsServed.Add(1)
	f.mu.Lock()
	rel := f.release
	f.mu.Unlock()
	if ctx == nil {
		<-rel
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-rel:
		return nil
	}
}

func (f *Faults) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Driver wraps an inner driver with fault injection.
type Driver struct {
	name   string
	inner  driver.Driver
	faults *Faults
}

// New wraps inner under the registration name using the given faults.
func New(name string, inner driver.Driver, faults *Faults) *Driver {
	if faults == nil {
		faults = NewFaults()
	}
	return &Driver{name: name, inner: inner, faults: faults}
}

// Faults returns the wrapper's fault knobs.
func (d *Driver) Faults() *Faults { return d.faults }

// Name implements driver.Driver.
func (d *Driver) Name() string { return d.name }

// Version implements driver.Versioned.
func (d *Driver) Version() string { return "fault" }

// AcceptsURL implements driver.Driver by delegating to the wrapped driver.
func (d *Driver) AcceptsURL(url string) bool { return d.inner.AcceptsURL(url) }

// Connect implements driver.Driver: injected connect faults first, then the
// wrapped driver's Connect.
func (d *Driver) Connect(url string, props driver.Properties) (driver.Conn, error) {
	n := d.faults.connectCount.Add(1)
	if d.faults.hangConnect.Load() {
		_ = d.faults.hang(nil)
	}
	if err := d.faults.sleep(nil, time.Duration(d.faults.connectLatency.Load())); err != nil {
		return nil, err
	}
	if every := d.faults.panicEveryC.Load(); every > 0 && n%every == 0 {
		d.faults.panicsThrown.Add(1)
		panic(fmt.Sprintf("%s: injected panic (connect %d)", d.name, n))
	}
	inner, err := d.inner.Connect(url, props)
	if err != nil {
		return nil, err
	}
	return &conn{d: d, inner: inner}, nil
}

type conn struct {
	d     *Driver
	inner driver.Conn
}

func (c *conn) URL() string    { return c.inner.URL() }
func (c *conn) Driver() string { return c.d.name }
func (c *conn) Ping() error    { return c.inner.Ping() }
func (c *conn) Close() error   { return c.inner.Close() }

func (c *conn) CreateStatement() (driver.Stmt, error) {
	inner, err := c.inner.CreateStatement()
	if err != nil {
		return nil, err
	}
	s := &stmt{c: c, inner: inner}
	if c.d.faults.ctxAware.Load() {
		return s, nil
	}
	return legacyStmt{s}, nil
}

// stmt injects faults ahead of the wrapped statement and honours contexts.
type stmt struct {
	c     *conn
	inner driver.Stmt
}

func (s *stmt) Close() error { return s.inner.Close() }

func (s *stmt) ExecuteQuery(sql string) (*resultset.ResultSet, error) {
	return s.execute(nil, sql)
}

// ExecuteQueryContext implements driver.StmtContext. With context support
// switched off since the statement was made, the query goes through the shim,
// as a legacy statement's would.
func (s *stmt) ExecuteQueryContext(ctx context.Context, sql string) (*resultset.ResultSet, error) {
	if !s.c.d.faults.ctxAware.Load() {
		return driver.QueryContext(ctx, legacyStmt{s}, sql)
	}
	return s.execute(ctx, sql)
}

func (s *stmt) execute(ctx context.Context, sql string) (*resultset.ResultSet, error) {
	f := s.c.d.faults
	n := f.queryCount.Add(1)
	if f.hangQuery.Load() {
		if err := f.hang(ctx); err != nil {
			return nil, err
		}
	}
	if err := f.sleep(ctx, time.Duration(f.queryLatency.Load())); err != nil {
		return nil, err
	}
	if every := f.panicEveryQ.Load(); every > 0 && n%every == 0 {
		f.panicsThrown.Add(1)
		panic(fmt.Sprintf("%s: injected panic (query %d)", s.c.d.name, n))
	}
	if every := f.errEvery.Load(); every > 0 && n%every == 0 {
		return nil, fmt.Errorf("%s: injected fault (query %d)", s.c.d.name, n)
	}
	if ctx != nil {
		return driver.QueryContext(ctx, s.inner, sql)
	}
	return s.inner.ExecuteQuery(sql)
}

// legacyStmt hides the StmtContext implementation so the gateway must use
// its goroutine-with-timeout shim, as it would for a pre-context driver.
type legacyStmt struct{ s *stmt }

func (l legacyStmt) Close() error { return l.s.Close() }
func (l legacyStmt) ExecuteQuery(sql string) (*resultset.ResultSet, error) {
	return l.s.ExecuteQuery(sql)
}

var (
	_ driver.Driver      = (*Driver)(nil)
	_ driver.Conn        = (*conn)(nil)
	_ driver.Stmt        = (*stmt)(nil)
	_ driver.StmtContext = (*stmt)(nil)
	_ driver.Stmt        = legacyStmt{}
)
