package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/driver"
)

// slowDriver counts connects, pings and statements made, can fail pings after
// poisoning and can hold them until pingGate is closed.
type slowDriver struct {
	name       string
	connects   atomic.Int64
	pings      atomic.Int64
	statements atomic.Int64
	poison     atomic.Bool
	pingGate   chan struct{}
}

func (d *slowDriver) Name() string { return d.name }

func (d *slowDriver) AcceptsURL(url string) bool {
	_, err := driver.ParseURL(url)
	return err == nil
}

func (d *slowDriver) Connect(url string, props driver.Properties) (driver.Conn, error) {
	d.connects.Add(1)
	return &slowConn{d: d, url: url}, nil
}

type slowConn struct {
	driver.UnimplementedConn
	d      *slowDriver
	url    string
	closed atomic.Bool
}

func (c *slowConn) URL() string    { return c.url }
func (c *slowConn) Driver() string { return c.d.name }
func (c *slowConn) Ping() error {
	c.d.pings.Add(1)
	if c.d.pingGate != nil {
		<-c.d.pingGate
	}
	if c.d.poison.Load() {
		return errors.New("stale")
	}
	return nil
}
func (c *slowConn) Close() error {
	c.closed.Store(true)
	return nil
}
func (c *slowConn) CreateStatement() (driver.Stmt, error) {
	c.d.statements.Add(1)
	return &slowStmt{}, nil
}

type slowStmt struct {
	driver.UnimplementedStmt
	closed atomic.Bool
}

func (s *slowStmt) Close() error {
	s.closed.Store(true)
	return nil
}

func newManager(t *testing.T, opts Options) (*Manager, *slowDriver) {
	t.Helper()
	d := &slowDriver{name: "jdbc-slow"}
	dm := driver.NewManager()
	if err := dm.RegisterDriver(d); err != nil {
		t.Fatal(err)
	}
	return New(dm, opts), d
}

const url = "gridrm:slow://h:1"

func TestGetReleaseReuse(t *testing.T) {
	m, d := newManager(t, Options{})
	c1, err := m.Get(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	c1.Release()
	c2, err := m.Get(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Release()
	if d.connects.Load() != 1 {
		t.Errorf("connects = %d, want 1 (reuse)", d.connects.Load())
	}
	s := m.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Opens != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestReleaseIdempotent(t *testing.T) {
	m, _ := newManager(t, Options{})
	c, _ := m.Get(url, nil)
	c.Release()
	c.Release()
	if m.Stats().Idle != 1 {
		t.Errorf("idle = %d after double release", m.Stats().Idle)
	}
}

func TestDiscardCloses(t *testing.T) {
	m, _ := newManager(t, Options{})
	c, _ := m.Get(url, nil)
	underlying := c.Conn.(*slowConn)
	c.Discard()
	if !underlying.closed.Load() {
		t.Error("Discard did not close")
	}
	if m.Stats().Idle != 0 {
		t.Error("discarded connection pooled")
	}
	c.Release() // must be a no-op after Discard
	if m.Stats().Idle != 0 {
		t.Error("Release after Discard pooled a closed conn")
	}
}

func TestPropertiesSeparateBuckets(t *testing.T) {
	m, d := newManager(t, Options{})
	c1, _ := m.Get(url, driver.Properties{"community": "public"})
	c1.Release()
	c2, err := m.Get(url, driver.Properties{"community": "secret"})
	if err != nil {
		t.Fatal(err)
	}
	c2.Release()
	if d.connects.Load() != 2 {
		t.Errorf("connects = %d, want 2 (different props must not share)", d.connects.Load())
	}
	c3, _ := m.Get(url, driver.Properties{"community": "public"})
	c3.Release()
	if d.connects.Load() != 2 {
		t.Error("same props did not reuse")
	}
}

// TestIdleHandedOutUnpinged: an idle connection is trusted, so a checkout
// costs the agent nothing; the handle says it was reused so that whoever sees
// a statement fail on it knows to ask.
func TestIdleHandedOutUnpinged(t *testing.T) {
	m, d := newManager(t, Options{})
	c, _ := m.Get(url, nil)
	if c.Reused() {
		t.Error("fresh connection reports Reused")
	}
	c.Release()
	d.poison.Store(true)
	c, err := m.Get(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Reused() {
		t.Error("idle connection does not report Reused")
	}
	if d.pings.Load() != 0 || d.connects.Load() != 1 {
		t.Errorf("checkout cost %d pings and %d connects, want 0 and 1", d.pings.Load(), d.connects.Load())
	}
}

// TestPingContext: a ping that answers leaves the connection with the caller;
// one that fails counts it stale, closes it and spends the handle.
func TestPingContext(t *testing.T) {
	m, d := newManager(t, Options{})
	c, _ := m.Get(url, nil)
	if err := c.PingContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Release()
	if s := m.Stats(); s.Idle != 1 || s.PingFailures != 0 {
		t.Fatalf("after a healthy ping: stats %+v", s)
	}

	d.poison.Store(true)
	c, _ = m.Get(url, nil)
	underlying := c.Conn.(*slowConn)
	if err := c.PingContext(context.Background()); err == nil {
		t.Fatal("ping of a poisoned connection succeeded")
	}
	c.Release() // spent: must not pool the closed connection
	if s := m.Stats(); s.PingFailures != 1 || s.Closes != 1 || s.Idle != 0 || !underlying.closed.Load() {
		t.Errorf("after a failed ping: closed %v, stats %+v", underlying.closed.Load(), s)
	}
}

// TestPingContextAbandonedAtDeadline: the caller gets ctx.Err() at once and
// the ping, finishing later, re-pools the connection or closes it as stale.
func TestPingContextAbandonedAtDeadline(t *testing.T) {
	for _, poisoned := range []bool{false, true} {
		m, d := newManager(t, Options{})
		d.pingGate = make(chan struct{})
		d.poison.Store(poisoned)
		c, _ := m.Get(url, nil)
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- c.PingContext(ctx) }()
		for d.pings.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("poisoned=%v: PingContext = %v, want context.Canceled", poisoned, err)
		}
		close(d.pingGate)
		deadline := time.Now().Add(2 * time.Second)
		for s := m.Stats(); int64(s.Idle)+s.Closes != 1; s = m.Stats() {
			if time.Now().After(deadline) {
				t.Fatalf("poisoned=%v: connection neither pooled nor closed: stats %+v", poisoned, s)
			}
			time.Sleep(time.Millisecond)
		}
		want := Stats{Misses: 1, Opens: 1, Idle: 1}
		if poisoned {
			want.PingFailures, want.Closes, want.Idle = 1, 1, 0
		}
		if s := m.Stats(); s != want {
			t.Errorf("poisoned=%v: stats %+v, want %+v", poisoned, s, want)
		}
	}
}

func TestMaxIdlePerSource(t *testing.T) {
	m, _ := newManager(t, Options{MaxIdlePerSource: 2})
	var conns []*Conn
	for i := 0; i < 4; i++ {
		c, err := m.Get(url, nil)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	for _, c := range conns {
		c.Release()
	}
	if m.Stats().Idle != 2 {
		t.Errorf("idle = %d, want 2", m.Stats().Idle)
	}
	if m.Stats().Evictions != 2 {
		t.Errorf("evictions = %d", m.Stats().Evictions)
	}
}

func TestReap(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	m, _ := newManager(t, Options{MaxIdleTime: 10 * time.Second, Clock: clock})
	c, _ := m.Get(url, nil)
	c.Release()
	now = now.Add(5 * time.Second)
	if n := m.Reap(); n != 0 {
		t.Errorf("reaped %d fresh conns", n)
	}
	now = now.Add(6 * time.Second)
	if n := m.Reap(); n != 1 {
		t.Errorf("reaped %d, want 1", n)
	}
	if m.Stats().Idle != 0 {
		t.Error("idle not drained")
	}
}

func TestDisabledPooling(t *testing.T) {
	m, d := newManager(t, Options{Disabled: true})
	for i := 0; i < 3; i++ {
		c, err := m.Get(url, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Release()
	}
	if d.connects.Load() != 3 {
		t.Errorf("connects = %d, want 3 with pooling off", d.connects.Load())
	}
	if m.Stats().Idle != 0 {
		t.Error("disabled pool kept connections")
	}
	if m.Stats().Hits != 0 {
		t.Error("disabled pool recorded hits")
	}
}

func TestCloseAll(t *testing.T) {
	m, _ := newManager(t, Options{})
	c1, _ := m.Get(url, nil)
	c2, _ := m.Get("gridrm:slow://h2:1", nil)
	c1.Release()
	c2.Release()
	if m.Stats().Idle != 2 {
		t.Fatalf("idle = %d", m.Stats().Idle)
	}
	m.CloseAll()
	if m.Stats().Idle != 0 {
		t.Error("CloseAll left idle conns")
	}
	if m.Stats().Closes != 2 {
		t.Errorf("closes = %d", m.Stats().Closes)
	}
}

func TestGetErrorPropagates(t *testing.T) {
	dm := driver.NewManager() // no drivers at all
	m := New(dm, Options{})
	if _, err := m.Get(url, nil); err == nil {
		t.Error("Get with no drivers succeeded")
	}
}

func TestConcurrentGetRelease(t *testing.T) {
	m, d := newManager(t, Options{MaxIdlePerSource: 8})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				u := fmt.Sprintf("gridrm:slow://h%d:1", i%2)
				c, err := m.Get(u, nil)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				c.Release()
			}
		}(i)
	}
	wg.Wait()
	s := m.Stats()
	if s.Hits+s.Misses != 400 {
		t.Errorf("gets = %d", s.Hits+s.Misses)
	}
	if d.connects.Load() != s.Opens {
		t.Errorf("driver connects %d != opens %d", d.connects.Load(), s.Opens)
	}
}

func TestDriversAccessor(t *testing.T) {
	m, _ := newManager(t, Options{})
	if m.Drivers() == nil {
		t.Error("Drivers() nil")
	}
}

// TestPooledStatementClosedWithItsConnection: a connection keeps the
// statement it was first asked for while it is pooled, so the next checkout
// makes none, and every path that drops the connection closes the statement
// with it.
func TestPooledStatementClosedWithItsConnection(t *testing.T) {
	m, d := newManager(t, Options{})
	c, _ := m.Get(url, nil)
	stmt, err := c.Statement()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := c.Statement(); again != stmt {
		t.Error("a second Statement on one checkout made another")
	}
	c.Release()
	c, _ = m.Get(url, nil)
	if again, _ := c.Statement(); again != stmt || d.statements.Load() != 1 {
		t.Errorf("reused connection made a statement: %d made", d.statements.Load())
	}
	if stmt.(*slowStmt).closed.Load() {
		t.Error("statement closed while its connection was pooled")
	}
	c.Release()

	now := time.Unix(1000, 0)
	for _, tc := range []struct {
		name string
		opts Options
		drop func(t *testing.T, m *Manager, d *slowDriver, c *Conn)
	}{
		{"discard", Options{}, func(t *testing.T, m *Manager, d *slowDriver, c *Conn) { c.Discard() }},
		{"failed ping", Options{}, func(t *testing.T, m *Manager, d *slowDriver, c *Conn) {
			d.poison.Store(true)
			if err := c.PingContext(context.Background()); err == nil {
				t.Fatal("ping of a poisoned connection succeeded")
			}
		}},
		{"eviction at put", Options{MaxIdlePerSource: 1}, func(t *testing.T, m *Manager, d *slowDriver, c *Conn) {
			other, _ := m.Get(url, nil)
			other.Release()
			c.Release()
		}},
		{"reap", Options{MaxIdleTime: time.Second, Clock: func() time.Time { return now }}, func(t *testing.T, m *Manager, d *slowDriver, c *Conn) {
			c.Release()
			now = now.Add(2 * time.Second)
			if n := m.Reap(); n != 1 {
				t.Fatalf("reaped %d, want 1", n)
			}
		}},
		{"close all", Options{}, func(t *testing.T, m *Manager, d *slowDriver, c *Conn) {
			c.Release()
			m.CloseAll()
		}},
		{"pooling disabled", Options{Disabled: true}, func(t *testing.T, m *Manager, d *slowDriver, c *Conn) { c.Release() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, d := newManager(t, tc.opts)
			c, _ := m.Get(url, nil)
			conn := c.Conn.(*slowConn)
			stmt, err := c.Statement()
			if err != nil {
				t.Fatal(err)
			}
			tc.drop(t, m, d, c)
			if !conn.closed.Load() || !stmt.(*slowStmt).closed.Load() {
				t.Errorf("connection closed %v, its statement closed %v; want both", conn.closed.Load(), stmt.(*slowStmt).closed.Load())
			}
			if s := m.Stats(); int64(s.Idle)+s.Closes != s.Opens {
				t.Errorf("connections unaccounted for: %+v", s)
			}
		})
	}
}
