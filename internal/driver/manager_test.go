package driver

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gridrm/internal/resultset"
)

// fakeDriver accepts URLs whose protocol matches proto (or any URL when
// proto is "*"), and fails to connect after failAfter successful connects
// when failAfter >= 0.
type fakeDriver struct {
	name     string
	proto    string
	mu       sync.Mutex
	connects int
	fail     bool
}

func (d *fakeDriver) Name() string { return d.name }

func (d *fakeDriver) AcceptsURL(url string) bool {
	u, err := ParseURL(url)
	if err != nil {
		return false
	}
	if d.proto == "*" {
		return true
	}
	return u.Protocol == "" || u.Protocol == d.proto
}

func (d *fakeDriver) Connect(url string, props Properties) (Conn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fail {
		return nil, fmt.Errorf("%s: agent unreachable", d.name)
	}
	d.connects++
	return &fakeConn{UnimplementedConn: UnimplementedConn{}, url: url, driver: d.name}, nil
}

func (d *fakeDriver) setFail(fail bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fail = fail
}

func (d *fakeDriver) connectCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.connects
}

type fakeConn struct {
	UnimplementedConn
	url    string
	driver string
}

func (c *fakeConn) URL() string    { return c.url }
func (c *fakeConn) Driver() string { return c.driver }
func (c *fakeConn) Ping() error    { return nil }

func TestParseURL(t *testing.T) {
	cases := []struct {
		raw   string
		proto string
		host  string
		port  int
		path  string
		ok    bool
	}{
		{"gridrm:snmp://node1:1161/public", "snmp", "node1", 1161, "public", true},
		{"gridrm://snowboard.workgroup/perfdata", "", "snowboard.workgroup", 0, "perfdata", true},
		{"gridrm:nws://snowboard.workgroup/perfdata", "nws", "snowboard.workgroup", 0, "perfdata", true},
		{"gridrm:ganglia://10.0.0.1:8649", "ganglia", "10.0.0.1", 8649, "", true},
		{"gridrm:SNMP://Node1", "snmp", "Node1", 0, "", true},
		{"jdbc:snmp://x", "", "", 0, "", false},
		{"gridrm:snmp:/x", "", "", 0, "", false},
		{"gridrm://", "", "", 0, "", false},
		{"gridrm://:99", "", "", 0, "", false},
		{"gridrm://host:notaport", "", "", 0, "", false},
		{"gridrm://host:0", "", "", 0, "", false},
		{"gridrm://host:70000", "", "", 0, "", false},
	}
	for _, c := range cases {
		u, err := ParseURL(c.raw)
		if c.ok != (err == nil) {
			t.Errorf("ParseURL(%q) err=%v, want ok=%v", c.raw, err, c.ok)
			continue
		}
		if !c.ok {
			if !errors.Is(err, ErrBadURL) {
				t.Errorf("ParseURL(%q) err=%v, want ErrBadURL", c.raw, err)
			}
			continue
		}
		if u.Protocol != c.proto || u.Host != c.host || u.Port != c.port || u.Path != c.path {
			t.Errorf("ParseURL(%q) = %+v", c.raw, u)
		}
		if u.String() != c.raw {
			t.Errorf("ParseURL(%q).String() = %q", c.raw, u.String())
		}
	}
}

func TestURLAddress(t *testing.T) {
	u, _ := ParseURL("gridrm:snmp://h")
	if got := u.Address(1161); got != "h:1161" {
		t.Errorf("default port address = %q", got)
	}
	u, _ = ParseURL("gridrm:snmp://h:99")
	if got := u.Address(1161); got != "h:99" {
		t.Errorf("explicit port address = %q", got)
	}
}

func TestFormatURL(t *testing.T) {
	cases := []struct {
		proto, host, path, want string
		port                    int
	}{
		{"snmp", "h", "p", "gridrm:snmp://h:1/p", 1},
		{"", "h", "", "gridrm://h", 0},
		{"nws", "h", "/lead", "gridrm:nws://h/lead", 0},
	}
	for _, c := range cases {
		got := FormatURL(c.proto, c.host, c.port, c.path)
		if got != c.want {
			t.Errorf("FormatURL = %q, want %q", got, c.want)
		}
		if _, err := ParseURL(got); err != nil {
			t.Errorf("FormatURL produced unparseable %q: %v", got, err)
		}
	}
}

func TestRegisterDeregister(t *testing.T) {
	m := NewManager()
	a := &fakeDriver{name: "jdbc-a", proto: "a"}
	if err := m.RegisterDriver(a); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterDriver(a); err == nil {
		t.Error("duplicate registration succeeded")
	}
	if err := m.RegisterDriver(nil); err == nil {
		t.Error("nil registration succeeded")
	}
	if got := m.Drivers(); len(got) != 1 || got[0] != "jdbc-a" {
		t.Errorf("Drivers() = %v", got)
	}
	if err := m.DeregisterDriver("jdbc-a"); err != nil {
		t.Fatal(err)
	}
	if err := m.DeregisterDriver("jdbc-a"); err == nil {
		t.Error("double deregistration succeeded")
	}
	if len(m.Drivers()) != 0 {
		t.Error("driver list not empty")
	}
}

func TestDynamicSelectionScanOrder(t *testing.T) {
	m := NewManager()
	a := &fakeDriver{name: "jdbc-a", proto: "a"}
	b := &fakeDriver{name: "jdbc-b", proto: "b"}
	c := &fakeDriver{name: "jdbc-c", proto: "b"} // also accepts b
	for _, d := range []*fakeDriver{a, b, c} {
		if err := m.RegisterDriver(d); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := m.Connect("gridrm:b://host", nil)
	if err != nil {
		t.Fatal(err)
	}
	// First registered acceptor wins.
	if conn.Driver() != "jdbc-b" {
		t.Errorf("selected %q", conn.Driver())
	}
	if name, ok := m.CachedDriver("gridrm:b://host"); !ok || name != "jdbc-b" {
		t.Errorf("cache = %q, %v", name, ok)
	}
}

func TestDynamicSelectionSkipsFailingDriver(t *testing.T) {
	m := NewManager()
	b := &fakeDriver{name: "jdbc-b", proto: "b"}
	c := &fakeDriver{name: "jdbc-c", proto: "b"}
	b.setFail(true)
	_ = m.RegisterDriver(b)
	_ = m.RegisterDriver(c)
	conn, err := m.Connect("gridrm:b://host", nil)
	if err != nil {
		t.Fatal(err)
	}
	// "supports the URL AND can connect" — b accepts but cannot connect.
	if conn.Driver() != "jdbc-c" {
		t.Errorf("selected %q", conn.Driver())
	}
}

func TestNoDriver(t *testing.T) {
	m := NewManager()
	_ = m.RegisterDriver(&fakeDriver{name: "jdbc-a", proto: "a"})
	if _, err := m.Connect("gridrm:z://host", nil); !errors.Is(err, ErrNoDriver) {
		t.Errorf("err = %v, want ErrNoDriver", err)
	}
	if _, err := m.Connect("not-a-url", nil); !errors.Is(err, ErrBadURL) {
		t.Errorf("err = %v, want ErrBadURL", err)
	}
}

func TestCacheHitAvoidsScan(t *testing.T) {
	m := NewManager()
	for i := 0; i < 8; i++ {
		proto := "x"
		if i == 7 {
			proto = "b"
		}
		_ = m.RegisterDriver(&fakeDriver{name: fmt.Sprintf("jdbc-%d", i), proto: proto})
	}
	url := "gridrm:b://host"
	if _, err := m.Connect(url, nil); err != nil {
		t.Fatal(err)
	}
	s1 := m.Stats()
	if _, err := m.Connect(url, nil); err != nil {
		t.Fatal(err)
	}
	s2 := m.Stats()
	if s2.Scans != s1.Scans {
		t.Errorf("cache hit still scanned (%d -> %d)", s1.Scans, s2.Scans)
	}
	if s2.CacheHits != s1.CacheHits+1 {
		t.Errorf("cache hits %d -> %d", s1.CacheHits, s2.CacheHits)
	}
}

func TestCachedDriverFailureTryNext(t *testing.T) {
	m := NewManager()
	b := &fakeDriver{name: "jdbc-b", proto: "b"}
	c := &fakeDriver{name: "jdbc-c", proto: "b"}
	_ = m.RegisterDriver(b)
	_ = m.RegisterDriver(c)
	url := "gridrm:b://host"
	if _, err := m.Connect(url, nil); err != nil {
		t.Fatal(err)
	}
	b.setFail(true)
	conn, err := m.Connect(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if conn.Driver() != "jdbc-c" {
		t.Errorf("failover selected %q", conn.Driver())
	}
	if name, _ := m.CachedDriver(url); name != "jdbc-c" {
		t.Errorf("cache after failover = %q", name)
	}
	if m.Stats().Failovers != 1 {
		t.Errorf("failovers = %d", m.Stats().Failovers)
	}
}

func TestCachedDriverFailureReport(t *testing.T) {
	m := NewManager()
	m.SetPolicy(Policy{OnFailure: Report})
	b := &fakeDriver{name: "jdbc-b", proto: "b"}
	c := &fakeDriver{name: "jdbc-c", proto: "b"}
	_ = m.RegisterDriver(b)
	_ = m.RegisterDriver(c)
	url := "gridrm:b://host"
	if _, err := m.Connect(url, nil); err != nil {
		t.Fatal(err)
	}
	b.setFail(true)
	if _, err := m.Connect(url, nil); err == nil {
		t.Error("Report policy did not surface failure")
	}
	// Cache entry is dropped so the next attempt can resolve dynamically.
	if _, ok := m.CachedDriver(url); ok {
		t.Error("stale cache entry kept under Report policy")
	}
}

func TestRetries(t *testing.T) {
	m := NewManager()
	m.SetPolicy(Policy{Retries: 2, OnFailure: Report})
	b := &fakeDriver{name: "jdbc-b", proto: "b"}
	b.setFail(true)
	_ = m.RegisterDriver(b)
	_, err := m.Connect("gridrm:b://host", nil)
	if err == nil {
		t.Fatal("connect to failing driver succeeded")
	}
	if got := m.Stats().ConnectFailures; got != 3 { // 1 + 2 retries
		t.Errorf("connect attempts = %d, want 3", got)
	}
}

func TestStaticPreferences(t *testing.T) {
	m := NewManager()
	b := &fakeDriver{name: "jdbc-b", proto: "b"}
	c := &fakeDriver{name: "jdbc-c", proto: "b"}
	_ = m.RegisterDriver(b)
	_ = m.RegisterDriver(c)
	url := "gridrm:b://host"
	m.SetPreferences(url, []string{"jdbc-c", "jdbc-b"})
	conn, err := m.Connect(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if conn.Driver() != "jdbc-c" {
		t.Errorf("preference ignored: %q", conn.Driver())
	}
	if got := m.Preferences(url); len(got) != 2 || got[0] != "jdbc-c" {
		t.Errorf("Preferences = %v", got)
	}
	m.SetPreferences(url, nil)
	if got := m.Preferences(url); len(got) != 0 {
		t.Errorf("cleared Preferences = %v", got)
	}
}

func TestPreferenceFailoverToDynamic(t *testing.T) {
	m := NewManager()
	b := &fakeDriver{name: "jdbc-b", proto: "b"}
	c := &fakeDriver{name: "jdbc-c", proto: "b"}
	c.setFail(true)
	_ = m.RegisterDriver(b)
	_ = m.RegisterDriver(c)
	url := "gridrm:b://host"
	m.SetPreferences(url, []string{"jdbc-c"})
	conn, err := m.Connect(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if conn.Driver() != "jdbc-b" {
		t.Errorf("dynamic fallback selected %q", conn.Driver())
	}

	m.SetPolicy(Policy{OnFailure: Report})
	if _, err := m.Connect("gridrm:b://host2", nil); err != nil {
		t.Fatal(err)
	}
	m.SetPreferences("gridrm:b://host2", []string{"jdbc-c"})
	if _, err := m.Connect("gridrm:b://host2", nil); err == nil {
		t.Error("Report policy with failed preference succeeded")
	}
}

func TestDeregisterInvalidatesCache(t *testing.T) {
	m := NewManager()
	b := &fakeDriver{name: "jdbc-b", proto: "b"}
	c := &fakeDriver{name: "jdbc-c", proto: "b"}
	_ = m.RegisterDriver(b)
	_ = m.RegisterDriver(c)
	url := "gridrm:b://host"
	if _, err := m.Connect(url, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.DeregisterDriver("jdbc-b"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.CachedDriver(url); ok {
		t.Error("cache survives deregistration")
	}
	conn, err := m.Connect(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if conn.Driver() != "jdbc-c" {
		t.Errorf("post-deregistration selected %q", conn.Driver())
	}
}

func TestLocateDriver(t *testing.T) {
	m := NewManager()
	_ = m.RegisterDriver(&fakeDriver{name: "jdbc-a", proto: "a"})
	_ = m.RegisterDriver(&fakeDriver{name: "jdbc-b", proto: "b"})
	d, err := m.LocateDriver("gridrm:b://h")
	if err != nil || d.Name() != "jdbc-b" {
		t.Errorf("LocateDriver = %v, %v", d, err)
	}
	if _, err := m.LocateDriver("gridrm:z://h"); !errors.Is(err, ErrNoDriver) {
		t.Errorf("LocateDriver unknown = %v", err)
	}
}

func TestConcurrentConnects(t *testing.T) {
	m := NewManager()
	for i := 0; i < 4; i++ {
		_ = m.RegisterDriver(&fakeDriver{name: fmt.Sprintf("jdbc-%d", i), proto: "b"})
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("gridrm:b://host%d", i%4)
			if _, err := m.Connect(url, nil); err != nil {
				t.Errorf("concurrent connect: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if got := m.Stats().Connects; got != 32 {
		t.Errorf("connects = %d, want 32", got)
	}
}

func TestUnimplementedBasePattern(t *testing.T) {
	// The paper's §3.2.1 pattern: unimplemented methods behave like a full
	// driver that errored, not like a missing method.
	var c Conn = UnimplementedConn{}
	if _, err := c.CreateStatement(); !errors.Is(err, ErrNotImplemented) {
		t.Errorf("CreateStatement err = %v", err)
	}
	if err := c.Ping(); !errors.Is(err, ErrNotImplemented) {
		t.Errorf("Ping err = %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close err = %v", err)
	}
	var s Stmt = UnimplementedStmt{}
	if _, err := s.ExecuteQuery("SELECT * FROM Processor"); !errors.Is(err, ErrNotImplemented) {
		t.Errorf("ExecuteQuery err = %v", err)
	}
	var ms MaxRowsSetter = UnimplementedStmt{}
	if err := ms.SetMaxRows(5); !errors.Is(err, ErrNotImplemented) {
		t.Errorf("SetMaxRows err = %v", err)
	}
}

// overrideStmt demonstrates incremental extension: embed the base, override
// one method, inherit failure behaviour for the rest.
type overrideStmt struct {
	UnimplementedStmt
}

func (overrideStmt) ExecuteQuery(string) (*resultset.ResultSet, error) {
	return nil, errors.New("custom")
}

func TestIncrementalOverride(t *testing.T) {
	var s Stmt = overrideStmt{}
	_, err := s.ExecuteQuery("x")
	if err == nil || !strings.Contains(err.Error(), "custom") {
		t.Errorf("override not used: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("inherited Close: %v", err)
	}
}

func TestPropertiesHelpers(t *testing.T) {
	var p Properties
	if p.Get("k", "d") != "d" {
		t.Error("nil Properties Get")
	}
	if p.Clone() != nil {
		t.Error("nil Clone should be nil")
	}
	p = Properties{"k": "v"}
	if p.Get("k", "d") != "v" || p.Get("z", "d") != "d" {
		t.Error("Get wrong")
	}
	q := p.Clone()
	q["k"] = "w"
	if p["k"] != "v" {
		t.Error("Clone aliases map")
	}
}

func TestFailureActionString(t *testing.T) {
	if TryNext.String() != "try-next" || Report.String() != "report" {
		t.Error("FailureAction names wrong")
	}
}
