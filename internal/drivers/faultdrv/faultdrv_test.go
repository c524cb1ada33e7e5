package faultdrv

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gridrm/internal/driver"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// stubDriver is a minimal healthy backend for the wrapper to inject faults
// in front of. executed counts the queries that reached it.
type stubDriver struct{ executed atomic.Int64 }

func (d *stubDriver) Name() string               { return "stub" }
func (d *stubDriver) AcceptsURL(url string) bool { return true }
func (d *stubDriver) Connect(url string, props driver.Properties) (driver.Conn, error) {
	return &stubConn{d: d, url: url}, nil
}

type stubConn struct {
	driver.UnimplementedConn
	d   *stubDriver
	url string
}

func (c *stubConn) URL() string                           { return c.url }
func (c *stubConn) Driver() string                        { return "stub" }
func (c *stubConn) Ping() error                           { return nil }
func (c *stubConn) CreateStatement() (driver.Stmt, error) { return &stubStmt{d: c.d}, nil }

type stubStmt struct {
	driver.UnimplementedStmt
	d *stubDriver
}

func (s *stubStmt) ExecuteQuery(sql string) (*resultset.ResultSet, error) {
	s.d.executed.Add(1)
	g, _ := glue.Lookup(glue.GroupProcessor)
	meta, err := resultset.MetadataForGroup(g, nil)
	if err != nil {
		return nil, err
	}
	b := resultset.NewBuilder(meta)
	row := make([]any, len(g.Fields))
	row[g.FieldIndex("HostName")] = "stub1"
	b.Append(row...)
	return b.Build()
}

func wrap(t *testing.T) (*Driver, *Faults, driver.Stmt) {
	t.Helper()
	f := NewFaults()
	d := New("fault-stub", &stubDriver{}, f)
	conn, err := d.Connect("gridrm:stub://h:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := conn.CreateStatement()
	if err != nil {
		t.Fatal(err)
	}
	return d, f, stmt
}

func TestPassThrough(t *testing.T) {
	d, f, stmt := wrap(t)
	if !d.AcceptsURL("anything") {
		t.Error("AcceptsURL not delegated")
	}
	rs, err := stmt.ExecuteQuery("SELECT * FROM Processor")
	if err != nil || rs.Len() != 1 {
		t.Fatalf("clean query: %v, %v", rs, err)
	}
	if f.Queries() != 1 || f.Connects() != 1 || f.HangsServed() != 0 {
		t.Errorf("counters: queries=%d connects=%d hangs=%d",
			f.Queries(), f.Connects(), f.HangsServed())
	}
}

func TestQueryLatencyAndInjectedErrors(t *testing.T) {
	_, f, stmt := wrap(t)
	f.SetQueryLatency(30 * time.Millisecond)
	start := time.Now()
	if _, err := stmt.ExecuteQuery("SELECT * FROM Processor"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("latency not injected: %s", d)
	}
	f.SetQueryLatency(0)

	f.SetErrorEvery(2) // queries 2, 4, ... fail
	if _, err := stmt.ExecuteQuery("SELECT * FROM Processor"); err == nil {
		t.Error("query 2 should have failed")
	}
	if _, err := stmt.ExecuteQuery("SELECT * FROM Processor"); err != nil {
		t.Errorf("query 3 failed: %v", err)
	}
	if _, err := stmt.ExecuteQuery("SELECT * FROM Processor"); err == nil {
		t.Error("query 4 should have failed")
	}
	if f.Queries() != 4 {
		t.Errorf("queries = %d", f.Queries())
	}
}

func TestHangQueryHonoursContext(t *testing.T) {
	_, f, stmt := wrap(t)
	f.SetHangQuery(true)
	sc, ok := stmt.(driver.StmtContext)
	if !ok {
		t.Fatal("context-aware wrapper hides StmtContext")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := sc.ExecuteQueryContext(ctx, "SELECT * FROM Processor")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("hang outlived the context: %s", d)
	}
	if f.HangsServed() != 1 {
		t.Errorf("hangs served = %d", f.HangsServed())
	}

	// Clearing the hang releases blocked callers.
	done := make(chan error, 1)
	go func() {
		_, err := sc.ExecuteQueryContext(context.Background(), "SELECT * FROM Processor")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	f.SetHangQuery(false)
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("released query failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("released query never returned")
	}
}

func TestLegacyModeHidesStmtContext(t *testing.T) {
	f := NewFaults()
	f.ContextAware(false)
	d := New("fault-legacy", &stubDriver{}, f)
	conn, err := d.Connect("gridrm:stub://h:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := conn.CreateStatement()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stmt.(driver.StmtContext); ok {
		t.Fatal("legacy statement still advertises StmtContext")
	}
	if _, err := stmt.ExecuteQuery("SELECT * FROM Processor"); err != nil {
		t.Errorf("legacy query failed: %v", err)
	}
}

// TestModeChosenPerExecution: a statement made context-aware and kept, as a
// pooled connection keeps it, follows a later ContextAware(false). Its hung
// query is abandoned at the caller's deadline by driver.QueryContext's
// goroutine shim, whose driver call runs on, and reaches the backend, once the
// hang is released; a context-aware query would have ended in the hang.
func TestModeChosenPerExecution(t *testing.T) {
	stub := &stubDriver{}
	f := NewFaults()
	conn, err := New("fault-stub", stub, f).Connect("gridrm:stub://h:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := conn.CreateStatement()
	if err != nil {
		t.Fatal(err)
	}
	hungQuery := func() {
		t.Helper()
		f.SetHangQuery(true)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if _, err := driver.QueryContext(ctx, stmt, "SELECT * FROM Processor"); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("hung query: err = %v, want deadline exceeded", err)
		}
		f.SetHangQuery(false)
	}

	f.ContextAware(false)
	hungQuery()
	for deadline := time.Now().Add(2 * time.Second); stub.executed.Load() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("released shim never reached the backend (%d queries)", stub.executed.Load())
		}
	}

	f.ContextAware(true)
	hungQuery()
	if _, err := driver.QueryContext(context.Background(), stmt, "SELECT * FROM Processor"); err != nil {
		t.Fatal(err)
	}
	if n := stub.executed.Load(); n != 2 {
		t.Errorf("backend saw %d queries, want 2: the context-aware hang ended in the wrapper", n)
	}
	if n := f.HangsServed(); n != 2 {
		t.Errorf("hangs served = %d, want 2", n)
	}
}

func TestHangConnectBlocksUntilRelease(t *testing.T) {
	f := NewFaults()
	d := New("fault-conn", &stubDriver{}, f)
	f.SetHangConnect(true)
	done := make(chan error, 1)
	go func() {
		_, err := d.Connect("gridrm:stub://h:1", nil)
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("connect did not hang")
	case <-time.After(50 * time.Millisecond):
	}
	f.SetHangConnect(false)
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("released connect failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("released connect never returned")
	}
}
