package drvkit_test

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"gridrm/internal/drivers/drvkit"
)

// hostileAgent accepts one connection, reads the command line and then lets
// serve misbehave on it until the client hangs up. It returns the address
// and a channel that yields how many bytes the agent got across.
func hostileAgent(t *testing.T, serve func(c net.Conn) int64) (string, <-chan int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	written := make(chan int64, 1) // the one connection DialLine opens
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := c.Read(make([]byte, 64)); err != nil {
			return
		}
		written <- serve(c)
	}()
	return ln.Addr().String(), written
}

// An agent that starts a line and never ends it is refused at
// MaxAgentResponse, long before the timeout, instead of being buffered
// for as long as it cares to write.
func TestLineClientCapsAnEndlessLine(t *testing.T) {
	addr, written := hostileAgent(t, func(c net.Conn) (n int64) {
		block := []byte(strings.Repeat("x", 1<<16))
		for {
			m, err := c.Write(block)
			if n += int64(m); err != nil {
				return n
			}
		}
	})
	const timeout = 30 * time.Second
	line, err := drvkit.DialLine(addr, timeout)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = line.Command("NODES", nil)
	if err == nil || !strings.Contains(err.Error(), "too large") {
		t.Errorf("err = %v, want the response refused as too large", err)
	}
	if elapsed := time.Since(start); elapsed >= timeout {
		t.Errorf("gave up after %v: the timeout ended the read, not the cap", elapsed)
	}
	line.Close()
	select {
	case n := <-written:
		if n > 2*drvkit.MaxAgentResponse {
			t.Errorf("agent got %d bytes across before the client hung up; cap is %d", n, drvkit.MaxAgentResponse)
		}
	case <-time.After(5 * time.Second):
		t.Error("agent still writing after the client closed")
	}
}

// An agent that keeps dripping well-formed lines and never says END is
// abandoned one timeout after the command was sent: each line used to renew
// the deadline, so the command never returned.
func TestLineClientAbandonsAnEndlessDrip(t *testing.T) {
	addr, written := hostileAgent(t, func(c net.Conn) (n int64) {
		for {
			m, err := c.Write([]byte("node-0001 up\n"))
			if n += int64(m); err != nil {
				return n
			}
			time.Sleep(time.Millisecond)
		}
	})
	const timeout = 200 * time.Millisecond
	line, err := drvkit.DialLine(addr, timeout)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	done := make(chan error, 1)
	go func() { done <- line.Command("NODES", func(string) error { lines++; return nil }) }()
	select {
	case err := <-done:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Errorf("err = %v, want a timeout", err)
		}
		if lines == 0 {
			t.Error("no line was delivered before the deadline")
		}
	case <-time.After(20 * timeout):
		t.Errorf("Command still reading after %v with a %v timeout", 20*timeout, timeout)
	}
	line.Close()
	select {
	case <-written:
	case <-time.After(5 * time.Second):
		t.Error("agent still writing after the client closed")
	}
}
