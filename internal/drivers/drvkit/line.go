package drvkit

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"time"
)

// LineClient is the TCP client for agents that speak one command per line
// and answer in lines, a list ending with "END" and a failure starting with
// "ERR". Every send and every read gets a fresh deadline of one timeout, so
// a hung agent costs a bounded wait and never wedges a harvest.
type LineClient struct {
	tcp     net.Conn
	r       *bufio.Reader
	timeout time.Duration
}

// DialLine connects to a line-protocol agent.
func DialLine(addr string, timeout time.Duration) (*LineClient, error) {
	tcp, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &LineClient{tcp: tcp, r: bufio.NewReader(tcp), timeout: timeout}, nil
}

// Close closes the connection.
func (c *LineClient) Close() error { return c.tcp.Close() }

// Send writes one command line.
func (c *LineClient) Send(cmd string) error {
	_ = c.tcp.SetDeadline(time.Now().Add(c.timeout))
	_, err := fmt.Fprintf(c.tcp, "%s\n", cmd)
	return err
}

// ReadLine reads one response line, trimmed.
func (c *LineClient) ReadLine() (string, error) {
	_ = c.tcp.SetDeadline(time.Now().Add(c.timeout))
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(line), nil
}

// Command sends one command and hands every response line up to END to
// each (nil discards them). An ERR line fails the command. An error from
// each is returned once the response has been read to its END, so the
// connection stays in step with the agent.
func (c *LineClient) Command(cmd string, each func(line string) error) error {
	if err := c.Send(cmd); err != nil {
		return err
	}
	var failed error
	for {
		line, err := c.ReadLine()
		if err != nil {
			return err
		}
		switch {
		case line == "END":
			return failed
		case strings.HasPrefix(line, "ERR"):
			return fmt.Errorf("agent answered %s", line)
		case each != nil && failed == nil:
			failed = each(line)
		}
	}
}
