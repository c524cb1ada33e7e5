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
// "ERR". Every send and every single-line read gets a fresh deadline of one
// timeout, and a whole Command response one deadline and MaxAgentResponse
// bytes, so an agent that hangs, never ends a line or never ends a list costs
// a bounded wait and a bounded buffer, and never wedges a harvest.
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
	line, _, err := c.readLine(MaxAgentResponse)
	return line, err
}

// readLine reads one line of at most limit bytes under the deadline already
// set, and also returns how many bytes the line took.
func (c *LineClient) readLine(limit int) (string, int, error) {
	var long []byte // the head of a line that outgrew the reader's buffer
	for {
		part, err := c.r.ReadSlice('\n')
		if err != nil && err != bufio.ErrBufferFull {
			return "", 0, err
		}
		if len(long)+len(part) > limit {
			return "", 0, fmt.Errorf("agent response too large: limit %d bytes", MaxAgentResponse)
		}
		if err == nil {
			n := len(long) + len(part)
			if long != nil {
				part = append(long, part...)
			}
			return strings.TrimSpace(string(part)), n, nil
		}
		long = append(long, part...)
	}
}

// Command sends one command and hands every response line up to END to
// each (nil discards them). An ERR line fails the command. An error from
// each is returned once the response has been read to its END, so the
// connection stays in step with the agent. The response as a whole gets one
// timeout from the send and MaxAgentResponse bytes: an agent that keeps
// answering and never says END is abandoned like one that says nothing.
func (c *LineClient) Command(cmd string, each func(line string) error) error {
	if err := c.Send(cmd); err != nil {
		return err
	}
	var failed error
	for left := MaxAgentResponse; ; {
		line, n, err := c.readLine(left)
		if err != nil {
			return err
		}
		left -= n
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
