// Package netloggerdrv implements the JDBC-NetLogger driver plus the
// inbound and outbound event drivers that bridge NetLogger's ULM records
// and GridRM's Event Manager (paper Fig 4).
//
// NetLogger sits with SNMP in the paper's fine-grained camp (§3.2.3):
// "fine grained native requests for data are possible, with generally
// little or no parsing required" — the driver issues one GET per (host,
// event) and each answer is a single self-describing ULM line. No response
// cache is carried.
//
// URLs: gridrm:netlogger://host:port. Protocol-less URLs are verified by a
// HOSTS handshake at connect time.
package netloggerdrv

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"time"

	"gridrm/internal/agents/netlogger"
	"gridrm/internal/driver"
	"gridrm/internal/drivers/drvkit"
	"gridrm/internal/event"
	"gridrm/internal/glue"
	"gridrm/internal/schema"
)

// DriverName is the registration name.
const DriverName = "jdbc-netlogger"

// DefaultPort is the NetLogger port assumed when the URL has none.
const DefaultPort = 14830

// New creates the driver; the SchemaManager may be nil.
func New(sm *schema.Manager) *drvkit.Driver {
	return drvkit.New(drvkit.Spec{Name: DriverName, Protocol: "netlogger", DefaultPort: DefaultPort,
		Agent: "a NetLogger agent", Schema: Schema, Open: open}, sm)
}

// session is one TCP connection to the NetLogger collector.
type session struct{ *drvkit.LineClient }

// open dials the collector and verifies it with a HOSTS handshake.
func open(t drvkit.Target) (drvkit.Session, error) {
	line, err := drvkit.DialLine(t.Addr, t.Timeout)
	if err != nil {
		return nil, err
	}
	s := &session{line}
	return s, s.Ping()
}

// Ping implements drvkit.Session with a HOSTS round trip.
func (s *session) Ping() error { return s.Command("HOSTS", nil) }

// get performs one fine-grained GET for the latest value of (host, event).
func (s *session) get(host, evt string) (float64, bool, error) {
	if err := s.Send("GET " + host + " " + evt); err != nil {
		return 0, false, err
	}
	line, err := s.ReadLine()
	if err != nil {
		return 0, false, err
	}
	if strings.HasPrefix(line, "ERR") {
		return 0, false, nil // no record for this event → NULL
	}
	rec, err := netlogger.ParseRecord(line)
	if err != nil {
		return 0, false, fmt.Errorf("netloggerdrv: %w", err)
	}
	return rec.Value, true, nil
}

// Fetch implements drvkit.Session: one row per host, one GET per mapped
// field.
func (s *session) Fetch(rows *drvkit.Rows) error {
	// The list is read whole first: the GETs below share the connection.
	var hosts []string
	if err := s.Command("HOSTS", func(host string) error {
		hosts = append(hosts, host)
		return nil
	}); err != nil {
		return err
	}
	for _, host := range hosts {
		var getErr error
		err := rows.Add(func(native string) (any, bool) {
			if native == "hostname" {
				return host, true
			}
			name, conv, _ := strings.Cut(native, "|")
			v, ok, err := s.get(host, name)
			if err != nil {
				getErr = err
				return nil, false
			}
			if !ok {
				return nil, false
			}
			if conv == "int" {
				return int64(v), true
			}
			return v, true
		})
		if getErr != nil {
			return getErr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Schema returns the driver's GLUE mapping. Native names are ULM NL.EVNT
// names, optionally suffixed "|int".
func Schema() *schema.DriverSchema {
	return &schema.DriverSchema{
		Driver: DriverName,
		Groups: map[string]*schema.GroupMapping{
			glue.GroupProcessor: {Group: glue.GroupProcessor, Fields: []schema.FieldMapping{
				{GLUEField: "HostName", Native: "hostname"},
				{GLUEField: "LoadLast1Min", Native: netlogger.EvLoadOne},
				{GLUEField: "LoadLast5Min", Native: netlogger.EvLoadFive},
				{GLUEField: "LoadLast15Min", Native: netlogger.EvLoadFifteen},
				{GLUEField: "Utilization", Native: netlogger.EvCPUUtil},
				// NetLogger carries usage, not inventory → identity NULL.
			}},
			glue.GroupMemory: {Group: glue.GroupMemory, Fields: []schema.FieldMapping{
				{GLUEField: "HostName", Native: "hostname"},
				{GLUEField: "RAMSize", Native: netlogger.EvMemTotal + "|int"},
				{GLUEField: "RAMAvailable", Native: netlogger.EvMemFree + "|int"},
			}},
		},
	}
}

// InboundEvents is the Event Manager's inbound driver for NetLogger: it
// opens a STREAM and translates every ULM record into a GridRM event via
// its Formatter — the "Consumer for Data Source X" of Fig 4.
type InboundEvents struct {
	// URL is the agent's data-source URL.
	URL string
	// Timeout bounds the dial (default 2s).
	Timeout time.Duration
	// Formatter translates one ULM record; nil uses DefaultFormatter.
	Formatter func(rec netlogger.Record, sourceURL string) (event.Event, bool)

	tcp    net.Conn
	done   chan struct{}
	closed bool
}

// DefaultFormatter is the stock ULM → GridRM event translation. Records
// whose PROG is "gridrm" are GridRM's own outbound transmissions echoed by
// the agent; re-ingesting them would loop alerts back into the Event
// Manager forever, so the formatter drops them.
func DefaultFormatter(rec netlogger.Record, sourceURL string) (event.Event, bool) {
	if rec.Prog == "gridrm" {
		return event.Event{}, false
	}
	sev := event.SeverityUsage
	if rec.Level == "Alert" {
		sev = event.SeverityAlert
	}
	return event.Event{
		Source:   sourceURL,
		Host:     rec.Host,
		Name:     rec.Event,
		Severity: sev,
		Value:    rec.Value,
		Time:     rec.Date,
		Detail:   "prog=" + rec.Prog,
	}, true
}

// Name implements event.InboundDriver.
func (d *InboundEvents) Name() string { return "netlogger-events:" + d.URL }

// Start implements event.InboundDriver.
func (d *InboundEvents) Start(sink func(event.Event)) error {
	u, err := driver.ParseURL(d.URL)
	if err != nil {
		return err
	}
	timeout := d.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	tcp, err := net.DialTimeout("tcp", u.Address(DefaultPort), timeout)
	if err != nil {
		return fmt.Errorf("netloggerdrv: %w", err)
	}
	if _, err := fmt.Fprintf(tcp, "STREAM\n"); err != nil {
		_ = tcp.Close()
		return fmt.Errorf("netloggerdrv: %w", err)
	}
	d.tcp = tcp
	d.done = make(chan struct{})
	format := d.Formatter
	if format == nil {
		format = DefaultFormatter
	}
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(tcp)
		for sc.Scan() {
			rec, err := netlogger.ParseRecord(sc.Text())
			if err != nil {
				continue
			}
			if ev, ok := format(rec, d.URL); ok {
				sink(ev)
			}
		}
	}()
	return nil
}

// Close implements event.InboundDriver.
func (d *InboundEvents) Close() error {
	if d.closed || d.tcp == nil {
		return nil
	}
	d.closed = true
	err := d.tcp.Close()
	<-d.done
	return err
}

// OutboundEvents transmits GridRM events back to a NetLogger data source as
// ULM LOG records — Fig 4's Transmitter API ("format standard GridRM event
// into a native provider event ... transmit to data source").
type OutboundEvents struct {
	// URL is the agent's data-source URL.
	URL string
	// Timeout bounds each transmission (default 2s).
	Timeout time.Duration
}

// Name implements event.OutboundDriver.
func (d *OutboundEvents) Name() string { return "netlogger-transmit:" + d.URL }

// Transmit implements event.OutboundDriver.
func (d *OutboundEvents) Transmit(ev event.Event) error {
	u, err := driver.ParseURL(d.URL)
	if err != nil {
		return err
	}
	timeout := d.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	line, err := drvkit.DialLine(u.Address(DefaultPort), timeout)
	if err != nil {
		return fmt.Errorf("netloggerdrv: %w", err)
	}
	defer line.Close()
	rec := netlogger.Record{
		Date:  ev.Time,
		Host:  ev.Host,
		Prog:  "gridrm",
		Level: ev.Severity,
		Event: ev.Name,
		Value: ev.Value,
	}
	if err := line.Send("LOG " + rec.Format()); err != nil {
		return fmt.Errorf("netloggerdrv: %w", err)
	}
	resp, err := line.ReadLine()
	if err != nil {
		return fmt.Errorf("netloggerdrv: %w", err)
	}
	if !strings.HasPrefix(resp, "OK") {
		return fmt.Errorf("netloggerdrv: transmit rejected: %s", resp)
	}
	return nil
}
