// Package nwsdrv implements the JDBC-NWS driver: SQL queries against GLUE
// groups are answered from Network Weather Service measurement series.
//
// NWS is in the paper's coarse-grained camp (§3.2.3): each SERIES command
// returns a whole plain-text measurement history that must be parsed to
// extract one current value, so the driver caches the parsed site state per
// connection (property "cache_ttl", default 1s). The property
// "use_forecast" ("true") answers from NWS forecasts instead of the latest
// raw measurement — the ablation knob for what a forecasting source buys.
//
// URLs: gridrm:nws://host:port. Protocol-less URLs are accepted and
// verified by a LIST handshake at connect time.
package nwsdrv

import (
	"fmt"
	"sort"
	"strings"

	"gridrm/internal/drivers/drvkit"
	"gridrm/internal/glue"
	"gridrm/internal/schema"
)

// DriverName is the registration name.
const DriverName = "jdbc-nws"

// DefaultPort is the NWS port assumed when the URL has none.
const DefaultPort = 8090

// New creates the driver; the SchemaManager may be nil.
func New(sm *schema.Manager) *drvkit.Driver {
	return drvkit.New(drvkit.Spec{Name: DriverName, Protocol: "nws", DefaultPort: DefaultPort,
		Agent: "an NWS agent", Schema: Schema, Open: open}, sm)
}

// siteState is the parsed site: host → resource → value.
type siteState map[string]map[string]float64

// session is one TCP connection to the NWS nameserver plus the per-plug-in
// state cache.
type session struct {
	*drvkit.LineClient
	forecast bool
	state    *drvkit.Cached[siteState]
}

// open dials the nameserver and verifies it with a LIST handshake.
func open(t drvkit.Target) (drvkit.Session, error) {
	line, err := drvkit.DialLine(t.Addr, t.Timeout)
	if err != nil {
		return nil, err
	}
	s := &session{LineClient: line, forecast: t.Props.Get("use_forecast", "") == "true"}
	s.state = drvkit.NewCached(t, s.fetch)
	return s, s.Ping()
}

// Ping implements drvkit.Session with a LIST round trip.
func (s *session) Ping() error {
	_, err := s.listSeries()
	return err
}

// listSeries runs LIST and returns host → resources.
func (s *session) listSeries() (map[string][]string, error) {
	out := make(map[string][]string)
	err := s.Command("LIST", func(line string) error {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return fmt.Errorf("nwsdrv: bad LIST line %q", line)
		}
		out[fields[0]] = append(out[fields[0]], fields[1])
		return nil
	})
	return out, err
}

// latest fetches the most recent measurement of one series by reading (and
// parsing) the whole series response — the coarse path.
func (s *session) latest(host, resource string) (float64, bool, error) {
	if err := s.Send("SERIES " + host + " " + resource); err != nil {
		return 0, false, err
	}
	header, err := s.ReadLine()
	if err != nil {
		return 0, false, err
	}
	var n int
	if _, err := fmt.Sscanf(header, "OK %d", &n); err != nil {
		return 0, false, fmt.Errorf("nwsdrv: bad SERIES header %q", header)
	}
	var last float64
	have := false
	for i := 0; i < n; i++ {
		line, err := s.ReadLine()
		if err != nil {
			return 0, false, err
		}
		var ts int64
		var v float64
		if _, err := fmt.Sscanf(line, "%d %g", &ts, &v); err != nil {
			return 0, false, fmt.Errorf("nwsdrv: bad series line %q", line)
		}
		last, have = v, true
	}
	if end, err := s.ReadLine(); err != nil || end != "END" {
		return 0, false, fmt.Errorf("nwsdrv: missing END (got %q, %v)", end, err)
	}
	return last, have, nil
}

// forecastValue fetches the NWS forecast of one series.
func (s *session) forecastValue(host, resource string) (float64, bool, error) {
	if err := s.Send("FORECAST " + host + " " + resource); err != nil {
		return 0, false, err
	}
	line, err := s.ReadLine()
	if err != nil {
		return 0, false, err
	}
	if strings.HasPrefix(line, "ERR") {
		return 0, false, nil
	}
	var v, mse float64
	if _, err := fmt.Sscanf(line, "FORECAST %g %g", &v, &mse); err != nil {
		return 0, false, fmt.Errorf("nwsdrv: bad FORECAST line %q", line)
	}
	return v, true, nil
}

// fetch reads every series the nameserver lists.
func (s *session) fetch() (siteState, error) {
	series, err := s.listSeries()
	if err != nil {
		return nil, err
	}
	state := make(siteState, len(series))
	for host, resources := range series {
		state[host] = make(map[string]float64, len(resources))
		for _, res := range resources {
			var v float64
			var ok bool
			if s.forecast {
				v, ok, err = s.forecastValue(host, res)
			} else {
				v, ok, err = s.latest(host, res)
			}
			if err != nil {
				return nil, err
			}
			if ok {
				state[host][res] = v
			}
		}
	}
	return state, nil
}

// Fetch implements drvkit.Session: one row per host, in name order.
func (s *session) Fetch(rows *drvkit.Rows) error {
	state, err := s.state.Get()
	if err != nil {
		return err
	}
	hosts := make([]string, 0, len(state))
	for h := range state {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, host := range hosts {
		values := state[host]
		if err := rows.Add(func(native string) (any, bool) {
			return resolve(native, host, values, rows.Group)
		}); err != nil {
			return err
		}
	}
	return nil
}

// resolve maps natives ("hostname", "const:x", "<resource>" or
// "<resource>|conv") onto values for one host.
func resolve(native, host string, values map[string]float64, g *glue.Group) (any, bool) {
	if native == "hostname" {
		return host, true
	}
	if strings.HasPrefix(native, "const:") {
		return strings.TrimPrefix(native, "const:"), true
	}
	name, conv, _ := strings.Cut(native, "|")
	v, ok := values[name]
	if !ok {
		return nil, false
	}
	switch conv {
	case "avail-to-util":
		return (1 - v) * 100, true
	case "mb-int":
		return int64(v), true
	case "":
		return v, true
	}
	return nil, false
}
