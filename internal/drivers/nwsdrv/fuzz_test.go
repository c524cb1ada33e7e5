package nwsdrv

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"

	"gridrm/internal/agents/nws"
	"gridrm/internal/agents/sim"
	"gridrm/internal/glue"
	"gridrm/internal/schema"
)

// agentReplies asks a live NWS agent for one LIST, SERIES and FORECAST each
// and returns its replies as they came off the wire.
func agentReplies(f *testing.F) []string {
	site := sim.New(sim.Config{Name: "n", Hosts: 1, Seed: 8})
	site.StepN(3)
	agent, err := nws.NewAgent(site, "")
	if err != nil {
		f.Fatal(err)
	}
	defer agent.Close()
	agent.Sample()
	agent.Sample()
	conn, err := net.Dial("tcp", agent.Addr())
	if err != nil {
		f.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	// ask sends cmd and reads its reply: one line, or with list up to END.
	ask := func(cmd string, list bool) string {
		if _, err := fmt.Fprintf(conn, "%s\n", cmd); err != nil {
			f.Fatal(err)
		}
		var reply strings.Builder
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				f.Fatal(err)
			}
			reply.WriteString(line)
			if !list || line == "END\n" {
				return reply.String()
			}
		}
	}
	host := site.Snapshots()[0].Name
	return []string{
		ask("LIST", true),
		ask("SERIES "+host+" "+nws.ResFreeMemory, true),
		ask("FORECAST "+host+" "+nws.ResAvailableCPU, false),
		ask("FORECAST "+host+" nosuch", false),
	}
}

// FuzzNWSReply feeds one text to the three reply parsers as a LIST, a
// SERIES and a FORECAST reply: none may panic or allocate in proportion to
// a size the reply claims, and what they accept must map to rows of every
// group the driver serves without error, each integral value the truncated
// reading it came from. The seeds are an agent's replies.
func FuzzNWSReply(f *testing.F) {
	for _, reply := range agentReplies(f) {
		f.Add(reply)
	}
	f.Add("OK 2000000000\n1 1\nEND\n")
	f.Add("OK -1\nEND\n")
	f.Add("FORECAST NaN -Inf\n")
	f.Add("h r\nh r\nEND\n")
	f.Add("OK 1\n1 1e300\nEND\n")
	ds := Schema()
	var readings []string
	for _, gm := range ds.Groups {
		for _, fm := range gm.Fields {
			res, _, _ := strings.Cut(fm.Native, "|")
			readings = append(readings, res)
		}
	}
	f.Fuzz(func(t *testing.T, reply string) {
		var series, forecast float64
		var haveSeries, haveForecast bool
		var seriesErr, forecastErr, listErr error
		list := make(map[string][]string)
		grew := allocated(func() {
			lines := strings.Split(strings.TrimSuffix(reply, "\n"), "\n")
			next := 0
			readLine := func() (string, error) {
				if next == len(lines) {
					return "", io.EOF
				}
				next++
				return lines[next-1], nil
			}
			series, haveSeries, seriesErr = parseSeries(readLine)
			forecast, haveForecast, forecastErr = parseForecast(lines[0])
			for _, line := range lines {
				if line == "END" {
					break
				}
				if listErr = parseListLine(list, line); listErr != nil {
					break
				}
			}
		})
		if grew > 1<<16+64*uint64(len(reply)) {
			t.Fatalf("parsing a %d-byte reply allocated %d bytes", len(reply), grew)
		}
		if listErr != nil {
			return
		}
		// The accepted value stands for every series a listed host has,
		// those the schema reads included, so each conversion sees it.
		values := make(map[string]float64)
		set := func(resources []string) {
			for _, res := range resources {
				switch {
				case seriesErr == nil && haveSeries:
					values[res] = series
				case forecastErr == nil && haveForecast:
					values[res] = forecast
				}
			}
		}
		set(readings)
		for _, resources := range list {
			set(resources)
		}
		for name, gm := range ds.Groups {
			g, ok := glue.Lookup(name)
			if !ok {
				t.Fatalf("schema maps unknown group %s", name)
			}
			for host := range list {
				resolve := func(native string) (any, bool) { return resolve(native, host, values, g) }
				if _, err := schema.BuildRow(g, gm, resolve); err != nil {
					t.Fatalf("accepted reply does not map to %s rows: %v\nreply %q", name, err, reply)
				}
				for _, fm := range gm.Fields {
					v, ok := resolve(fm.Native)
					n, integral := v.(int64)
					if !ok || !integral {
						continue
					}
					res, _, _ := strings.Cut(fm.Native, "|")
					if want := math.Trunc(values[res]); float64(n) != want {
						t.Fatalf("%s reads %d from %g, want %g\nreply %q", fm.Native, n, values[res], want, reply)
					}
				}
			}
		}
	})
}

// allocated reports the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
