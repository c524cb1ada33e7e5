package scms

import (
	"maps"
	"strings"
	"testing"

	"gridrm/internal/agents/sim"
)

// FuzzParseFields: ParseFields never panics on a line; every key it accepts
// is non-empty; the map it returns, joined again as k=v|…, parses back to
// the same map; and ParseStatus on the same line agrees with it, refusing
// exactly the lines with no host.
func FuzzParseFields(f *testing.F) {
	site := sim.New(sim.Config{Name: "fz", Hosts: 1, Seed: 3})
	site.StepN(1)
	for _, name := range site.HostNames() {
		snap, _ := site.Snapshot(name)
		f.Add(FormatStatus(snap))
	}
	for _, line := range FormatCluster(site) {
		f.Add(line)
	}
	f.Add("host=a|host=b|x==y|z=")
	f.Add("host=|=v")
	f.Add("a")
	f.Add("")
	f.Fuzz(func(t *testing.T, line string) {
		fields, err := ParseFields(line)
		status, serr := ParseStatus(line)
		if err != nil {
			if serr == nil {
				t.Fatalf("ParseStatus accepted %q, which ParseFields refuses: %v", line, err)
			}
			return
		}
		var parts []string
		for k, v := range fields {
			if k == "" {
				t.Fatalf("line %q gave an empty key", line)
			}
			parts = append(parts, k+"="+v)
		}
		again, err := ParseFields(strings.Join(parts, "|"))
		if err != nil || !maps.Equal(again, fields) {
			t.Fatalf("re-joined fields do not parse back\nline   %q\nfirst  %v\nsecond %v (%v)", line, fields, again, err)
		}
		if (serr == nil) != (fields["host"] != "") {
			t.Fatalf("ParseStatus(%q): %v, with host %q", line, serr, fields["host"])
		}
		if serr == nil && !maps.Equal(status, fields) {
			t.Fatalf("ParseStatus(%q) = %v, ParseFields = %v", line, status, fields)
		}
	})
}
