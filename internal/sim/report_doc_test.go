package sim

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	docKey    = regexp.MustCompile("`((?:min|max)_[a-z0-9_]+)`")
	docMetric = regexp.MustCompile(`gridrm_[a-z0-9_]+`)
)

// TestAssertionTableMatchesAssertionKeys holds docs/sim-report.md's
// assertion table to assertionKeys: every key is in the table, every key
// the table names is one Validate accepts, and the first metric a row's
// second cell names is the one the key reads (none for the four keys the
// clients measure).
func TestAssertionTableMatchesAssertionKeys(t *testing.T) {
	doc, err := os.ReadFile("../../docs/sim-report.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Assertion semantics\n")
	if !ok {
		t.Fatal(`docs/sim-report.md has no "## Assertion semantics" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")

	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasPrefix(line, "|") {
			continue
		}
		keys := docKey.FindAllStringSubmatch(cells[1], -1)
		if len(keys) != 1 {
			continue // the header, the rule, or a row that is not a key's
		}
		key := keys[0][1]
		documented[key] = true
		metric, known := assertionKeys[key]
		if !known {
			t.Errorf("the table documents %s, which assertionKeys lacks", key)
		}
		sc, err := ParseScenario([]byte("name: d\nfleet:\n  sites:\n    - name: a\n"))
		if err != nil {
			t.Fatal(err)
		}
		sc.Assertions = map[string]float64{key: 0}
		if err := sc.Validate(); err != nil {
			t.Errorf("the table documents %s, which Validate refuses: %v", key, err)
		}
		if got := docMetric.FindString(cells[2]); got != metric {
			t.Errorf("the table says %s reads %q; assertionKeys says %q", key, got, metric)
		}
	}
	for key := range assertionKeys {
		if !documented[key] {
			t.Errorf("assertion key %s has no row in docs/sim-report.md's table", key)
		}
	}
}
