package sim

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseScenario: ParseScenario never panics on a file, and a scenario
// it accepts validates, as `gridrm-sim validate` and the runner check it
// again before they use it.
func FuzzParseScenario(f *testing.F) {
	files, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(sampleScenario))
	f.Add([]byte("name: x\nfleet:\n  sites:\n    -\n      name: a\n"))
	f.Add([]byte("name: 'a # b'\n- x\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("ParseScenario accepted a scenario that does not validate: %v\n%s", err, data)
		}
	})
}
