package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestReadmeNamesEveryFlag holds README's gateway sections to the binary's
// flag surface in both directions: every flag `gridrm-gateway -h` prints is
// named there, and every flag named there is one the binary has — so a
// removed flag cannot stay documented and a new one cannot go undocumented.
//
// A gateway section is a "## " section of README.md whose text mentions
// gridrm-gateway. Within one, a flag is named by a backticked span that
// starts with "-" or "gridrm-gateway ", or by a token of a fenced command
// line that runs gridrm-gateway (with its "\" continuations) or of a "#"
// comment line in a fence.
func TestReadmeNamesEveryFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary; skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "gridrm-gateway")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	// -h exits 0 after printing the defaults to stderr.
	help, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("gridrm-gateway -h: %v\n%s", err, help)
	}
	printed := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(string(help)))
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "  -") {
			printed[strings.Fields(line)[0]] = true
		}
	}
	if len(printed) == 0 {
		t.Fatalf("no flags in -h output:\n%s", help)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	named := readmeGatewayFlags(string(readme))
	for _, f := range sortedKeys(printed) {
		if !named[f] {
			t.Errorf("%s is a gridrm-gateway flag no README gateway section names", f)
		}
	}
	for _, f := range sortedKeys(named) {
		if !printed[f] {
			t.Errorf("README names %s, which gridrm-gateway -h does not print", f)
		}
	}
}

var (
	flagToken    = regexp.MustCompile(`^-[a-z][a-z0-9-]*`)
	backtickSpan = regexp.MustCompile("`([^`]+)`")
)

// readmeGatewayFlags collects the flags README's gateway sections name, by
// the rules in TestReadmeNamesEveryFlag's comment.
func readmeGatewayFlags(readme string) map[string]bool {
	named := map[string]bool{}
	addTokens := func(s string) {
		for _, tok := range strings.Fields(s) {
			if m := flagToken.FindString(tok); m != "" {
				named[m] = true
			}
		}
	}
	for _, section := range strings.Split(readme, "\n## ") {
		if !strings.Contains(section, "gridrm-gateway") {
			continue
		}
		var prose strings.Builder
		inFence, inCommand := false, false
		for _, line := range strings.Split(section, "\n") {
			trimmed := strings.TrimSpace(line)
			if strings.HasPrefix(trimmed, "```") {
				inFence, inCommand = !inFence, false
				continue
			}
			if !inFence {
				prose.WriteString(line + "\n")
				continue
			}
			if strings.HasPrefix(trimmed, "#") {
				addTokens(trimmed)
				continue
			}
			if strings.HasPrefix(trimmed, "gridrm-gateway ") || strings.HasPrefix(trimmed, "go run ./cmd/gridrm-gateway ") {
				inCommand = true
			}
			if inCommand {
				addTokens(trimmed)
				inCommand = strings.HasSuffix(trimmed, "\\")
			}
		}
		for _, m := range backtickSpan.FindAllStringSubmatch(prose.String(), -1) {
			span := strings.TrimSpace(m[1])
			if strings.HasPrefix(span, "-") {
				if f := flagToken.FindString(span); f != "" {
					named[f] = true
				}
			} else if strings.HasPrefix(span, "gridrm-gateway ") {
				addTokens(span)
			}
		}
	}
	return named
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
