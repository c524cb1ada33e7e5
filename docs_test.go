package gridrm_test

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The documents whose names TestDocsNameWhatTheTreeHas holds to the tree.
var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/sim-report.md"}

var (
	testFuncDecl  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	metricLiteral = regexp.MustCompile(`"(gridrm_[a-z0-9_]*)"`)

	docGoFile = regexp.MustCompile(`[A-Za-z0-9][A-Za-z0-9_./-]*\.go\b`)
	docFunc   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*(\.?\*)?`)
	docMetric = regexp.MustCompile(`gridrm_[a-z0-9_]*\*?`)
)

// tree is what the documents may name: the repository's .go files, the
// Test/Benchmark/Fuzz/Example functions of each package directory, and the
// metric names the non-test code spells as "gridrm_…" string literals (one
// ending in "_" is a family prefix).
type tree struct {
	goFiles []string            // slash paths from the repo root
	funcs   map[string][]string // package dir ("." for the root) → function names
	metrics map[string]bool
}

func loadTree(t *testing.T) *tree {
	t.Helper()
	tr := &tree{funcs: map[string][]string{}, metrics: map[string]bool{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		path = filepath.ToSlash(path)
		tr.goFiles = append(tr.goFiles, path)
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			dir := filepath.ToSlash(filepath.Dir(path))
			for _, m := range testFuncDecl.FindAllStringSubmatch(string(src), -1) {
				tr.funcs[dir] = append(tr.funcs[dir], m[1])
			}
			return nil
		}
		for _, m := range metricLiteral.FindAllStringSubmatch(string(src), -1) {
			tr.metrics[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.metrics) == 0 || len(tr.funcs) == 0 {
		t.Fatalf("found %d metric names and %d test packages: not run from the repo root?", len(tr.metrics), len(tr.funcs))
	}
	return tr
}

func (tr *tree) hasGoFile(name string) bool {
	for _, f := range tr.goFiles {
		if f == name || strings.HasSuffix(f, "/"+name) {
			return true
		}
	}
	return false
}

// hasFunc reports whether any package has a function of that name, or, for
// a prefix, one that starts with it.
func (tr *tree) hasFunc(name string, prefix bool) bool {
	for _, names := range tr.funcs {
		for _, n := range names {
			if n == name || prefix && strings.HasPrefix(n, name) {
				return true
			}
		}
	}
	return false
}

// hasMetric accepts a name the code spells, a histogram's _bucket, _sum or
// _count series of one, a name under a family prefix the code spells, and a
// prefix (a name ending in "_" or "*") that some spelled name starts with.
func (tr *tree) hasMetric(name string) bool {
	if prefix, ok := strings.CutSuffix(name, "*"); ok || strings.HasSuffix(name, "_") {
		if ok {
			name = prefix
		}
		for m := range tr.metrics {
			if strings.HasPrefix(m, name) || strings.HasSuffix(m, "_") && strings.HasPrefix(name, m) {
				return true
			}
		}
		return false
	}
	if tr.metrics[name] {
		return true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && tr.metrics[base] {
			return true
		}
	}
	for m := range tr.metrics {
		if strings.HasSuffix(m, "_") && strings.HasPrefix(name, m) {
			return true
		}
	}
	return false
}

// TestDocsNameWhatTheTreeHas fails when README.md, DESIGN.md, EXPERIMENTS.md
// or docs/sim-report.md names a .go file, a Test/Benchmark/Fuzz function or
// a gridrm_* metric the tree does not have. A function name followed by "*"
// or ".*" is a prefix. A section whose heading says "Retired" lists deleted
// names on purpose and is not checked.
func TestDocsNameWhatTheTreeHas(t *testing.T) {
	tr := loadTree(t)
	for _, doc := range checkedDocs {
		for _, line := range checkedLines(t, doc) {
			at := fmt.Sprintf("%s:%d", doc, line.n)
			for _, f := range docGoFile.FindAllString(line.text, -1) {
				if !tr.hasGoFile(f) {
					t.Errorf("%s names %s, which is not a .go file in the tree", at, f)
				}
			}
			for _, m := range docFunc.FindAllStringSubmatch(line.text, -1) {
				name := strings.TrimSuffix(strings.TrimSuffix(m[0], "*"), ".")
				if !tr.hasFunc(name, m[1] != "") {
					t.Errorf("%s names %s, which no _test.go file declares", at, m[0])
				}
			}
			for _, m := range docMetric.FindAllString(line.text, -1) {
				if !tr.hasMetric(m) {
					t.Errorf("%s names %s, which no \"gridrm_…\" literal in non-test code spells", at, m)
				}
			}
		}
	}
}

type docLine struct {
	n    int
	text string
}

// checkedLines returns a document's lines outside its "Retired" sections.
// A heading inside a code fence is text, not a heading.
func checkedLines(t *testing.T, doc string) []docLine {
	t.Helper()
	f, err := os.Open(doc)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []docLine
	inFence, exemptLevel := false, 0
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		text := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(text), "```") {
			inFence = !inFence
		} else if !inFence && strings.HasPrefix(text, "#") {
			level := len(text) - len(strings.TrimLeft(text, "#"))
			if exemptLevel > 0 && level <= exemptLevel {
				exemptLevel = 0
			}
			if exemptLevel == 0 && strings.Contains(text, "Retired") {
				exemptLevel = level
			}
		}
		if exemptLevel == 0 {
			out = append(out, docLine{n, text})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// maxChangesEntry bounds one PR's entry in CHANGES.md, in bytes: an entry
// says what changed and points to its evidence in about 1 KB.
const maxChangesEntry = 1300

var changesEntry = regexp.MustCompile(`^PR \d+:`)

// TestChangesEntriesStayShort fails when a `PR N:` line of CHANGES.md is
// longer than maxChangesEntry bytes.
func TestChangesEntriesStayShort(t *testing.T) {
	data, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for i, line := range strings.Split(string(data), "\n") {
		if label := changesEntry.FindString(line); label != "" {
			entries++
			if len(line) > maxChangesEntry {
				t.Errorf("CHANGES.md:%d: the %s entry is %d bytes, over %d", i+1, strings.TrimSuffix(label, ":"), len(line), maxChangesEntry)
			}
		}
	}
	if entries == 0 {
		t.Fatal("CHANGES.md has no PR entry: not run from the repo root?")
	}
}

// TestCIPatternsMatchTests fails when a -run, -bench or -fuzz alternative of
// a `go test` command in .github/workflows/ci.yml matches no function of its
// kind in the packages the command names: go test runs such a pattern as "no
// tests to run" and passes. -run=NONE, the idiom for running benchmarks or a
// fuzz target alone, is meant to match nothing.
func TestCIPatternsMatchTests(t *testing.T) {
	tr := loadTree(t)
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	commands := 0
	for _, cmd := range goTestCommands(string(ci)) {
		commands++
		for _, flag := range []string{"run", "bench", "fuzz"} {
			pattern, ok := cmd.flags[flag]
			if !ok || flag == "run" && pattern == "NONE" {
				continue
			}
			var candidates []string
			for _, pkg := range cmd.pkgs {
				for dir, names := range tr.funcs {
					if !pkgMatches(pkg, dir) {
						continue
					}
					for _, n := range names {
						if funcKind(flag, n) {
							candidates = append(candidates, n)
						}
					}
				}
			}
			for _, alt := range alternatives(pattern) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: -%s alternative %q: %v", cmd.line, flag, alt, err)
					continue
				}
				if !slices.ContainsFunc(candidates, re.MatchString) {
					t.Errorf("ci.yml:%d: -%s alternative %q matches nothing in %s", cmd.line, flag, alt, strings.Join(cmd.pkgs, " "))
				}
			}
		}
	}
	if commands == 0 {
		t.Fatal("no go test command found in ci.yml")
	}
}

type goTestCommand struct {
	line  int
	flags map[string]string
	pkgs  []string
}

// goTestFlagsWithValue are the go test flags whose value may be the next
// word; every other flag stands alone.
var goTestFlagsWithValue = map[string]bool{
	"run": true, "bench": true, "fuzz": true, "count": true,
	"benchtime": true, "fuzztime": true, "timeout": true, "cpu": true,
}

// goTestCommands finds the `go test` commands of a workflow, one a line
// after joining "\" continuations, and splits each into flags and packages.
func goTestCommands(ci string) []goTestCommand {
	var out []goTestCommand
	lines := strings.Split(ci, "\n")
	for i := 0; i < len(lines); i++ {
		start, text := i+1, lines[i]
		for strings.HasSuffix(strings.TrimSpace(text), "\\") && i+1 < len(lines) {
			i++
			text = strings.TrimSuffix(strings.TrimSpace(text), "\\") + " " + lines[i]
		}
		_, rest, ok := strings.Cut(text, "go test ")
		if !ok || strings.HasPrefix(strings.TrimSpace(text), "#") {
			continue
		}
		cmd := goTestCommand{line: start, flags: map[string]string{}}
		words := shellWords(rest)
		for j := 0; j < len(words); j++ {
			w := words[j]
			if !strings.HasPrefix(w, "-") {
				cmd.pkgs = append(cmd.pkgs, w)
				continue
			}
			name, value, hasValue := strings.Cut(strings.TrimLeft(w, "-"), "=")
			if !hasValue && goTestFlagsWithValue[name] && j+1 < len(words) {
				j++
				value = words[j]
			}
			cmd.flags[name] = value
		}
		if len(cmd.pkgs) == 0 {
			cmd.pkgs = []string{"."}
		}
		out = append(out, cmd)
	}
	return out
}

// shellWords splits a command line on blanks, honouring single and double
// quotes, and stops at a shell operator or a comment.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		case !inWord && (c == '|' || c == '&' || c == ';' || c == '#' || c == '>'):
			return words
		default:
			cur.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// pkgMatches reports whether a go test package argument names dir.
func pkgMatches(pkg, dir string) bool {
	pkg = strings.TrimSuffix(strings.TrimPrefix(pkg, "./"), "/")
	if pkg == "" {
		pkg = "."
	}
	if base, ok := strings.CutSuffix(pkg, "..."); ok {
		base = strings.TrimSuffix(base, "/")
		return base == "" || base == "." || dir == base || strings.HasPrefix(dir, base+"/")
	}
	return pkg == dir
}

// funcKind reports whether a -run, -bench or -fuzz pattern can select name.
func funcKind(flag, name string) bool {
	switch flag {
	case "bench":
		return strings.HasPrefix(name, "Benchmark")
	case "fuzz":
		return strings.HasPrefix(name, "Fuzz")
	}
	return !strings.HasPrefix(name, "Benchmark")
}

// alternatives splits a pattern's top level (the part before the first "/"
// outside brackets and parentheses, as go test splits it) into its "|"
// alternatives. "^(a|b)$" becomes "^a$" and "^b$".
func alternatives(pattern string) []string {
	top := pattern
	depth := 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '/':
			if depth == 0 {
				top = pattern[:i]
				i = len(pattern)
			}
		}
	}
	anchor := func(s string) string { return s }
	if inner, ok := strings.CutPrefix(top, "^("); ok && strings.HasSuffix(inner, ")$") && enclosing(top[1:len(top)-1]) {
		top = strings.TrimSuffix(inner, ")$")
		anchor = func(s string) string { return "^" + s + "$" }
	}
	var alts []string
	depth, start := 0, 0
	for i := 0; i <= len(top); i++ {
		if i == len(top) || top[i] == '|' && depth == 0 {
			alts = append(alts, anchor(top[start:i]))
			start = i + 1
			continue
		}
		switch top[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		}
	}
	return alts
}

// enclosing reports whether s is one parenthesised group: its first "("
// closes at its last byte.
func enclosing(s string) bool {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 && i < len(s)-1 {
				return false
			}
		}
	}
	return depth == 0
}
