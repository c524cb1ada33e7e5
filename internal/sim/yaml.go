// Package sim is the scenario-driven fleet simulator and chaos harness:
// YAML scenarios declare a fleet of simulated sites and sources, a client
// load profile, timed fault events and end-of-run assertions; the runner
// spins the fleet up in-process against the real internal/core,
// internal/web and internal/gma code, injects the faults through the
// existing faultdrv and chaos knobs, and emits a machine-readable JSON
// report (docs/sim-report.md).
//
// All randomness — fleet generation, fault-target selection, per-client
// query sequences — derives from one seeded math/rand source, so any run is
// reproducible from (scenario, seed): two runs with the same inputs produce
// the same fleet, the same resolved event sequence and the same client
// query plans.
package sim

import (
	"fmt"
	"strings"
)

// The repo deliberately has no external dependencies, so scenarios are
// written in a small YAML subset parsed here: nested maps by two-space
// indentation, "- " lists (scalar items or maps), "key: value" scalars,
// full-line and trailing "# comments", and single- or double-quoted
// strings. Anchors, flow syntax, multi-line scalars and tabs are not
// supported; `gridrm-sim validate` reports violations with line numbers.

// yline is one significant scenario line.
type yline struct {
	indent int
	text   string
	n      int // 1-based line number, for error messages
}

// parseYAML parses the subset into map[string]any / []any / string values.
func parseYAML(data []byte) (any, error) {
	var lines []yline
	for i, raw := range strings.Split(string(data), "\n") {
		text := stripComment(raw)
		trimmed := strings.TrimLeft(text, " \t")
		if strings.TrimSpace(trimmed) == "" {
			continue
		}
		if strings.ContainsRune(text[:len(text)-len(trimmed)], '\t') {
			return nil, fmt.Errorf("line %d: tabs are not allowed for indentation", i+1)
		}
		lines = append(lines, yline{
			indent: len(text) - len(trimmed),
			text:   strings.TrimSpace(trimmed),
			n:      i + 1,
		})
	}
	if len(lines) == 0 {
		return map[string]any{}, nil
	}
	node, next, err := parseBlock(lines, 0, lines[0].indent)
	if err != nil {
		return nil, err
	}
	if next != len(lines) {
		return nil, fmt.Errorf("line %d: unexpected indentation", lines[next].n)
	}
	return node, nil
}

// stripComment removes a full-line or trailing comment, respecting quotes.
func stripComment(s string) string {
	inSingle, inDouble := false, false
	for i, r := range s {
		switch r {
		case '\'':
			if !inDouble {
				inSingle = !inSingle
			}
		case '"':
			if !inSingle {
				inDouble = !inDouble
			}
		case '#':
			if inSingle || inDouble {
				continue
			}
			// A comment starts the line or follows whitespace.
			if i == 0 || s[i-1] == ' ' || s[i-1] == '\t' {
				return s[:i]
			}
		}
	}
	return s
}

// parseBlock parses the map or list starting at lines[i], whose items sit
// at exactly the given indent, returning the node and the index of the
// first unconsumed line.
func parseBlock(lines []yline, i, indent int) (any, int, error) {
	if strings.HasPrefix(lines[i].text, "- ") || lines[i].text == "-" {
		return parseList(lines, i, indent)
	}
	return parseMap(lines, i, indent)
}

func parseMap(lines []yline, i, indent int) (any, int, error) {
	m := make(map[string]any)
	for i < len(lines) && lines[i].indent == indent {
		ln := lines[i]
		if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
			return nil, 0, fmt.Errorf("line %d: list item where a key was expected", ln.n)
		}
		key, val, isKey := splitKey(ln.text)
		if !isKey {
			return nil, 0, fmt.Errorf("line %d: expected \"key: value\", got %q", ln.n, ln.text)
		}
		if _, dup := m[key]; dup {
			return nil, 0, fmt.Errorf("line %d: duplicate key %q", ln.n, key)
		}
		i++
		if val != "" {
			m[key] = unquote(val)
			continue
		}
		// Empty value: a nested block when the next line is deeper,
		// otherwise an empty string scalar.
		if i < len(lines) && lines[i].indent > indent {
			child, next, err := parseBlock(lines, i, lines[i].indent)
			if err != nil {
				return nil, 0, err
			}
			m[key], i = child, next
		} else {
			m[key] = ""
		}
	}
	if i < len(lines) && lines[i].indent > indent {
		return nil, 0, fmt.Errorf("line %d: unexpected indentation", lines[i].n)
	}
	return m, i, nil
}

func parseList(lines []yline, i, indent int) (any, int, error) {
	var list []any
	for i < len(lines) && lines[i].indent == indent {
		ln := lines[i]
		if !strings.HasPrefix(ln.text, "- ") && ln.text != "-" {
			break // back to the enclosing map
		}
		rest := strings.TrimSpace(strings.TrimPrefix(ln.text, "-"))
		if rest == "" {
			// "-" alone: the item is the deeper-indented block below.
			i++
			if i >= len(lines) || lines[i].indent <= indent {
				return nil, 0, fmt.Errorf("line %d: empty list item", ln.n)
			}
			child, next, err := parseBlock(lines, i, lines[i].indent)
			if err != nil {
				return nil, 0, err
			}
			list, i = append(list, child), next
			continue
		}
		if _, _, isKey := splitKey(rest); !isKey {
			list = append(list, unquote(rest))
			i++
			continue
		}
		// A map item: re-parse "- key: value" as a map whose first line is
		// the remainder at indent+2, followed by the deeper real lines.
		j := i + 1
		for j < len(lines) && lines[j].indent > indent {
			j++
		}
		sub := append([]yline{{indent: indent + 2, text: rest, n: ln.n}}, lines[i+1:j]...)
		for k := 1; k < len(sub); k++ {
			if sub[k].indent < indent+2 {
				return nil, 0, fmt.Errorf("line %d: bad indentation inside list item", sub[k].n)
			}
		}
		child, consumed, err := parseMap(sub, 0, indent+2)
		if err != nil {
			return nil, 0, err
		}
		if consumed != len(sub) {
			return nil, 0, fmt.Errorf("line %d: unexpected indentation", sub[consumed].n)
		}
		list, i = append(list, child), j
	}
	if i < len(lines) && lines[i].indent > indent {
		return nil, 0, fmt.Errorf("line %d: unexpected indentation", lines[i].n)
	}
	return list, i, nil
}

// splitKey splits "key: value" / "key:"; quoted scalars are never keys.
func splitKey(s string) (key, val string, ok bool) {
	if s == "" || s[0] == '"' || s[0] == '\'' {
		return "", "", false
	}
	if i := strings.Index(s, ": "); i > 0 {
		return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+2:]), true
	}
	if strings.HasSuffix(s, ":") {
		return strings.TrimSpace(s[:len(s)-1]), "", true
	}
	return "", "", false
}

func unquote(s string) string {
	if len(s) >= 2 {
		if (s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'') {
			return s[1 : len(s)-1]
		}
	}
	return s
}
