package metrics

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Exposition is a parsed text exposition: every sample by its series (the
// metric name with any labels, as written) and each family's type, from its
// # TYPE line.
type Exposition struct {
	Samples map[string]float64
	Types   map[string]string
}

// Parse reads the text exposition format WritePrometheus writes. A sample
// line is a series and a value; an optional timestamp after the value is
// ignored.
func Parse(r io.Reader) (Exposition, error) {
	ex := Exposition{Samples: map[string]float64{}, Types: map[string]string{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, kind, ok := strings.Cut(rest, " "); ok {
				ex.Types[name] = kind
			}
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		end := strings.IndexByte(line, ' ')
		if strings.IndexByte(line, '{') >= 0 {
			end = strings.LastIndexByte(line, '}') + 1 // a label value may hold a space
		}
		fields := strings.Fields(line[max(end, 0):])
		if end <= 0 || len(fields) == 0 {
			return ex, fmt.Errorf("metrics: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return ex, fmt.Errorf("metrics: sample %q: %w", line, err)
		}
		ex.Samples[line[:end]] = v
	}
	return ex, sc.Err()
}

// Scrape renders r as GET /metrics serves it and parses the text back, so a
// reader in the same process sees what an operator's scrape would.
func Scrape(r *Registry) (Exposition, error) {
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		return Exposition{}, err
	}
	return Parse(&b)
}
