// Command benchmark is GridRM-Go's one benchmark: four named workloads, each
// a real core/web/gma/repub stack stood up in-process through internal/sim's
// Harness and driven over HTTP with web.Client, every answer checked against
// the generated fleet. It measures; it claims no gain. See README.md.
//
//	go run ./benchmark                          # every workload: a set of 3 runs + a traced run
//	go run ./benchmark -sets 2 -out two.json    # two sets, saved for compare
//	go run ./benchmark compare a.json b.json    # medians, quartiles, bounds
//	go run ./benchmark --workload cached_dashboard --seed 1 --seconds 12 --trace 0
//
// The last form is one run, the form the driver calls (through run.sh): its
// last line of output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

const (
	specPath   = "BENCHMARK.json"
	resultsDir = "benchmark/results"
	// scratchDir takes everything a run leaves behind besides its results:
	// durable-history directories, the sink file, probe journals.
	scratchDir = ".bench_build/tmp"
	// The development seed, and the one held out: run both before a claim.
	devSeed     = 1
	heldOutSeed = 20030901
	runsPerSet  = 3
)

// spec is BENCHMARK.json: the contract the output is checked against.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			return nil, fmt.Errorf("%s: metric name %q is malformed or used twice", path, m.Name)
		}
		seen[m.Name] = true
	}
	for _, l := range s.Workloads {
		w := workloadByName(l.Name)
		if w == nil {
			return nil, fmt.Errorf("%s: unknown workload %q", path, l.Name)
		}
		if want := fmt.Sprintf("rate_qps=%g", w.rateQPS); !strings.Contains(l.Why, want) {
			return nil, fmt.Errorf("%s: workload %s must record %s in its why", path, l.Name, want)
		}
	}
	return &s, nil
}

// listed is the metrics a run prints: the end-to-end ones untraced, the
// per-layer ones traced.
func (s *spec) listed(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// emit builds the result a run prints: exactly the listed metrics, each
// with the unit the spec gives it.
func (s *spec) emit(traced bool, out *outcome) (*result, error) {
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]resultValue{}}
	for _, def := range s.listed(traced) {
		v, ok := out.metrics[def.Name]
		if !ok {
			return nil, fmt.Errorf("%s lists %s, which a -trace %d run does not measure", specPath, def.Name, map[bool]int{true: 1}[traced])
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s came out as %v: the run measured nothing to divide by", def.Name, v)
		}
		res.Metrics[def.Name] = resultValue{Value: v, Unit: def.Unit}
	}
	return res, nil
}

func (s *spec) why(workload string) string {
	for _, l := range s.Workloads {
		if l.Name == workload {
			return l.Why
		}
	}
	return ""
}

// stamp is the environment every result is stamped with.
type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Race       string  `json:"race"`
	Transport  string  `json:"transport"`
	Seed       int64   `json:"seed"`
	Workload   string  `json:"workload,omitempty"`
	RateQPS    float64 `json:"rate_qps,omitempty"`
	Seconds    float64 `json:"seconds"`
}

func newStamp(seed int64, seconds float64) stamp {
	st := stamp{Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Race: "off", Transport: "http", Seed: seed, Seconds: seconds}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				st.Commit = kv.Value
			}
		}
	}
	return st
}

// result is the last line a single run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "run this one workload once and print its JSON result (the driver's form)")
	seed := flag.Int64("seed", devSeed, fmt.Sprintf("workload seed; %d is held out for confirming a claim", heldOutSeed))
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: BENCHMARK.json's run_seconds)")
	traced := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and spans instead of the end-to-end metrics")
	sets := flag.Int("sets", 1, "with no -workload: how many sets of 3 runs per workload to make")
	out := flag.String("out", filepath.Join(resultsDir, "latest.json"), "with no -workload: where the sets are saved for compare")
	bad := flag.Bool("corrupt", false, "damage one response before the oracle sees it; the run must then fail")
	flag.Parse()

	if raceEnabled {
		fail("refusing to measure a -race build: the detector multiplies every latency")
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fail("%v (run from the repository root)", err)
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
	}
	// Harness and probes put their files under os.TempDir: keep them in the checkout.
	tmp, err := filepath.Abs(scratchDir)
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err != nil {
		fail("%v", err)
	}
	os.Setenv("TMPDIR", tmp)

	if *workload == "" {
		os.Exit(runSets(sp, *seed, *seconds, *sets, *out))
	}
	w := workloadByName(*workload)
	if w == nil || sp.why(w.name) == "" {
		fail("unknown workload %q", *workload)
	}
	cfg := defaultConfig(w, *seed, *seconds, *traced == 1)
	cfg.corrupt = *bad
	st := newStamp(*seed, *seconds)
	st.Workload, st.RateQPS = w.name, w.rateQPS
	stampJSON, _ := json.Marshal(st)
	fmt.Printf("stamp %s\nworkload %s: %s\n", stampJSON, w.name, sp.why(w.name))

	res, err := run(cfg)
	if err != nil {
		fail("%s: %v", w.name, err)
	}
	if cfg.traced {
		fmt.Printf("trace %s\n", res.tracePath)
	}
	final, err := sp.emit(cfg.traced, res)
	if err != nil {
		fail("%v", err)
	}
	for _, def := range sp.listed(cfg.traced) {
		fmt.Printf("%-32s %14.4f %s\n", def.Name, final.Metrics[def.Name].Value, def.Unit)
	}
	for _, d := range res.defects {
		fmt.Printf("defect %s\n", d)
	}
	line, _ := json.Marshal(final)
	fmt.Println(string(line))
	if res.failed > 0 {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// saved is what runSets writes and compare reads: per set, per workload,
// per metric, the values of the set's runs.
type saved struct {
	Stamp stamp                             `json:"stamp"`
	Sets  []map[string]map[string][]float64 `json:"sets"`
}

// runSets is the human form: for every workload, sets x 3 measured runs and
// one traced run, each in its own process so no run inherits another's
// heap, then the medians.
func runSets(sp *spec, seed int64, seconds float64, sets int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fail("%v", err)
	}
	child := func(workload string, traced int) (*result, error) {
		cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			return nil, fmt.Errorf("%s: %v (%v)", workload, jerr, err)
		}
		for _, l := range lines {
			if strings.HasPrefix(l, "defect ") {
				fmt.Println(workload, l)
			}
		}
		return &res, nil
	}
	file := saved{Stamp: newStamp(seed, seconds)}
	code := 0
	fmt.Printf("stamp %s\n", mustJSON(file.Stamp))
	for s := 0; s < sets; s++ {
		set := map[string]map[string][]float64{}
		for _, l := range sp.Workloads {
			fmt.Printf("\nset %d workload %s: %s\n", s+1, l.Name, l.Why)
			vals := map[string][]float64{}
			for r := 0; r < runsPerSet+1; r++ {
				res, err := child(l.Name, r/runsPerSet) // the last run is the traced one
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 2
				}
				if !res.Correct {
					code = 1
				}
				for name, v := range res.Metrics {
					vals[name] = append(vals[name], v.Value)
				}
				vals["failed_answers"] = append(vals["failed_answers"], float64(res.Failed))
			}
			set[l.Name] = vals
			for _, def := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
				fmt.Printf("%-32s %14.4f %-10s %v\n", def.Name, median(vals[def.Name]), def.Unit, vals[def.Name])
			}
		}
		file.Sets = append(file.Sets, set)
	}
	if err = os.MkdirAll(filepath.Dir(out), 0o755); err == nil {
		err = os.WriteFile(out, mustJSON(file), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("\nsaved %s\n", out)
	return code
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}
