// Command bench is the repository's one benchmark for both of its paths:
// the simulated run (dls, engine, grid, sim) and the served job (client,
// transport, daemon, engine). See README.md for the metric definitions
// and BENCHMARK.json at the repository root for the driver's contract.
//
//	bash bench/run.sh                                   all workloads, untraced then traced
//	bash bench/run.sh --workload sim_paper --trace 0    one run, end-to-end metrics
//	bash bench/run.sh --workload sim_paper --trace 1    one run, per-layer metrics
//	bash bench/run.sh --selfcheck                       A against A, five runs of the whole set a side
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

//go:embed golden.json
var goldenJSON []byte

// runContext is recorded with every result, so that a number is never
// read without the machine it came from.
type runContext struct {
	Cores           int    `json:"cores"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	ChildGOMAXPROCS int    `json:"child_gomaxprocs,omitempty"`
	GoVersion       string `json:"go_version"`
	Commit          string `json:"commit"`
}

func currentContext() runContext {
	c := runContext{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				c.Commit = s.Value
			}
		}
	}
	return c
}

// result is one run of one workload.
type result struct {
	Workload  string     `json:"workload"`
	Seed      uint64     `json:"seed"`
	Traced    bool       `json:"traced"`
	Correct   bool       `json:"correct"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Digest    string     `json:"digest"`
	Context   runContext `json:"context"`
	// E2E holds the end-to-end metrics (untraced runs), Layer the
	// per-layer metrics of BENCHMARK.json (traced runs), Info whatever
	// else the run learned: serving-only layer numbers and context.
	E2E   map[string]measured `json:"end_to_end,omitempty"`
	Layer map[string]measured `json:"per_layer,omitempty"`
	Info  map[string]measured `json:"info,omitempty"`
	Notes []string            `json:"notes,omitempty"`
}

func newResult(workload string, seed uint64, traced bool) *result {
	return &result{
		Workload: workload, Seed: seed, Traced: traced, Context: currentContext(),
		E2E: map[string]measured{}, Layer: map[string]measured{}, Info: map[string]measured{},
	}
}

// judge sets Correct: no failed operation, every contract metric
// present, and at seed 1 the golden digest.
func (r *result) judge() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	if r.Seed == 1 {
		var golden map[string]string
		if err := json.Unmarshal(goldenJSON, &golden); err != nil {
			r.fail("golden.json: " + err.Error())
		} else if golden[r.Workload] != r.Digest {
			r.fail(fmt.Sprintf("digest %s differs from golden %s", r.Digest, golden[r.Workload]))
		}
	}
	names, have := e2eNames(), r.E2E
	if r.Traced {
		names, have = layerNames(), r.Layer
	}
	for _, n := range names {
		if _, ok := have[n]; !ok {
			r.fail("metric " + n + " was not measured")
		}
	}
}

// fail marks the whole run wrong: a digest that differs cannot be
// pinned on single operations.
func (r *result) fail(why string) {
	r.Correct = false
	r.Failed = r.Attempted
	r.Notes = append(r.Notes, "FAILED: "+why)
}

// contractLine is the driver's last line of standard output.
func (r *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names, src := e2eNames(), r.E2E
	if r.Traced {
		names, src = layerNames(), r.Layer
	}
	// Exactly the metrics BENCHMARK.json names, no others.
	ms := make(map[string]mv, len(names))
	for _, n := range names {
		if v, ok := src[n]; ok {
			ms[n] = mv{v.Value, v.Unit}
		}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, attempted, r.Failed, ms})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(line)
}

// print writes the run for a person: every metric by name with its
// unit, and for the end-to-end ones the noise floor.
func (r *result) print() {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	verdict := "ok"
	if !r.Correct {
		verdict = "WRONG"
	}
	fmt.Printf("== %s  seed %d  %s  %s  attempted %d failed %d (failed_share %.4f)\n",
		r.Workload, r.Seed, mode, verdict, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	fmt.Printf("   cores %d GOMAXPROCS %d child GOMAXPROCS %d %s commit %s\n",
		r.Context.Cores, r.Context.GOMAXPROCS, r.Context.ChildGOMAXPROCS, r.Context.GoVersion, r.Context.Commit)
	section := func(title string, m map[string]measured, order []string) {
		if len(m) == 0 {
			return
		}
		fmt.Printf("   %s\n", title)
		seen := map[string]bool{}
		var rest []string
		for _, n := range order {
			seen[n] = true
		}
		for n := range m {
			if !seen[n] {
				rest = append(rest, n)
			}
		}
		sort.Strings(rest)
		for _, n := range append(append([]string{}, order...), rest...) {
			v, ok := m[n]
			if !ok {
				continue
			}
			line := fmt.Sprintf("     %-36s %14.6g %-8s", n, v.Value, v.Unit)
			if v.N > 0 {
				line += fmt.Sprintf("  min %.6g  median %.6g  max %.6g  (n=%d)", v.Min, v.Median, v.Max, v.N)
			}
			fmt.Println(strings.TrimRight(line, " "))
		}
	}
	section("end-to-end", r.E2E, e2eNames())
	section("per-layer", r.Layer, layerNames())
	section("also measured", r.Info, nil)
	for _, n := range r.Notes {
		fmt.Printf("   note: %s\n", n)
	}
}

// runOne measures one workload in one mode.
func runOne(workload string, seed uint64, seconds float64, traced bool, outDir string) (*result, error) {
	var r *result
	var err error
	_, sim := simWorkloads[workload]
	_, serve := serveDefs[workload]
	switch {
	case sim && traced:
		r, err = traceSim(workload, seed, seconds, outDir)
	case sim:
		r, err = measureSim(workload, seed, seconds)
	case serve && traced:
		r, err = traceServe(workload, seed, seconds, outDir)
	case serve:
		r, err = measureServe(workload, seed, seconds)
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %s)", workload, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	r.judge()
	return r, nil
}

// outDirectory is bench/out beside the sources: run.sh runs the binary
// from the repository root.
func outDirectory() string { return filepath.Join("bench", "out") }

func main() {
	if os.Getenv(childEnv) != "" {
		if err := childMain(); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload  = flag.String("workload", "", "one workload by name; empty runs all six, untraced then traced")
		seed      = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 10, "measured time per run")
		trace     = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		asJSON    = flag.Bool("json", false, "print the full results as one JSON document instead of text")
		selfcheck = flag.Bool("selfcheck", false, "run every workload five times a side, A against A, and compare the medians against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *seed == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seed must be at least 1, -seconds positive, -trace 0 or 1")
		os.Exit(2)
	}
	code, err := run(*workload, *seed, *seconds, *trace == 1, *asJSON, *selfcheck)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// runIsolated measures one workload in a process of its own, as the
// driver does: the resident size, the heap and the collector's pacing of
// one workload must not carry over into the next.
func runIsolated(workload string, seed uint64, seconds float64, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace, "--json")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	// A run whose output check failed exits 1 and still prints its result.
	var results []*result
	if derr := json.NewDecoder(bytes.NewReader(out)).Decode(&results); derr != nil || len(results) != 1 {
		if err == nil {
			err = fmt.Errorf("unreadable result: %v", derr)
		}
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return results[0], nil
}

func run(workload string, seed uint64, seconds float64, traced, asJSON, selfcheck bool) (int, error) {
	if selfcheck {
		return runSelfcheck(seed, seconds)
	}
	var results []*result
	if workload != "" {
		r, err := runOne(workload, seed, seconds, traced, outDirectory())
		if err != nil {
			return 1, err
		}
		results = append(results, r)
	} else {
		for _, tr := range []bool{false, true} {
			for _, w := range workloadNames() {
				r, err := runIsolated(w, seed, seconds, tr)
				if err != nil {
					return 1, err
				}
				if !asJSON {
					r.print()
				}
				results = append(results, r)
			}
		}
	}
	code := 0
	for _, r := range results {
		if !r.Correct {
			code = 1
		}
	}
	switch {
	case asJSON:
		doc, err := json.MarshalIndent(results, "", " ")
		if err != nil {
			return 1, err
		}
		fmt.Println(string(doc))
	case workload != "":
		results[0].print()
	}
	if workload != "" {
		// The driver reads the last line of standard output.
		fmt.Println(results[0].contractLine())
	}
	return code, nil
}
