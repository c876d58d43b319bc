package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"apstdv/internal/stats"
)

// selfDiff is one metric on one workload, A against A.
type selfDiff struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	Unit     string `json:"unit"`
	// A and B are each side's median over selfcheckRounds runs.
	A float64 `json:"a"`
	B float64 `json:"b"`
	// WorsePct is how much worse B is than A in the metric's own
	// direction, in percent of A; negative means B is better.
	WorsePct float64 `json:"worse_pct"`
	BoundPct float64 `json:"bound_pct"`
	Verdict  string  `json:"verdict"`
}

// worsePct is how much worse b is than a, in percent of a.
func worsePct(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a) * 100
	if better == "higher" {
		d = -d
	}
	return d
}

// selfcheckRounds is how many runs stand behind each side of the
// comparison. On this box two single runs of one commit can differ by
// more than a quarter (sim_paper cpu_us_per_op: +28% measured), and so
// did the medians of three once in four tries (sim_fault_tree, through a
// slow stretch of the host two runs long); medians of five are what the
// sides compare.
const selfcheckRounds = 5

// runSelfcheck measures the whole set of workloads selfcheckRounds times
// for side A and as often for side B with the same code, in alternating
// order and each run in a process of its own, and holds the difference
// of the sides' medians against each end-to-end metric's bound: a
// benchmark whose A/A difference exceeds a bound cannot tell signal from
// noise at that bound.
func runSelfcheck(seed uint64, seconds float64) (int, error) {
	names := workloadNames()
	type side map[string]map[string][]float64 // workload, metric, one value per round
	a, b := side{}, side{}
	wrong := map[string]bool{}
	for round := 0; round < 2*selfcheckRounds; round++ {
		into := a
		if round%2 == 1 {
			into = b
		}
		for i := range names {
			w := names[i]
			if round%4 >= 2 { // forward, forward, reverse, reverse: each side sees both orders
				w = names[len(names)-1-i]
			}
			r, err := runIsolated(w, seed, seconds, false)
			if err != nil {
				return 1, err
			}
			if !r.Correct {
				wrong[w] = true
			}
			if into[w] == nil {
				into[w] = map[string][]float64{}
			}
			for _, d := range e2eDefs {
				into[w][d.Name] = append(into[w][d.Name], r.E2E[d.Name].Value)
			}
		}
	}
	code := 0
	var diffs []selfDiff
	for _, w := range names {
		if wrong[w] {
			fmt.Printf("%-20s output check failed\n", w)
			code = 1
		}
		for _, d := range e2eDefs {
			va, vb := stats.Median(a[w][d.Name]), stats.Median(b[w][d.Name])
			sd := selfDiff{
				Workload: w, Metric: d.Name, Unit: d.Unit, A: va, B: vb,
				WorsePct: worsePct(va, vb, d.Better), BoundPct: d.Bound * 100, Verdict: "noise",
			}
			// Either order of the two runs must stay inside the bound.
			if math.Abs(sd.WorsePct) > sd.BoundPct {
				sd.Verdict = "signal"
				code = 1
			}
			diffs = append(diffs, sd)
			fmt.Printf("%-20s %-16s %14.6g %14.6g %-6s %+7.2f%% of bound %5.1f%%  %s\n",
				w, d.Name, va, vb, d.Unit, sd.WorsePct, sd.BoundPct, sd.Verdict)
		}
	}
	if err := os.MkdirAll(outDirectory(), 0o755); err != nil {
		return 1, err
	}
	doc, err := json.MarshalIndent(diffs, "", " ")
	if err != nil {
		return 1, err
	}
	path := filepath.Join(outDirectory(), "selfcheck.json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return 1, err
	}
	fmt.Printf("A/A differences written to %s\n", path)
	return code, nil
}
