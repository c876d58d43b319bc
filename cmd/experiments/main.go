// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulated testbed:
//
//	experiments -run all
//	experiments -run table1
//	experiments -run fig2 -runs 20
//	experiments -run casestudy
//	experiments -run discussion
//	experiments -run all -parallel 1
//
// Output is one text table per experiment, in the layout of the paper's
// figures, with the paper's reported relationships noted alongside.
//
// The (algorithm, γ, run) cells fan out across a bounded worker pool;
// -parallel N caps its width (default: one worker per CPU). Every run is
// independently seeded and aggregation is order-stable, so the output is
// byte-identical at every width — -parallel only changes wall time.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"apstdv/internal/experiment"
)

func main() {
	var (
		run       = flag.String("run", "all", "experiment to run: all, table1, fig2, fig3, fig4, casestudy, discussion, sweep, extended, failures, multijob, redistrib")
		runs      = flag.Int("runs", 10, "repetitions per (algorithm, γ) cell (paper: 10)")
		seed      = flag.Uint64("seed", 0, "base seed override (0 = experiment default)")
		csvDir    = flag.String("csvdir", "", "also write per-experiment plot data CSVs into this directory")
		bars      = flag.Bool("bars", false, "also render each figure as bar charts (like the paper's figures)")
		parWidth  = flag.Int("parallel", 0, "worker-pool width for the run fan-out (0 = one per CPU; output is identical at every width)")
		eventsDir = flag.String("events-dir", "", "dump every run's scheduler event stream as JSONL into this directory")
		derived   = flag.Bool("derived", false, "also print the derived-metrics table (uplink utilization, worker idle fraction, measured γ)")
	)
	flag.Parse()

	if *eventsDir != "" {
		if err := os.MkdirAll(*eventsDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}

	want := strings.ToLower(*run)
	ran := false
	var figResults []*experiment.Result

	if want == "all" || want == "table1" {
		fmt.Println(experiment.Table1().Render())
		ran = true
	}

	for _, spec := range experiment.All() {
		if want != "all" && want != spec.ID && !(want == "discussion" && strings.HasPrefix(spec.ID, "fig")) {
			continue
		}
		spec.Runs = *runs
		spec.Parallelism = *parWidth
		spec.EventsDir = *eventsDir
		if *seed != 0 {
			spec.Seed = *seed
		}
		res, err := spec.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res.Table())
		if *derived {
			fmt.Println(res.Derived())
		}
		if *bars {
			fmt.Println(res.Bars(50))
		}
		if *csvDir != "" {
			path := *csvDir + "/" + spec.ID + ".csv"
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			if err := res.WriteCSV(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("(plot data written to %s)\n\n", path)
		}
		if strings.HasPrefix(spec.ID, "fig") {
			figResults = append(figResults, res)
		}
		ran = true
	}

	if (want == "all" || want == "discussion") && len(figResults) == 3 {
		d := experiment.Discussion(figResults)
		fmt.Println("§4.3 discussion averages across Figures 2-4 (slowdown vs best algorithm):")
		fmt.Printf("  SIMPLE-1: %+.1f%%   (paper: ~28%%)\n", d.AvgSimple1Pct)
		fmt.Printf("  SIMPLE-5: %+.1f%%   (paper: ~18%%)\n", d.AvgSimple5Pct)
		fmt.Printf("  UMR under uncertainty: %+.1f%%   (paper: ~17%%)\n", d.AvgUMRPct)
		fmt.Println()
		ran = true
	}

	if want == "extended" {
		spec := experiment.Extended()
		spec.Runs = *runs
		spec.Parallelism = *parWidth
		res, err := spec.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res.Table())
		ran = true
	}

	if want == "all" || want == "sweep" {
		rs := experiment.DefaultRobustnessSweep()
		rs.Runs = *runs
		rs.Parallelism = *parWidth
		cells, err := rs.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(experiment.RenderSweep(cells))
		ran = true
	}

	if want == "failures" {
		fs := experiment.DefaultFailureSweep()
		fs.Runs = *runs
		fs.Parallelism = *parWidth
		if *seed != 0 {
			fs.Seed = *seed
		}
		cells, err := fs.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(experiment.RenderFailures(cells))
		ran = true
	}

	// The multi-job sweep is explicit-only (not part of "all"): it
	// measures the co-scheduling layer (beyond the paper's
	// one-load-at-a-time scope) rather than reproducing a figure.
	if want == "multijob" {
		cells, err := experiment.DefaultMultiJobSweep().Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(experiment.RenderMultiJob(cells))
		ran = true
	}

	// The redistribution sweep is explicit-only as well: it compares the
	// engine's two retry paths (master re-staging vs worker-to-worker
	// redistribution) on the star and tree topologies, beyond the paper's
	// reliable-testbed scope.
	if want == "redistrib" {
		rs := experiment.DefaultRedistributionSweep()
		rs.Runs = *runs
		rs.Parallelism = *parWidth
		if *seed != 0 {
			rs.Seed = *seed
		}
		cells, err := rs.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(experiment.RenderRedistribution(cells))
		ran = true
	}

	if !ran {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (want all, table1, fig2, fig3, fig4, casestudy, discussion, sweep, extended, failures, multijob, redistrib)\n", *run)
		os.Exit(2)
	}
}
