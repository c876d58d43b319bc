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

// cli holds the flag values every experiment is configured from, and
// the figure results already produced, so `all` runs each figure once
// and the discussion averages reuse them.
type cli struct {
	runs      int
	seed      uint64
	width     int
	csvDir    string
	eventsDir string
	bars      bool
	derived   bool
	results   map[string]*experiment.Result
}

// experiments lists what -run accepts besides "all", in the order "all"
// prints them. Those outside "all" go beyond the paper's figures: the
// full algorithm library, and the fault, co-scheduling and
// redistribution layers its reliable one-load-at-a-time testbed never
// exercised.
var experiments = []struct {
	id    string
	inAll bool
	run   func(c *cli) error
}{
	{"table1", true, func(c *cli) error {
		fmt.Println(experiment.Table1().Render())
		return nil
	}},
	{"fig2", true, func(c *cli) error { return c.figure(experiment.Figure2()) }},
	{"fig3", true, func(c *cli) error { return c.figure(experiment.Figure3()) }},
	{"fig4", true, func(c *cli) error { return c.figure(experiment.Figure4()) }},
	{"casestudy", true, func(c *cli) error { return c.figure(experiment.CaseStudy()) }},
	{"discussion", true, func(c *cli) error {
		var figs []*experiment.Result
		for _, s := range []*experiment.Spec{experiment.Figure2(), experiment.Figure3(), experiment.Figure4()} {
			if err := c.figure(s); err != nil {
				return err
			}
			figs = append(figs, c.results[s.ID])
		}
		d := experiment.Discussion(figs)
		fmt.Println("§4.3 discussion averages across Figures 2-4 (slowdown vs best algorithm):")
		fmt.Printf("  SIMPLE-1: %+.1f%%   (paper: ~28%%)\n", d.AvgSimple1Pct)
		fmt.Printf("  SIMPLE-5: %+.1f%%   (paper: ~18%%)\n", d.AvgSimple5Pct)
		fmt.Printf("  UMR under uncertainty: %+.1f%%   (paper: ~17%%)\n", d.AvgUMRPct)
		fmt.Println()
		return nil
	}},
	{"sweep", true, func(c *cli) error {
		rs := experiment.DefaultRobustnessSweep()
		rs.Runs, rs.Parallelism = c.runs, c.width
		cells, err := rs.Run()
		return printed(experiment.RenderSweep(cells), err)
	}},
	{"extended", false, func(c *cli) error { return c.figure(experiment.Extended()) }},
	{"failures", false, func(c *cli) error {
		fs := experiment.DefaultFailureSweep()
		fs.Runs, fs.Parallelism = c.runs, c.width
		if c.seed != 0 {
			fs.Seed = c.seed
		}
		cells, err := fs.Run()
		return printed(experiment.RenderFailures(cells), err)
	}},
	{"multijob", false, func(c *cli) error {
		cells, err := experiment.DefaultMultiJobSweep().Run()
		return printed(experiment.RenderMultiJob(cells), err)
	}},
	{"redistrib", false, func(c *cli) error {
		rs := experiment.DefaultRedistributionSweep()
		rs.Runs, rs.Parallelism = c.runs, c.width
		if c.seed != 0 {
			rs.Seed = c.seed
		}
		cells, err := rs.Run()
		return printed(experiment.RenderRedistribution(cells), err)
	}},
}

// printed prints a sweep's table unless the sweep failed.
func printed(table string, err error) error {
	if err == nil {
		fmt.Println(table)
	}
	return err
}

// figure runs one engine-driven experiment with every flag applied and
// prints it; one already run is not run again.
func (c *cli) figure(spec *experiment.Spec) error {
	if c.results[spec.ID] != nil {
		return nil
	}
	spec.Runs = c.runs
	spec.Parallelism = c.width
	spec.EventsDir = c.eventsDir
	if c.seed != 0 {
		spec.Seed = c.seed
	}
	res, err := spec.Run()
	if err != nil {
		return err
	}
	c.results[spec.ID] = res
	fmt.Println(res.Table())
	if c.derived {
		fmt.Println(res.Derived())
	}
	if c.bars {
		fmt.Println(res.Bars(50))
	}
	if c.csvDir != "" {
		path := c.csvDir + "/" + spec.ID + ".csv"
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := res.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("(plot data written to %s)\n\n", path)
	}
	return nil
}

func main() {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.id)
	}
	c := &cli{results: map[string]*experiment.Result{}}
	run := flag.String("run", "all", "experiment to run: "+strings.Join(names, ", "))
	flag.IntVar(&c.runs, "runs", 10, "repetitions per (algorithm, γ) cell (paper: 10)")
	flag.Uint64Var(&c.seed, "seed", 0, "base seed override (0 = experiment default)")
	flag.StringVar(&c.csvDir, "csvdir", "", "also write per-experiment plot data CSVs into this directory")
	flag.BoolVar(&c.bars, "bars", false, "also render each figure as bar charts (like the paper's figures)")
	flag.IntVar(&c.width, "parallel", 0, "worker-pool width for the run fan-out (0 = one per CPU; output is identical at every width)")
	flag.StringVar(&c.eventsDir, "events-dir", "", "dump every run's scheduler event stream as JSONL into this directory")
	flag.BoolVar(&c.derived, "derived", false, "also print the derived-metrics table (uplink utilization, worker idle fraction, measured γ)")
	flag.Parse()

	want := strings.ToLower(*run)
	known := false
	for _, name := range names {
		known = known || name == want
	}
	if !known {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (want %s)\n", *run, strings.Join(names, ", "))
		os.Exit(2)
	}

	var err error
	if c.eventsDir != "" {
		err = os.MkdirAll(c.eventsDir, 0o755)
	}
	for _, e := range experiments {
		if err == nil && (want == e.id || want == "all" && e.inAll) {
			err = e.run(c)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
