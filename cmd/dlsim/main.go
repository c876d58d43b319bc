// Command dlsim runs one divisible load scheduling scenario on the
// simulated grid and prints the resulting schedule metrics:
//
//	dlsim -platform das2:16 -algorithm umr -gamma 0.1 -runs 10
//	dlsim -platform mixed:8,8 -algorithm all
//	dlsim -platform grail -algorithm rumr -r 13.5 -csv trace.csv
//
// Platforms: das2:N, meteor:N, mixed:N,M, grail. Algorithms: any name
// accepted by the scheduler registry, or "all" for the paper's set.
//
// Each algorithm's repetitions fan out across a bounded worker pool;
// -parallel N caps its width (0 = one worker per CPU). Runs are
// independently seeded and collected in run order, so the printed
// metrics are identical at every width.
package main

import (
	"flag"
	"fmt"
	"os"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/experiment"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/obs"
	"apstdv/internal/stats"
	"apstdv/internal/trace"
	"apstdv/internal/workload"
)

func main() {
	var (
		platformFlag = flag.String("platform", "das2:16", "platform: das2:N, meteor:N, mixed:N,M, grail")
		algFlag      = flag.String("algorithm", "all", "DLS algorithm, or 'all' for the paper's set")
		gamma        = flag.Float64("gamma", 0, "application uncertainty γ (0.1 = 10%)")
		ratio        = flag.Float64("r", 0, "override the communication/computation ratio (0 = workload default)")
		runs         = flag.Int("runs", 10, "repetitions to average")
		seed         = flag.Uint64("seed", 1, "base seed")
		probeLoad    = flag.Float64("probe", 200, "probe chunk size in load units")
		csvPath      = flag.String("csv", "", "write the last run's trace as CSV to this file")
		gantt        = flag.Bool("gantt", false, "print a per-worker timeline for each algorithm's last run")
		parWidth     = flag.Int("parallel", 0, "worker-pool width for the run fan-out (0 = one per CPU; output is identical at every width)")
		eventsPath   = flag.String("events", "", "write every run's scheduler event stream as JSONL to this file")
	)
	flag.Parse()

	platform, err := workload.ParsePlatform(*platformFlag)
	if err != nil {
		fatal(err)
	}
	var app *model.Application
	if *platformFlag == "grail" {
		app = workload.CaseStudy()
		app.Gamma = *gamma
		if *gamma == 0 {
			app.Gamma = 0.10
		}
	} else {
		app = workload.Synthetic(*gamma)
	}
	if *ratio > 0 {
		app = workload.SyntheticWithRatio(*ratio, *gamma, platform.Workers[0].Bandwidth)
	}

	var algs []dls.Algorithm
	if *algFlag == "all" {
		algs = dls.PaperSet()
	} else {
		a, err := dls.New(*algFlag)
		if err != nil {
			fatal(err)
		}
		algs = []dls.Algorithm{a}
	}

	var eventsFile *os.File
	var eventsJSONL *obs.JSONL
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		eventsFile = f
		eventsJSONL = obs.NewJSONL(f)
	}

	fmt.Printf("platform %s (%d workers), app %s, r=%.1f, %d runs\n\n",
		platform.Name, len(platform.Workers), app.Name, model.PlatformRatio(app, platform), *runs)
	fmt.Printf("%-12s %12s %10s %8s %8s\n", "algorithm", "makespan", "±95%ci", "chunks", "overlap")

	for ai := range algs {
		reports := make([]trace.Report, *runs)
		// Each run emits into its own buffer; the buffers are drained
		// sequentially in run order below, so the JSONL bytes are
		// identical at every -parallel width.
		var buffers []*obs.Buffer
		if eventsJSONL != nil {
			buffers = make([]*obs.Buffer, *runs)
			for i := range buffers {
				buffers[i] = obs.NewBuffer()
			}
		}
		var lastTrace *trace.Trace
		err := experiment.RunAll(*runs, *parWidth, func(run int, r *experiment.Run) {
			r.Platform, r.App = platform, app
			r.Algorithm = freshAlgorithm(*algFlag, ai)
			r.Grid = grid.Config{Seed: *seed + uint64(run)*7919}
			r.Engine = engine.Config{ProbeLoad: *probeLoad}
			if buffers != nil {
				r.Engine.Events = buffers[run]
			}
		}, func(run int, _ *experiment.Run, tr *trace.Trace, err error) error {
			if err != nil {
				return err
			}
			reports[run] = tr.BuildReport(len(platform.Workers))
			if run == *runs-1 {
				lastTrace = tr.Clone() // sole writer: only run runs-1 assigns
			}
			return nil
		})
		if err != nil {
			fatal(err)
		}
		if eventsJSONL != nil {
			algName := algs[ai].Name()
			for run, buf := range buffers {
				for _, ev := range buf.Events() {
					ev.Alg = algName
					ev.Run = run
					eventsJSONL.EmitPtr(&ev)
				}
			}
		}
		spans := make([]float64, 0, *runs)
		var chunks int
		var overlap float64
		for _, rep := range reports {
			spans = append(spans, rep.Makespan)
			chunks = rep.Chunks
			overlap = rep.Overlap
		}
		if *gantt && lastTrace != nil {
			fmt.Printf("\n%s timeline:\n", algs[ai].Name())
			if err := lastTrace.Gantt(os.Stdout, len(platform.Workers), 100); err != nil {
				fatal(err)
			}
		}
		if *csvPath != "" && ai == len(algs)-1 && lastTrace != nil {
			f, err := os.Create(*csvPath)
			if err != nil {
				fatal(err)
			}
			if err := lastTrace.WriteCSV(f); err != nil {
				fatal(err)
			}
			f.Close()
		}
		s := stats.Summarize(spans)
		fmt.Printf("%-12s %11.0fs %9.0fs %8d %7.0f%%\n", algs[ai].Name(), s.Mean, s.CI95(), chunks, 100*overlap)
	}
	if eventsJSONL != nil {
		if err := eventsJSONL.Flush(); err != nil {
			fatal(err)
		}
		if err := eventsFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nevents written to %s\n", *eventsPath)
	}
}

// freshAlgorithm returns a new instance for run isolation.
func freshAlgorithm(flagValue string, idx int) dls.Algorithm {
	if flagValue == "all" {
		return dls.PaperSet()[idx]
	}
	a, _ := dls.New(flagValue)
	return a
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dlsim: %v\n", err)
	os.Exit(1)
}
