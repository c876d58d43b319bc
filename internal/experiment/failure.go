package experiment

import (
	"fmt"
	"strings"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/model"
	"apstdv/internal/stats"
	"apstdv/internal/workload"
)

// FailureSweep measures how each algorithm degrades when workers crash
// mid-run. The paper's testbed was reliable, but its §6 future work
// calls out fault-tolerance as the missing piece for production grids;
// this sweep exercises the engine's chunk-lifecycle retry layer at
// increasing crash probabilities and reports the makespan penalty paid
// for surviving.
//
// Crashes are timed against each algorithm's own crash-free baseline
// (see crashGrid).
type FailureSweep struct {
	Platform   *model.Platform
	App        func(gamma float64) *model.Application
	Gamma      float64
	CrashProbs []float64 // per-worker crash probability, 0 = baseline
	Runs       int
	Seed       uint64
	// Parallelism bounds the worker pool fanning the (algorithm, prob,
	// run) cells; <= 0 means one worker per CPU. Fault plans are seeded
	// independently of the backend's stochastic streams, so results are
	// identical at every width.
	Parallelism int
}

// DefaultFailureSweep exercises the paper's DAS-2 testbed under light to
// heavy crash rates.
func DefaultFailureSweep() *FailureSweep {
	return &FailureSweep{
		Platform:   workload.DAS2(16),
		App:        workload.Synthetic,
		Gamma:      0.10,
		CrashProbs: []float64{0, 0.125, 0.25, 0.5},
		Runs:       3,
		Seed:       17,
	}
}

// FailureCell aggregates one (algorithm, crash probability) pair.
type FailureCell struct {
	Algorithm string
	CrashProb float64
	// Summary aggregates the makespans of the runs that completed.
	Summary stats.Summary
	// DegradationPct is the mean makespan penalty versus the same
	// algorithm's crash-free baseline.
	DegradationPct float64
	// MeanWorkersLost, MeanRetries and MeanTimeouts average the fault
	// events per run.
	MeanWorkersLost float64
	MeanRetries     float64
	MeanTimeouts    float64
	// Failed counts runs that could not complete (every worker lost).
	Failed int
}

// Run executes the sweep as a crashGrid: the algorithms are the groups,
// so each algorithm's crashes are timed against its own crash-free
// baseline, and the cells are (crash probability, algorithm).
func (fs *FailureSweep) Run() ([]FailureCell, error) {
	if fs.Runs <= 0 {
		fs.Runs = 3
	}
	proto := dls.PaperSet()
	g := &crashGrid{
		what:  "failure sweep",
		probs: fs.CrashProbs,
		runs:  fs.Runs, seed: fs.Seed, width: fs.Parallelism,
		describe: func(ai, _ int, r *Run) {
			r.Platform = fs.Platform
			r.App = fs.App(fs.Gamma)
			r.Algorithm = dls.PaperSet()[ai]
			r.Engine.Retry = &engine.RetryPolicy{}
		},
	}
	for _, a := range proto {
		g.groups = append(g.groups, a.Name())
	}
	for pi := range fs.CrashProbs {
		for ai := range proto {
			g.cells = append(g.cells, crashCell{group: ai, prob: pi})
		}
	}
	baseline, agg, err := g.run()
	if err != nil {
		return nil, err
	}

	cells := make([]FailureCell, len(agg))
	for i, cs := range agg {
		c := g.cells[i]
		cell := FailureCell{
			Algorithm:       g.groups[c.group],
			CrashProb:       fs.CrashProbs[c.prob],
			MeanWorkersLost: cs.lost,
			MeanRetries:     cs.retries,
			MeanTimeouts:    cs.timeouts,
			Failed:          cs.failed,
		}
		if len(cs.spans) > 0 {
			cell.Summary = stats.Summarize(cs.spans)
			cell.DegradationPct = stats.SlowdownPct(cell.Summary.Mean, baseline[c.group])
		}
		cells[i] = cell
	}
	return cells, nil
}

// RenderFailures formats failure-sweep cells as a table.
func RenderFailures(cells []FailureCell) string {
	var b strings.Builder
	b.WriteString("failure sweep — makespan degradation under worker crashes (retry layer on)\n")
	fmt.Fprintf(&b, "%7s %-14s %12s %10s %8s %8s %9s %7s\n",
		"crash", "algorithm", "makespan", "vs base", "lost", "retries", "timeouts", "failed")
	for _, c := range cells {
		span := "-"
		degr := "-"
		if c.Summary.N > 0 {
			span = fmt.Sprintf("%.0fs", c.Summary.Mean)
			degr = fmt.Sprintf("%+.1f%%", c.DegradationPct)
		}
		fmt.Fprintf(&b, "%6.1f%% %-14s %12s %10s %8.1f %8.1f %9.1f %7d\n",
			c.CrashProb*100, c.Algorithm, span, degr,
			c.MeanWorkersLost, c.MeanRetries, c.MeanTimeouts, c.Failed)
	}
	return b.String()
}
