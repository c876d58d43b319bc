package experiment

import (
	"fmt"

	"apstdv/internal/grid"
	"apstdv/internal/obs"
	"apstdv/internal/stats"
	"apstdv/internal/trace"
)

// crashGrid is the protocol the failure and redistribution sweeps
// share. It runs in two passes. A crash-free baseline per group first
// establishes the group's mean makespan; every cell of the grid then
// replays its runs with crashes injected uniformly inside [15%, 60%] of
// its group's baseline — late enough that load is in flight, early
// enough that the survivors still have real work to redistribute.
//
// Run k of every cell uses backend seed seed+k·1000003, and its fault
// plan depends only on (crash probability, k), so the variants of a
// group at one probability replay identical crashes and differ in
// nothing but what describe made of them.
type crashGrid struct {
	what   string   // names the sweep in errors
	groups []string // one baseline per group
	probs  []float64
	cells  []crashCell
	runs   int
	seed   uint64
	width  int
	// describe fills in the platform, application, algorithm and retry
	// policy of a run of the given group and variant; the protocol adds
	// the seeds, the fault plan and the instrumentation. Baselines run
	// variant 0. The variants of a group run on platforms of one size,
	// since they share the group's plans (see plans).
	describe func(group, variant int, r *Run)
}

// crashCell is one cell of the grid: a variant of a group at one crash
// probability (an index into probs).
type crashCell struct {
	group, variant, prob int
}

// crashStats aggregates one cell's runs.
type crashStats struct {
	// spans holds the makespans of the runs that completed.
	spans []float64
	// The means count every run, failed ones included.
	lost, retries, timeouts, redistributed float64
	// failed counts runs that could not complete (every worker lost, or
	// a chunk past its attempt bound).
	failed int
}

// crashRun is one simulation's outcome; the run's event sink counts
// its faults straight into it.
type crashRun struct {
	makespan float64
	faultCounter
	failed bool
}

// faultCounter counts a run's fault-path events off the engine's event
// stream; emission is observational, so counting never perturbs the
// schedule.
type faultCounter struct {
	lost, retries, timeouts, redistributed float64
}

// EmitPtr implements obs.Sink.
func (f *faultCounter) EmitPtr(ev *obs.Event) {
	switch ev.Type {
	case obs.WorkerLost:
		f.lost++
	case obs.ChunkRetry:
		f.retries++
	case obs.ChunkTimeout:
		f.timeouts++
	case obs.ChunkRedistributed:
		f.redistributed++
	}
}

// pass executes runs-per-cell runs of every cell, with faults timed
// against baseline (nil for the crash-free pass).
func (g *crashGrid) pass(cells []crashCell, baseline []float64) ([]crashRun, error) {
	plans, err := g.plans(cells, baseline)
	if err != nil {
		return nil, err
	}
	out := make([]crashRun, len(cells)*g.runs)
	err = RunAll(len(out), g.width, func(idx int, r *Run) {
		c, run := cells[idx/g.runs], idx%g.runs
		g.describe(c.group, c.variant, r)
		r.Grid = grid.Config{Seed: g.seed + uint64(run)*1000003}
		if plans != nil {
			r.Grid.Faults = plans[(c.group*len(g.probs)+c.prob)*g.runs+run]
		}
		r.Engine.ProbeLoad = sectionFourProbeLoad
		r.Engine.Events = &out[idx].faultCounter
	}, func(idx int, r *Run, tr *trace.Trace, err error) error {
		o := &out[idx]
		if err != nil {
			// A run that cannot complete is a data point, not a sweep abort.
			o.failed = true
			return nil
		}
		o.makespan = tr.Makespan()
		return nil
	})
	return out, err
}

// plans draws the crash plan of every (group, probability, run), timed
// against baseline, in that order; nil for the crash-free pass. A
// group's variants share each plan, which is compiled on its first run
// (see grid.FaultPlan), so it is drawn for the size of the group's
// platform, and a cell whose variant runs on another size is an error.
func (g *crashGrid) plans(cells []crashCell, baseline []float64) ([]*grid.FaultPlan, error) {
	if baseline == nil {
		return nil, nil
	}
	workers := make([]int, len(g.groups))
	for gi := range g.groups {
		var r Run
		g.describe(gi, 0, &r)
		workers[gi] = len(r.Platform.Workers)
	}
	for _, c := range cells {
		var r Run
		if g.describe(c.group, c.variant, &r); len(r.Platform.Workers) != workers[c.group] {
			return nil, fmt.Errorf("%s: variant %d of %s runs on %d workers, variant 0 on %d; a group's variants must share a platform size",
				g.what, c.variant, g.groups[c.group], len(r.Platform.Workers), workers[c.group])
		}
	}
	plans := make([]*grid.FaultPlan, 0, len(g.groups)*len(g.probs)*g.runs)
	for gi := range g.groups {
		for pi, prob := range g.probs {
			for run := 0; run < g.runs; run++ {
				faultSeed := g.seed + uint64(pi)*999983 + uint64(run)*7919
				plans = append(plans, grid.RandomCrashPlan(faultSeed, workers[gi],
					prob, 0.15*baseline[gi], 0.60*baseline[gi]))
			}
		}
	}
	return plans, nil
}

// run executes both passes and returns each group's baseline and each
// cell's aggregate, in the order of g.cells.
func (g *crashGrid) run() ([]float64, []crashStats, error) {
	base := make([]crashCell, len(g.groups))
	for gi := range base {
		base[gi] = crashCell{group: gi}
	}
	baseRuns, err := g.pass(base, nil)
	if err != nil {
		return nil, nil, err
	}
	baseline := make([]float64, len(g.groups))
	for gi, name := range g.groups {
		spans := summarizeCrashRuns(baseRuns[gi*g.runs : (gi+1)*g.runs]).spans
		if len(spans) == 0 {
			return nil, nil, fmt.Errorf("%s: %s baseline produced no completed runs", g.what, name)
		}
		baseline[gi] = stats.Mean(spans)
	}

	runs, err := g.pass(g.cells, baseline)
	if err != nil {
		return nil, nil, err
	}
	cells := make([]crashStats, len(g.cells))
	for ci := range cells {
		cells[ci] = summarizeCrashRuns(runs[ci*g.runs : (ci+1)*g.runs])
	}
	return baseline, cells, nil
}

func summarizeCrashRuns(runs []crashRun) crashStats {
	cs := crashStats{spans: make([]float64, 0, len(runs))}
	var lost, retries, timeouts, redist stats.RunningStats
	for _, r := range runs {
		lost.Add(r.lost)
		retries.Add(r.retries)
		timeouts.Add(r.timeouts)
		redist.Add(r.redistributed)
		if r.failed {
			cs.failed++
			continue
		}
		cs.spans = append(cs.spans, r.makespan)
	}
	cs.lost, cs.retries, cs.timeouts, cs.redistributed = lost.Mean(), retries.Mean(), timeouts.Mean(), redist.Mean()
	return cs
}
