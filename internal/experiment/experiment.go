// Package experiment defines and runs the paper's evaluation: every
// figure and table of §2.1, §4 and §5 has a Spec here that regenerates
// its rows — same platforms, same applications, same γ values, averaged
// over the same number of runs (10).
package experiment

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/obs"
	"apstdv/internal/parallel"
	"apstdv/internal/stats"
	"apstdv/internal/trace"
)

// Spec describes one experiment: a platform, an application family
// parameterized by γ, a set of algorithms, and run parameters.
type Spec struct {
	ID    string
	Title string
	// Platform under test.
	Platform *model.Platform
	// App builds the application for a given γ.
	App func(gamma float64) *model.Application
	// Gammas lists the uncertainty levels to evaluate (the paper uses
	// 0 and 0.10 for §4, platform-induced ~0.20 for §5).
	Gammas []float64
	// Algorithms returns fresh algorithm instances for one run.
	Algorithms func() []dls.Algorithm
	// Runs is the number of repetitions per (algorithm, γ) cell; the
	// paper averages over 10 distinct runs.
	Runs int
	// ProbeLoad is the probe chunk size in load units.
	ProbeLoad float64
	// Seed is the base seed; run k uses Seed+k.
	Seed uint64
	// GridConfig customizes the backend beyond the seed (ablations).
	GridConfig func(seed uint64) grid.Config
	// EngineConfig customizes the engine (ablations).
	EngineConfig func() engine.Config
	// Parallelism bounds the worker pool that fans the (γ, algorithm,
	// run) cells across cores; <= 0 means one worker per CPU. Results
	// are identical at every width: each run is an independently seeded
	// simulation and aggregation happens in deterministic order.
	Parallelism int
	// EventsDir, when non-empty, makes every run dump its scheduler
	// event stream as JSONL into this directory, one file per run named
	// <ID>-g<γ>-<algorithm>-run<k>.jsonl. Each run writes only its own
	// file, so the dumps are byte-identical at every Parallelism width.
	EventsDir string
}

// Cell is the aggregated result for one (algorithm, γ) pair.
type Cell struct {
	Algorithm string
	Gamma     float64
	Summary   stats.Summary
	// SlowdownPct is the paper's headline metric: how much slower than
	// the best algorithm at the same γ, in percent.
	SlowdownPct float64
	// MeasuredGamma is the observed CV of normalized per-unit compute
	// times across the run's chunks (how the paper "measures" γ).
	MeasuredGamma float64
	// RUMRSwitched counts runs in which RUMR entered its factoring phase
	// (only meaningful for the rumr row) — the paper's key diagnostic.
	RUMRSwitched int
	// UplinkUtil is the mean fraction of the makespan the master uplink
	// was busy; the single-port model makes it the contention ceiling.
	UplinkUtil float64
	// IdleFraction is the mean fraction of the makespan an average
	// worker spent NOT computing (1 − mean worker utilization).
	IdleFraction float64
	// Makespans holds the per-run values behind Summary.
	Makespans []float64
}

// Result is a completed experiment.
type Result struct {
	Spec  *Spec
	Cells []Cell
}

// runScratch is one pool slot's reusable simulation state: the grid
// backend and engine arena are built on the slot's first run and reset
// in place for every later one, so a long experiment allocates heavy
// state once per pool slot instead of once per run. Reuse is invisible
// in the results — Reset re-derives every backend stream and queue from
// (app, config) exactly as construction would, and the engine arena
// fences all cross-run state by epoch.
type runScratch struct {
	backend *grid.Backend
	arena   *engine.Arena
}

// gridBackend returns the slot's backend, constructing it on first use
// (fixing the platform) and resetting it in place afterwards.
func (sc *runScratch) gridBackend(p *model.Platform, app *model.Application, cfg grid.Config) (*grid.Backend, error) {
	if sc.backend == nil {
		b, err := grid.New(p, app, cfg)
		if err != nil {
			return nil, err
		}
		sc.backend = b
		return b, nil
	}
	if err := sc.backend.Reset(app, cfg); err != nil {
		return nil, err
	}
	return sc.backend, nil
}

// engineArena returns the slot's engine workspace, creating it on first
// use.
func (sc *runScratch) engineArena() *engine.Arena {
	if sc.arena == nil {
		sc.arena = engine.NewArena()
	}
	return sc.arena
}

// runResult is one simulation's outputs, collected into a slot of a
// preallocated slice so parallel execution aggregates identically to
// sequential.
type runResult struct {
	makespan      float64
	measuredGamma float64
	rumrSwitched  bool
	uplinkUtil    float64
	idleFraction  float64
}

// Run executes the experiment: every (γ, algorithm, run) triple is an
// independently seeded simulation, fanned across a bounded worker pool
// (Parallelism wide) and aggregated in deterministic (γ, algorithm,
// run) order, so the result is identical at every pool width.
func (s *Spec) Run() (*Result, error) {
	if s.Runs <= 0 {
		s.Runs = 10
	}
	res := &Result{Spec: s}
	proto := s.Algorithms()
	nAlg := len(proto)
	if nAlg == 0 || len(s.Gammas) == 0 {
		return res, nil
	}

	// Fan out over the flat (γ, algorithm, run) index space, one
	// reusable scratch (backend + engine arena) per pool slot.
	runs := make([]runResult, len(s.Gammas)*nAlg*s.Runs)
	scratch := make([]runScratch, parallel.Width(len(runs), s.Parallelism))
	err := parallel.ForEachSlot(len(runs), s.Parallelism, func(slot, idx int) error {
		gi := idx / (nAlg * s.Runs)
		ai := idx % (nAlg * s.Runs) / s.Runs
		run := idx % s.Runs
		return s.runOnce(s.Gammas[gi], ai, run, &runs[idx], &scratch[slot])
	})
	if err != nil {
		return nil, err
	}

	// Aggregate sequentially in the original loop order.
	for gi, gamma := range s.Gammas {
		cells := make([]Cell, 0, nAlg)
		for ai := range proto {
			cell := Cell{
				Algorithm: proto[ai].Name(),
				Gamma:     gamma,
				Makespans: make([]float64, 0, s.Runs),
			}
			gammaStats := stats.RunningStats{}
			uplinkStats := stats.RunningStats{}
			idleStats := stats.RunningStats{}
			for run := 0; run < s.Runs; run++ {
				r := runs[(gi*nAlg+ai)*s.Runs+run]
				cell.Makespans = append(cell.Makespans, r.makespan)
				gammaStats.Add(r.measuredGamma)
				uplinkStats.Add(r.uplinkUtil)
				idleStats.Add(r.idleFraction)
				if r.rumrSwitched {
					cell.RUMRSwitched++
				}
			}
			cell.Summary = stats.Summarize(cell.Makespans)
			cell.MeasuredGamma = gammaStats.Mean()
			cell.UplinkUtil = uplinkStats.Mean()
			cell.IdleFraction = idleStats.Mean()
			cells = append(cells, cell)
		}
		// Slowdowns are relative to the best mean at this γ.
		best := cells[0].Summary.Mean
		for _, c := range cells {
			if c.Summary.Mean < best {
				best = c.Summary.Mean
			}
		}
		for i := range cells {
			cells[i].SlowdownPct = stats.SlowdownPct(cells[i].Summary.Mean, best)
		}
		res.Cells = append(res.Cells, cells...)
	}
	return res, nil
}

// runOnce executes one independently seeded simulation and writes its
// outputs into out. It shares nothing mutable with concurrent runs: the
// algorithm, application, and backend are constructed fresh, and the
// platform is read-only during execution.
func (s *Spec) runOnce(gamma float64, ai, run int, out *runResult, sc *runScratch) error {
	alg := s.Algorithms()[ai]
	app := s.App(gamma)
	seed := s.Seed + uint64(run)*1000003
	gcfg := grid.Config{Seed: seed}
	if s.GridConfig != nil {
		gcfg = s.GridConfig(seed)
	}
	backend, err := sc.gridBackend(s.Platform, app, gcfg)
	if err != nil {
		return fmt.Errorf("%s: %w", s.ID, err)
	}
	ecfg := engine.Config{ProbeLoad: s.ProbeLoad}
	if s.EngineConfig != nil {
		ecfg = s.EngineConfig()
		if ecfg.ProbeLoad == 0 {
			ecfg.ProbeLoad = s.ProbeLoad
		}
	}
	var buf *obs.Buffer
	if s.EventsDir != "" {
		buf = obs.NewBuffer()
		ecfg.Events = buf
	}
	tr, err := engine.Execute(context.Background(), engine.Request{
		Backend: backend, Algorithm: alg, App: app, Platform: s.Platform, Config: ecfg,
		Arena: sc.engineArena(),
	})
	if err != nil {
		return fmt.Errorf("%s: %s γ=%g run %d: %w", s.ID, alg.Name(), gamma, run, err)
	}
	out.makespan = tr.Makespan()
	out.measuredGamma = MeasureGamma(tr, s.Platform)
	if r, ok := alg.(*dls.RUMR); ok && r.Switched() {
		out.rumrSwitched = true
	}
	rep := tr.BuildReport(len(s.Platform.Workers))
	if rep.Makespan > 0 {
		out.uplinkUtil = rep.CommTime / rep.Makespan
		util := stats.RunningStats{}
		for _, u := range rep.WorkerUtil {
			util.Add(u)
		}
		out.idleFraction = 1 - util.Mean()
	}
	if buf != nil {
		if err := s.writeEvents(gamma, alg.Name(), run, buf.Events()); err != nil {
			return err
		}
	}
	return nil
}

// writeEvents dumps one run's event stream into EventsDir. The file is
// owned exclusively by this (γ, algorithm, run) triple, so concurrent
// runs never share a writer and the bytes are pool-width independent.
func (s *Spec) writeEvents(gamma float64, alg string, run int, events []obs.Event) error {
	name := fmt.Sprintf("%s-g%g-%s-run%d.jsonl", s.ID, gamma, alg, run)
	f, err := os.Create(filepath.Join(s.EventsDir, name))
	if err != nil {
		return fmt.Errorf("%s: events dump: %w", s.ID, err)
	}
	for i := range events {
		events[i].Alg = alg
		events[i].Run = run
	}
	if err := obs.WriteJSONL(f, events); err != nil {
		f.Close()
		return fmt.Errorf("%s: events dump %s: %w", s.ID, name, err)
	}
	return f.Close()
}

// MeasureGamma estimates the paper's γ from one run's trace: the CV of
// per-unit compute times, normalized per worker (so heterogeneity does
// not masquerade as uncertainty). This is the quantity the case study
// reports as "the average value for γ that was measured ... is 20%".
//
// The first pass over the records accumulates the per-worker means and
// counts; the counts carve one array into per-worker buckets, the
// second pass fills them, and normalization compacts the array in
// place (a ratio is written at or before the cost it was read from).
func MeasureGamma(tr *trace.Trace, p *model.Platform) float64 {
	type bucket struct {
		stats.RunningStats
		end int // one past this worker's last filled cost
	}
	perWorker := make([]bucket, len(p.Workers))
	recs := tr.Records()
	unitCost := func(r *trace.Record) (float64, bool) {
		if r.Probe || r.Size <= 0 || r.Worker < 0 || r.Worker >= len(perWorker) {
			return 0, false
		}
		return r.ComputeTime() / r.Size, true
	}
	for i := range recs {
		if v, ok := unitCost(&recs[i]); ok {
			perWorker[recs[i].Worker].Add(v)
		}
	}
	total := 0
	for w := range perWorker {
		perWorker[w].end = total // the bucket's start until it is filled
		total += perWorker[w].N()
	}
	costs := make([]float64, total)
	for i := range recs {
		if v, ok := unitCost(&recs[i]); ok {
			b := &perWorker[recs[i].Worker]
			costs[b.end] = v
			b.end++
		}
	}
	ratios := costs[:0]
	start := 0
	for w := range perWorker {
		b := &perWorker[w]
		own := costs[start:b.end]
		start = b.end
		if b.N() < 2 || b.Mean() <= 0 {
			continue
		}
		mean := b.Mean()
		for _, v := range own {
			ratios = append(ratios, v/mean)
		}
	}
	return stats.CV(ratios)
}

// CellsAt returns the cells for one γ, in algorithm order.
func (r *Result) CellsAt(gamma float64) []Cell {
	var out []Cell
	for _, c := range r.Cells {
		if c.Gamma == gamma {
			out = append(out, c)
		}
	}
	return out
}

// Cell returns the cell for (algorithm, γ), or false.
func (r *Result) Cell(alg string, gamma float64) (Cell, bool) {
	for _, c := range r.Cells {
		if c.Algorithm == alg && c.Gamma == gamma {
			return c, true
		}
	}
	return Cell{}, false
}

// Best returns the fastest algorithm name at γ.
func (r *Result) Best(gamma float64) string {
	cells := r.CellsAt(gamma)
	if len(cells) == 0 {
		return ""
	}
	best := cells[0]
	for _, c := range cells[1:] {
		if c.Summary.Mean < best.Summary.Mean {
			best = c
		}
	}
	return best.Algorithm
}

// Bars renders the result as horizontal bar charts, one per γ — the
// visual form of the paper's Figures 2–4.
func (r *Result) Bars(width int) string {
	if width <= 0 {
		width = 50
	}
	var b strings.Builder
	for _, g := range r.Spec.Gammas {
		cells := r.CellsAt(g)
		if len(cells) == 0 {
			continue
		}
		maxSpan := 0.0
		for _, c := range cells {
			if c.Summary.Mean > maxSpan {
				maxSpan = c.Summary.Mean
			}
		}
		fmt.Fprintf(&b, "%s, γ=%g%%:\n", r.Spec.Title, g*100)
		for _, c := range cells {
			n := int(c.Summary.Mean / maxSpan * float64(width))
			fmt.Fprintf(&b, "  %-14s %s %.0fs\n", c.Algorithm, strings.Repeat("▇", n), c.Summary.Mean)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table renders the result in the layout of the paper's figures: one row
// per algorithm, one column pair (makespan, slowdown) per γ.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (platform %s, %d runs)\n", r.Spec.ID, r.Spec.Title, r.Spec.Platform.Name, r.Spec.Runs)
	fmt.Fprintf(&b, "%-12s", "algorithm")
	for _, g := range r.Spec.Gammas {
		fmt.Fprintf(&b, " | %21s", fmt.Sprintf("γ=%g%%: makespan", g*100))
		fmt.Fprintf(&b, " %8s", "vs best")
	}
	b.WriteString("\n")
	names := r.algorithmOrder()
	for _, name := range names {
		fmt.Fprintf(&b, "%-12s", name)
		for _, g := range r.Spec.Gammas {
			c, ok := r.Cell(name, g)
			if !ok {
				fmt.Fprintf(&b, " | %21s %8s", "-", "-")
				continue
			}
			fmt.Fprintf(&b, " | %12.0fs ±%5.0fs %+7.1f%%", c.Summary.Mean, c.Summary.CI95(), c.SlowdownPct)
		}
		if name == "rumr" {
			for _, g := range r.Spec.Gammas {
				if c, ok := r.Cell(name, g); ok {
					fmt.Fprintf(&b, "  [switched %d/%d at γ=%g%%]", c.RUMRSwitched, r.Spec.Runs, g*100)
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Derived renders the observability-derived metrics the paper's figures
// do not show directly: how busy the single-port uplink was, how much
// of the makespan an average worker sat idle, and whether the measured
// per-unit compute CV reproduces the configured γ.
func (r *Result) Derived() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — derived metrics (platform %s, %d runs)\n", r.Spec.ID, r.Spec.Platform.Name, r.Spec.Runs)
	fmt.Fprintf(&b, "%-12s %8s | %10s %10s %12s %12s\n",
		"algorithm", "γ(cfg)", "uplink", "idle", "γ(measured)", "makespan")
	for _, g := range r.Spec.Gammas {
		for _, name := range r.algorithmOrder() {
			c, ok := r.Cell(name, g)
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%-12s %7.0f%% | %9.1f%% %9.1f%% %11.1f%% %11.0fs\n",
				name, g*100, 100*c.UplinkUtil, 100*c.IdleFraction, 100*c.MeasuredGamma, c.Summary.Mean)
		}
	}
	return b.String()
}

// algorithmOrder lists algorithm names in first-appearance order.
func (r *Result) algorithmOrder() []string {
	seen := map[string]bool{}
	var names []string
	for _, c := range r.Cells {
		if !seen[c.Algorithm] {
			seen[c.Algorithm] = true
			names = append(names, c.Algorithm)
		}
	}
	return names
}
