// Package experiment defines and runs the paper's evaluation: every
// figure and table of §2.1, §4 and §5 has a Spec here that regenerates
// its rows — same platforms, same applications, same γ values, averaged
// over the same number of runs (10).
package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/obs"
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
// independently seeded simulation, described to RunAll (Parallelism
// wide) and aggregated in deterministic (γ, algorithm, run) order, so
// the result is identical at every pool width.
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

	// The flat index space is (γ, algorithm, run), run fastest.
	runs := make([]runResult, len(s.Gammas)*nAlg*s.Runs)
	err := RunAll(len(runs), s.Parallelism, func(idx int, r *Run) {
		s.describe(idx, nAlg, r)
	}, func(idx int, r *Run, tr *trace.Trace, err error) error {
		gamma, run := s.Gammas[idx/(nAlg*s.Runs)], idx%s.Runs
		if err != nil {
			return fmt.Errorf("%s γ=%g run %d: %w", r.Algorithm.Name(), gamma, run, err)
		}
		out := &runs[idx]
		out.makespan = tr.Makespan()
		out.measuredGamma = MeasureGamma(tr, s.Platform)
		if rumr, ok := r.Algorithm.(*dls.RUMR); ok && rumr.Switched() {
			out.rumrSwitched = true
		}
		out.uplinkUtil, out.idleFraction = uplinkAndIdle(tr, len(s.Platform.Workers), out.makespan)
		if s.EventsDir != "" {
			return s.writeEvents(gamma, r.Algorithm.Name(), run, r.Engine.Events.(*obs.Buffer).Events())
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.ID, err)
	}

	// Aggregate sequentially in the original loop order.
	res.Cells = make([]Cell, 0, len(s.Gammas)*nAlg)
	for gi, gamma := range s.Gammas {
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
			res.Cells = append(res.Cells, cell)
		}
		// Slowdowns are relative to the best mean at this γ.
		cells := res.Cells[gi*nAlg:]
		best := cells[0].Summary.Mean
		for _, c := range cells {
			if c.Summary.Mean < best {
				best = c.Summary.Mean
			}
		}
		for i := range cells {
			cells[i].SlowdownPct = stats.SlowdownPct(cells[i].Summary.Mean, best)
		}
	}
	return res, nil
}

// describe fills in run idx of the flat (γ, algorithm, run) index space
// of nAlg algorithms. Fresh algorithm and application values: a run
// shares nothing mutable with its neighbours; the platform is read-only.
func (s *Spec) describe(idx, nAlg int, r *Run) {
	r.Algorithm = s.Algorithms()[idx%(nAlg*s.Runs)/s.Runs]
	r.App = s.App(s.Gammas[idx/(nAlg*s.Runs)])
	r.Platform = s.Platform
	seed := s.Seed + uint64(idx%s.Runs)*1000003
	r.Grid = grid.Config{Seed: seed}
	if s.GridConfig != nil {
		r.Grid = s.GridConfig(seed)
	}
	r.Engine = engine.Config{ProbeLoad: s.ProbeLoad}
	if s.EngineConfig != nil {
		r.Engine = s.EngineConfig()
		if r.Engine.ProbeLoad == 0 {
			r.Engine.ProbeLoad = s.ProbeLoad
		}
	}
	if s.EventsDir != "" {
		r.Engine.Events = obs.NewBuffer()
	}
}

// uplinkAndIdle returns the two numbers of a trace.Report a cell keeps:
// the uplink's busy fraction CommTime/Makespan and the idle fraction
// 1 − mean(WorkerUtil), both 0 unless makespan > 0. makespan is
// tr.Makespan(), which BuildReport computes the same way. It repeats
// BuildReport's float operations in BuildReport's order — one pass over
// the real (non-failed, non-probe) records summing transfer times and
// per-worker compute times, then each worker's busy/makespan in worker
// order — so the results are bit for bit the report's, without building
// the report: no interval lists, no sort, and on up to 64 workers no
// allocation.
func uplinkAndIdle(tr *trace.Trace, workers int, makespan float64) (uplink, idle float64) {
	if !(makespan > 0) {
		return 0, 0
	}
	var buf [64]float64
	busy := buf[:]
	if workers > len(buf) {
		busy = make([]float64, workers)
	}
	busy = busy[:workers]
	comm := 0.0
	recs := tr.Records()
	for i := range recs {
		r := &recs[i]
		if r.Failed || r.Probe {
			continue
		}
		comm += r.TransferTime()
		if r.Worker >= 0 && r.Worker < workers {
			busy[r.Worker] += r.ComputeTime()
		}
	}
	util := stats.RunningStats{}
	for _, b := range busy {
		util.Add(b / makespan)
	}
	return comm / makespan, 1 - util.Mean()
}

// writeEvents dumps one run's event stream into EventsDir. The file is
// owned exclusively by this (γ, algorithm, run) triple, so concurrent
// runs never share a writer and the bytes are pool-width independent.
func (s *Spec) writeEvents(gamma float64, alg string, run int, events []obs.Event) error {
	name := fmt.Sprintf("%s-g%g-%s-run%d.jsonl", s.ID, gamma, alg, run)
	f, err := os.Create(filepath.Join(s.EventsDir, name))
	if err != nil {
		return fmt.Errorf("events dump: %w", err)
	}
	for i := range events {
		events[i].Alg = alg
		events[i].Run = run
	}
	if err := obs.WriteJSONL(f, events); err != nil {
		f.Close()
		return fmt.Errorf("events dump %s: %w", name, err)
	}
	return f.Close()
}

// gammaCosts is how many measured records MeasureGamma holds on the
// stack; a paper run dispatches a few dozen chunks.
const gammaCosts = 512

// MeasureGamma estimates the paper's γ from one run's trace: the CV of
// per-unit compute times, normalized per worker (so heterogeneity does
// not masquerade as uncertainty). This is the quantity the case study
// reports as "the average value for γ that was measured ... is 20%".
//
// The first pass over the records accumulates the per-worker means and
// counts; the counts carve one array into per-worker buckets, the
// second pass fills them, and normalization compacts the array in
// place (a ratio is written at or before the cost it was read from).
// On up to 64 workers and gammaCosts measured records, the buckets and
// the array live on the stack, as uplinkAndIdle's sums do.
func MeasureGamma(tr *trace.Trace, p *model.Platform) float64 {
	type bucket struct {
		stats.RunningStats
		end int // one past this worker's last filled cost
	}
	var bucketBuf [64]bucket
	var perWorker []bucket
	if n := len(p.Workers); n <= len(bucketBuf) {
		perWorker = bucketBuf[:n]
	} else {
		perWorker = make([]bucket, n)
	}
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
	var costBuf [gammaCosts]float64
	var costs []float64
	if total <= len(costBuf) {
		costs = costBuf[:total]
	} else {
		costs = make([]float64, total)
	}
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
