package experiment

import (
	"fmt"
	"math"
	"strings"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/stats"
	"apstdv/internal/trace"
	"apstdv/internal/units"
	"apstdv/internal/workload"
)

// RobustnessSweep reproduces §4.3's parenthetical — "we also ran
// experiments with different subsets of our clusters and different load
// sizes, but did not learn anything different" — as a checkable claim:
// for every cluster-subset size and load scale, the qualitative
// conclusions must hold (UMR-family best at γ=0, robust algorithms best
// at γ=10%, SIMPLE-1 always clearly worse).
type RobustnessSweep struct {
	NodeCounts []int     // DAS-2 subset sizes
	LoadScales []float64 // multiples of the default 240,000-unit load
	Runs       int
	Seed       uint64
	// Parallelism bounds the worker pool fanning the runs across cores;
	// <= 0 means one worker per CPU. Each run is independently seeded, so
	// results are identical at every width.
	Parallelism int
}

// DefaultRobustnessSweep mirrors the kind of variation the authors
// describe.
func DefaultRobustnessSweep() *RobustnessSweep {
	return &RobustnessSweep{
		NodeCounts: []int{4, 8, 16},
		LoadScales: []float64{0.5, 1, 2},
		Runs:       4,
		Seed:       11,
	}
}

// SweepCell is one (nodes, loadScale, γ) configuration's outcome.
type SweepCell struct {
	Nodes     int
	LoadScale float64
	Gamma     float64
	// Best is the fastest algorithm; Simple1Pct its margin over SIMPLE-1.
	Best       string
	Simple1Pct float64
	// Makespans maps algorithm → mean makespan.
	Makespans map[string]float64
}

// ConclusionsHold reports whether this cell supports the paper's broad
// conclusions (§4.3): SIMPLE-1 is never competitive, and the right
// family is at (or within 3% of) the top — informed algorithms at γ=0,
// robust ones under uncertainty. The 3% tolerance matters at small load
// scales, where the probing round's fixed cost lets the probe-free
// SIMPLE-5 occasionally edge out the informed algorithms without
// changing the qualitative picture (a practical nuance §3.5's in-band
// probing implies, which the theory papers ignore).
func (c SweepCell) ConclusionsHold() bool {
	if c.Simple1Pct < 8 {
		return false
	}
	bestVal := c.Makespans[c.Best]
	within := func(names ...string) bool {
		for _, n := range names {
			if m, ok := c.Makespans[n]; ok && m <= bestVal*1.03 {
				return true
			}
		}
		return false
	}
	if c.Gamma == 0 {
		return within("umr", "rumr", "fixed-rumr") || c.Best == "simple-5"
	}
	return within("fixed-rumr", "wf", "rumr")
}

// Run executes the sweep: every (nodes, loadScale, γ, algorithm, run)
// is an independently seeded run, and the cells are assembled from the
// per-algorithm means in configuration order, so the output is the same
// at every pool width.
func (rs *RobustnessSweep) Run() ([]SweepCell, error) {
	if rs.Runs <= 0 {
		rs.Runs = 4
	}
	gammas := []float64{0, 0.10}
	proto := dls.PaperSet()
	// One platform value per subset size: runs of one size are adjacent
	// in the index space, so a pool slot keeps its backend across them.
	platforms := make([]*model.Platform, len(rs.NodeCounts))
	for ni, nodes := range rs.NodeCounts {
		platforms[ni] = workload.DAS2(nodes)
	}
	// The flat index space is (nodes, loadScale, γ, algorithm, run).
	perCell := len(proto) * rs.Runs
	nCells := len(rs.NodeCounts) * len(rs.LoadScales) * len(gammas)
	config := func(ci int) (ni int, scale, gamma float64) {
		return ci / (len(rs.LoadScales) * len(gammas)),
			rs.LoadScales[ci/len(gammas)%len(rs.LoadScales)], gammas[ci%len(gammas)]
	}
	spans := make([]float64, nCells*perCell)
	err := RunAll(len(spans), rs.Parallelism, func(idx int, r *Run) {
		ni, scale, gamma := config(idx / perCell)
		r.Platform = platforms[ni]
		r.App = workload.Synthetic(gamma)
		r.App.TotalLoad = units.Load(float64(r.App.TotalLoad) * scale)
		r.Algorithm = dls.PaperSet()[idx%perCell/rs.Runs]
		r.Grid = grid.Config{Seed: rs.Seed + uint64(idx%rs.Runs)*104729}
		r.Engine = engine.Config{ProbeLoad: 200}
	}, func(idx int, r *Run, tr *trace.Trace, err error) error {
		if err != nil {
			ni, scale, gamma := config(idx / perCell)
			return fmt.Errorf("sweep %d nodes ×%.1f γ=%g %s: %w", rs.NodeCounts[ni], scale, gamma, r.Algorithm.Name(), err)
		}
		spans[idx] = tr.Makespan()
		return nil
	})
	if err != nil {
		return nil, err
	}

	cells := make([]SweepCell, nCells)
	for ci := range cells {
		ni, scale, gamma := config(ci)
		cell := SweepCell{
			Nodes: rs.NodeCounts[ni], LoadScale: scale, Gamma: gamma,
			Makespans: map[string]float64{},
		}
		// Pick the best in paper-set order, not map order, so exact ties
		// break deterministically.
		bestVal := math.Inf(1)
		for ai, a := range proto {
			m := stats.Mean(spans[ci*perCell+ai*rs.Runs:][:rs.Runs])
			cell.Makespans[a.Name()] = m
			if m < bestVal {
				cell.Best, bestVal = a.Name(), m
			}
		}
		cell.Simple1Pct = stats.SlowdownPct(cell.Makespans["simple-1"], bestVal)
		cells[ci] = cell
	}
	return cells, nil
}

// RenderSweep formats sweep cells as a table.
func RenderSweep(cells []SweepCell) string {
	var b strings.Builder
	b.WriteString("§4.3 robustness sweep — conclusions across cluster subsets and load sizes\n")
	fmt.Fprintf(&b, "%6s %6s %6s  %-12s %12s %12s\n", "nodes", "load×", "γ", "best", "SIMPLE-1", "holds")
	for _, c := range cells {
		fmt.Fprintf(&b, "%6d %6.1f %5.0f%%  %-12s %+11.1f%% %12v\n",
			c.Nodes, c.LoadScale, c.Gamma*100, c.Best, c.Simple1Pct, c.ConclusionsHold())
	}
	return b.String()
}
