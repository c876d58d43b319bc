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

// RedistributionSweep measures what worker-to-worker redistribution is
// worth when workers crash mid-run: the same crash grid is replayed
// twice, once with the engine's default master re-staging (a failed
// attempt's input goes back through the master uplink) and once with
// peer redistribution (the input moves from the failed worker's site
// storage straight to the least-loaded survivor), on both the legacy
// serialized-uplink star and a two-level tree topology whose peer
// routes bypass the uplink entirely. The peer-vs-restage makespan delta
// is the sweep's headline number.
//
// Crashes are timed against each topology's crash-free baseline (see
// crashGrid). Fault plans and backend streams are seeded identically
// for both modes of a (topology, prob, run) cell, so the only
// difference between a restage run and its peer twin is the retry path
// itself.
type RedistributionSweep struct {
	// App builds the application for the sweep's γ.
	App   func(gamma float64) *model.Application
	Gamma float64
	// CrashProbs lists the per-worker crash probabilities of the grid.
	CrashProbs []float64
	Runs       int
	Seed       uint64
	// Parallelism bounds the worker pool fanning the cells; <= 0 means
	// one worker per CPU. Results are identical at every width.
	Parallelism int
}

// DefaultRedistributionSweep replays the failure sweep's crash grid on
// the paper's mixed DAS-2/Meteor platform.
func DefaultRedistributionSweep() *RedistributionSweep {
	return &RedistributionSweep{
		App:        workload.Synthetic,
		Gamma:      0.10,
		CrashProbs: []float64{0.125, 0.25, 0.5},
		Runs:       3,
		Seed:       17,
	}
}

// redistCase is one platform variant under test. Both cases keep the
// engine's serialized dispatch discipline (the paper's single-port
// master); on the tree the link graph still prices every transfer and
// lets peer redistributions run concurrently with — and contend
// against — the master's own sends.
type redistCase struct {
	name string
	// platform is shared by every run of the case (read-only during
	// execution).
	platform *model.Platform
}

// redistModes orders the retry variants; peer rows carry the
// vs-restage delta against the restage row of the same cell.
var redistModes = []string{"restage", "peer"}

// RedistributionCell aggregates one (topology, mode, crash probability)
// cell.
type RedistributionCell struct {
	Topology  string
	Mode      string
	CrashProb float64
	// MakespanS is the mean makespan of the completed runs.
	MakespanS float64
	// DegradationPct is the mean penalty versus the same topology's
	// crash-free baseline.
	DegradationPct float64
	MeanRetries    float64
	// MeanRedistributions counts peer moves per run (0 in restage mode).
	MeanRedistributions float64
	// Failed counts runs that could not complete (every worker lost).
	Failed int
	// VsRestagePct is the peer row's makespan delta against the restage
	// row of the same (topology, crash probability) — negative means
	// peer redistribution finished faster. 0 on restage rows.
	VsRestagePct float64
}

// cases builds the sweep's platform variants. The tree variant gets its
// own Platform value (WithTreeTopology mutates in place) so the star
// case stays nil-topology.
func (rs *RedistributionSweep) cases() []redistCase {
	return []redistCase{
		{name: "star", platform: workload.Mixed(8, 8)},
		{name: "tree", platform: workload.WithTreeTopology(workload.Mixed(8, 8))},
	}
}

// Run executes the sweep as a crashGrid: the topologies are the groups
// (baselines run in restage mode; without faults the two modes are the
// same engine) and the cells are (topology, crash probability, mode).
func (rs *RedistributionSweep) Run() ([]RedistributionCell, error) {
	if rs.Runs <= 0 {
		rs.Runs = 3
	}
	cases := rs.cases()
	g := &crashGrid{
		what:  "redistribution sweep",
		probs: rs.CrashProbs,
		runs:  rs.Runs, seed: rs.Seed, width: rs.Parallelism,
		describe: func(ci, mi int, r *Run) {
			r.Platform = cases[ci].platform
			r.App = rs.App(rs.Gamma)
			r.Algorithm = dls.NewRUMR()
			r.Engine.Retry = &engine.RetryPolicy{Redistribute: redistModes[mi] == "peer"}
		},
	}
	for ci, tc := range cases {
		g.groups = append(g.groups, tc.name)
		for pi := range rs.CrashProbs {
			for mi := range redistModes {
				g.cells = append(g.cells, crashCell{group: ci, variant: mi, prob: pi})
			}
		}
	}
	baseline, agg, err := g.run()
	if err != nil {
		return nil, err
	}

	cells := make([]RedistributionCell, len(agg))
	var restageMean float64
	for i, cs := range agg {
		c := g.cells[i]
		cell := RedistributionCell{
			Topology:            g.groups[c.group],
			Mode:                redistModes[c.variant],
			CrashProb:           rs.CrashProbs[c.prob],
			MeanRetries:         cs.retries,
			MeanRedistributions: cs.redistributed,
			Failed:              cs.failed,
		}
		if len(cs.spans) > 0 {
			cell.MakespanS = stats.Mean(cs.spans)
			cell.DegradationPct = stats.SlowdownPct(cell.MakespanS, baseline[c.group])
		}
		// The restage row precedes its peer twin.
		if cell.Mode == "restage" {
			restageMean = cell.MakespanS
		} else if restageMean > 0 && cell.MakespanS > 0 {
			cell.VsRestagePct = stats.SlowdownPct(cell.MakespanS, restageMean)
		}
		cells[i] = cell
	}
	return cells, nil
}

// MeanPeerAdvantagePct averages the peer rows' vs-restage deltas —
// the sweep's single headline number (negative = peer redistribution
// faster).
func MeanPeerAdvantagePct(cells []RedistributionCell) float64 {
	var rs stats.RunningStats
	for _, c := range cells {
		if c.Mode == "peer" && c.MakespanS > 0 {
			rs.Add(c.VsRestagePct)
		}
	}
	return rs.Mean()
}

// RenderRedistribution formats redistribution-sweep cells as a table.
func RenderRedistribution(cells []RedistributionCell) string {
	var b strings.Builder
	b.WriteString("redistribution sweep — peer redistribution vs master re-staging under crashes (rumr)\n")
	fmt.Fprintf(&b, "%-6s %-8s %7s %12s %10s %8s %8s %7s %11s\n",
		"topo", "mode", "crash", "makespan", "vs base", "retries", "redist", "failed", "vs restage")
	for _, c := range cells {
		span, degr, delta := "-", "-", "-"
		if c.MakespanS > 0 {
			span = fmt.Sprintf("%.0fs", c.MakespanS)
			degr = fmt.Sprintf("%+.1f%%", c.DegradationPct)
		}
		if c.Mode == "peer" && c.MakespanS > 0 {
			delta = fmt.Sprintf("%+.1f%%", c.VsRestagePct)
		}
		fmt.Fprintf(&b, "%-6s %-8s %6.1f%% %12s %10s %8.1f %8.1f %7d %11s\n",
			c.Topology, c.Mode, c.CrashProb*100, span, degr,
			c.MeanRetries, c.MeanRedistributions, c.Failed, delta)
	}
	fmt.Fprintf(&b, "mean peer advantage: %+.1f%% makespan vs re-staging\n", MeanPeerAdvantagePct(cells))
	return b.String()
}
