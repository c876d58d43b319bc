package experiment

import (
	"context"
	"fmt"
	"strings"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/obs"
	"apstdv/internal/parallel"
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
// Like FailureSweep, it runs in two passes: crash-free baselines per
// topology first, then crashes injected uniformly inside [15%, 60%] of
// that baseline. Fault plans and backend streams are seeded identically
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

// redistRun is one simulation's outcome.
type redistRun struct {
	makespan      float64
	retries       float64
	redistributed float64
	failed        bool
}

// redistCounter counts peer redistributions off the engine's event
// stream; emission is observational, so counting never perturbs the
// schedule.
type redistCounter struct{ n int }

func (r *redistCounter) Emit(ev obs.Event) {
	if ev.Type == obs.ChunkRedistributed {
		r.n++
	}
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

// Run executes the sweep. Each case keeps its own per-slot scratch
// column: a slot's backend is pinned to the platform of its first run,
// so the star and tree grids must never share one.
func (rs *RedistributionSweep) Run() ([]RedistributionCell, error) {
	if rs.Runs <= 0 {
		rs.Runs = 3
	}
	cases := rs.cases()
	nCase := len(cases)
	nProb := len(rs.CrashProbs)
	nMode := len(redistModes)

	nBase := nCase * rs.Runs
	nGrid := nCase * nMode * nProb * rs.Runs
	width := parallel.Width(max(nBase, nGrid), rs.Parallelism)
	scratch := make([][]runScratch, nCase)
	for ci := range scratch {
		scratch[ci] = make([]runScratch, width)
	}

	// Pass 1: crash-free baselines per topology (restage mode; without
	// faults the two modes are the same engine).
	base := make([]redistRun, nBase)
	err := parallel.ForEachSlot(nBase, rs.Parallelism, func(slot, idx int) error {
		ci := idx / rs.Runs
		return rs.runOnce(&cases[ci], false, idx%rs.Runs, nil, &base[idx], &scratch[ci][slot])
	})
	if err != nil {
		return nil, err
	}
	baseline := make([]float64, nCase)
	for ci := range cases {
		spans := make([]float64, 0, rs.Runs)
		for run := 0; run < rs.Runs; run++ {
			if r := base[ci*rs.Runs+run]; !r.failed {
				spans = append(spans, r.makespan)
			}
		}
		if len(spans) == 0 {
			return nil, fmt.Errorf("redistribution sweep: %s baseline produced no completed runs", cases[ci].name)
		}
		baseline[ci] = stats.Mean(spans)
	}

	// Pass 2: the crash grid. The fault plan depends only on (topology,
	// prob, run) — both modes of a cell replay identical crashes.
	runs := make([]redistRun, nGrid)
	err = parallel.ForEachSlot(nGrid, rs.Parallelism, func(slot, idx int) error {
		ci := idx / (nMode * nProb * rs.Runs)
		mi := idx / (nProb * rs.Runs) % nMode
		pi := idx / rs.Runs % nProb
		run := idx % rs.Runs
		faultSeed := rs.Seed + uint64(pi)*999983 + uint64(run)*7919
		plan := grid.RandomCrashPlan(faultSeed, len(cases[ci].platform.Workers),
			rs.CrashProbs[pi], 0.15*baseline[ci], 0.60*baseline[ci])
		return rs.runOnce(&cases[ci], redistModes[mi] == "peer", run, plan, &runs[idx], &scratch[ci][slot])
	})
	if err != nil {
		return nil, err
	}

	var cells []RedistributionCell
	for ci, tc := range cases {
		for pi, prob := range rs.CrashProbs {
			var restageMean float64
			for mi, mode := range redistModes {
				cell := RedistributionCell{Topology: tc.name, Mode: mode, CrashProb: prob}
				spans := make([]float64, 0, rs.Runs)
				var retries, redist stats.RunningStats
				for run := 0; run < rs.Runs; run++ {
					r := runs[((ci*nMode+mi)*nProb+pi)*rs.Runs+run]
					retries.Add(r.retries)
					redist.Add(r.redistributed)
					if r.failed {
						cell.Failed++
						continue
					}
					spans = append(spans, r.makespan)
				}
				if len(spans) > 0 {
					cell.MakespanS = stats.Mean(spans)
					cell.DegradationPct = stats.SlowdownPct(cell.MakespanS, baseline[ci])
				}
				cell.MeanRetries = retries.Mean()
				cell.MeanRedistributions = redist.Mean()
				if mode == "restage" {
					restageMean = cell.MakespanS
				} else if restageMean > 0 && cell.MakespanS > 0 {
					cell.VsRestagePct = stats.SlowdownPct(cell.MakespanS, restageMean)
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// runOnce executes one independently seeded simulation with the retry
// layer enabled, in peer or restage mode, under the given fault plan.
func (rs *RedistributionSweep) runOnce(tc *redistCase, peer bool, run int, plan *grid.FaultPlan, out *redistRun, sc *runScratch) error {
	app := rs.App(rs.Gamma)
	backend, err := sc.gridBackend(tc.platform, app, grid.Config{
		Seed:   rs.Seed + uint64(run)*1000003,
		Faults: plan,
	})
	if err != nil {
		return err
	}
	met := obs.NewRunMetrics(obs.NewRegistry())
	counter := &redistCounter{}
	tr, err := engine.Execute(context.Background(), engine.Request{
		Backend: backend, Algorithm: dls.NewRUMR(), App: app, Platform: tc.platform,
		Config: engine.Config{
			ProbeLoad: sectionFourProbeLoad,
			Metrics:   met,
			Events:    counter,
			Retry:     &engine.RetryPolicy{Redistribute: peer},
		},
		Arena: sc.engineArena(),
	})
	out.retries = met.ChunkRetries.Value()
	out.redistributed = float64(counter.n)
	if err != nil {
		// A run that loses every worker (or a chunk past its attempt
		// bound) is a data point, not a sweep abort.
		out.failed = true
		return nil
	}
	out.makespan = tr.Makespan()
	return nil
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
