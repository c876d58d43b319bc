// multijob.go measures what the multi-load co-scheduling layer buys:
// several divisible loads sharing one platform, under strict
// partitioning versus the work-conserving fair and srpt policies. The
// paper schedules one load at a time; a deployed scheduler rarely has
// that luxury, and the sweep quantifies the cost of pretending it does
// — a partition strands the short jobs' workers idle once they finish,
// while share revision hands that capacity to the survivors.
package experiment

import (
	"fmt"
	"strings"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/trace"
	"apstdv/internal/units"
	"apstdv/internal/workload"
)

// MultiJobSweep compares co-scheduling policies over increasing
// concurrency: for each job count J, the first J of Loads run together
// under each policy, and each cell records aggregate makespan, per-job
// slowdown versus running alone on the full platform, and Jain fairness
// over the slowdowns.
type MultiJobSweep struct {
	// Workers sizes the DAS-2 style platform.
	Workers int
	// JobCounts are the concurrency levels to sweep.
	JobCounts []int
	// Loads are the jobs' total loads (units); deliberately
	// heterogeneous — identical loads finish together and strict
	// partitioning strands nothing.
	Loads []units.Load
	// Policies are the co-scheduling policies to compare; "partition"
	// must be present (it is the baseline the deltas are against).
	Policies []string
}

// DefaultMultiJobSweep mirrors the daemon's defaults: an 8-worker DAS-2
// platform, 2..4 concurrent RUMR jobs with 5:1 load spread.
func DefaultMultiJobSweep() *MultiJobSweep {
	return &MultiJobSweep{
		Workers:   8,
		JobCounts: []int{2, 3, 4},
		Loads:     []units.Load{40000, 8000, 20000, 12000},
		Policies:  []string{"partition", "fair", "srpt"},
	}
}

// MultiJobCell is one (jobs, policy) configuration's outcome.
type MultiJobCell struct {
	Jobs   int
	Policy string
	// Aggregate is the makespan of the whole batch (latest finish),
	// virtual seconds.
	Aggregate float64
	// Slowdowns[i] is job i's makespan divided by its solo makespan on
	// the full platform.
	Slowdowns []float64
	// MeanSlowdown and MaxSlowdown summarize Slowdowns.
	MeanSlowdown float64
	MaxSlowdown  float64
	// Jain is Jain's fairness index over the slowdowns: 1 when every
	// job suffers equally, 1/J when one job absorbs all the contention.
	Jain float64
	// Reshares counts the policy's share revisions.
	Reshares int
	// VsPartitionPct is the aggregate-makespan delta against the
	// partition cell at the same job count (negative = faster).
	VsPartitionPct float64
}

// multiJobApp builds the sweep's application: the paper's MPEG-style
// unit cost with kilobyte chunks, matching the single-job experiments.
func multiJobApp(load units.Load) *model.Application {
	return &model.Application{
		Name:         "multijob",
		TotalLoad:    load,
		BytesPerUnit: 1000,
		UnitCost:     0.402,
		MinChunk:     10,
	}
}

// partitionSubsets splits n workers into j contiguous blocks, the
// remainder spread over the first blocks — the daemon's free/slots
// arithmetic for simultaneous arrivals.
func partitionSubsets(n, j int) [][]int {
	subsets := make([][]int, j)
	next := 0
	for i := 0; i < j; i++ {
		size := n / j
		if i < n%j {
			size++
		}
		for w := 0; w < size; w++ {
			subsets[i] = append(subsets[i], next)
			next++
		}
	}
	return subsets
}

// jain computes Jain's fairness index (Σx)²/(n·Σx²).
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Run executes the sweep. Every cell is deterministic (the shared world
// is noise-free), so there is no run fan-out to parallelize.
func (s *MultiJobSweep) Run() ([]MultiJobCell, error) {
	platform := workload.DAS2(s.Workers)
	all := make([]int, s.Workers)
	for i := range all {
		all[i] = i
	}

	// Solo baselines: each load alone on the full platform, the
	// denominator every slowdown is measured against.
	solo := make([]float64, len(s.Loads))
	err := RunAll(len(solo), 1, func(i int, r *Run) {
		r.Platform = platform
		r.App = multiJobApp(s.Loads[i])
		r.Algorithm = dls.NewRUMR()
		r.Grid = grid.Config{Seed: 1}
	}, func(i int, _ *Run, tr *trace.Trace, err error) error {
		if err == nil {
			solo[i] = tr.Makespan()
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	var cells []MultiJobCell
	for _, j := range s.JobCounts {
		if j > len(s.Loads) {
			return nil, fmt.Errorf("experiment: %d jobs but only %d loads", j, len(s.Loads))
		}
		partitionAgg := 0.0
		for _, name := range s.Policies {
			var policy grid.SharePolicy
			subsets := make([][]int, j)
			switch name {
			case "partition":
				subsets = partitionSubsets(s.Workers, j)
			case "fair":
				policy = grid.FairPolicy()
				for i := range subsets {
					subsets[i] = all
				}
			case "srpt":
				policy = grid.SRPTPolicy()
				for i := range subsets {
					subsets[i] = all
				}
			default:
				return nil, fmt.Errorf("experiment: unknown co-scheduling policy %q", name)
			}
			w, err := grid.NewMultiWorld(platform, policy)
			if err != nil {
				return nil, err
			}
			reqs := make([]engine.Request, j)
			for i := range reqs {
				app := multiJobApp(s.Loads[i])
				v, err := w.AddJob(app, subsets[i], 0)
				if err != nil {
					return nil, err
				}
				reqs[i] = engine.Request{Backend: v, Algorithm: dls.NewRUMR(), App: app}
			}
			if _, err := engine.ExecuteShared(w.Run, reqs); err != nil {
				return nil, fmt.Errorf("experiment: multi-job batch: %w", err)
			}
			cell := MultiJobCell{Jobs: j, Policy: name, Reshares: w.Reshares()}
			for i := range reqs {
				m := w.FinishedAt(i) // the makespan: every job arrives at 0
				if m > cell.Aggregate {
					cell.Aggregate = m
				}
				sd := m / solo[i]
				cell.Slowdowns = append(cell.Slowdowns, sd)
				cell.MeanSlowdown += sd / float64(j)
				if sd > cell.MaxSlowdown {
					cell.MaxSlowdown = sd
				}
			}
			cell.Jain = jain(cell.Slowdowns)
			if name == "partition" {
				partitionAgg = cell.Aggregate
			} else if partitionAgg > 0 {
				cell.VsPartitionPct = (cell.Aggregate/partitionAgg - 1) * 100
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// RenderMultiJob renders the sweep as a table.
func RenderMultiJob(cells []MultiJobCell) string {
	var b strings.Builder
	b.WriteString("Multi-load co-scheduling — aggregate makespan and per-job slowdown vs solo\n")
	fmt.Fprintf(&b, "%4s %-10s %12s %12s %8s %8s %8s %10s\n",
		"jobs", "policy", "aggregate", "vs part.", "mean sd", "max sd", "jain", "reshares")
	for _, c := range cells {
		vs := ""
		if c.Policy != "partition" {
			vs = fmt.Sprintf("%+.1f%%", c.VsPartitionPct)
		}
		fmt.Fprintf(&b, "%4d %-10s %11.0fs %12s %8.2f %8.2f %8.3f %10d\n",
			c.Jobs, c.Policy, c.Aggregate, vs, c.MeanSlowdown, c.MaxSlowdown, c.Jain, c.Reshares)
	}
	return b.String()
}
