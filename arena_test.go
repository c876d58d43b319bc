// arena_test.go pins the reusable-run-arena economics: once a pool
// slot's backend and arena are warm, repeating a simulated run must
// cost a small fraction of a cold run's allocations, and reuse must not
// change a single output byte. These are the regression guards for the
// runner-scaling work DESIGN.md's "Run arenas and runner scaling"
// section describes.
package main

import (
	"math"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/experiment"
	"apstdv/internal/grid"
	"apstdv/internal/obs"
	"apstdv/internal/parallel"
	"apstdv/internal/raceflag"
	"apstdv/internal/trace"
	"apstdv/internal/workload"
)

// warmRunAllocs bounds the allocations one warm repeat of the canonical
// run (UMR, DAS-2×16, γ=10%, probing on) may make: the per-run algorithm
// value and its plan, measured at 4 allocs against ~245 for a cold run
// and ~10,400 before the arena work. Probing and recalibration launch
// their measurements from the chunk arena through the same op-token
// handlers as work chunks, so no chunk, measurement or event allocates;
// any per-operation closure or buffer would exceed the bound.
const warmRunAllocs = 8

// warmTreeRunAllocs bounds a warm repeat of the tree condition of
// internal/experiment's algorithms_golden.sha256 (see treeRun) under
// UMR: two crashes cutting transfers, computations and link flows, the
// blacklist, peer redistribution over the link graph, and UMR's loss
// handling. Measured at 5 allocs (37 before the fault path stopped
// allocating): the canonical run's 4 and UMR's loss scratch. Every op a
// crash cuts shares its worker's error, and the blacklist causes, peer
// routes and fault state are reused from the previous run, so one
// allocation per cut op, failed chunk or peer transfer exceeds it.
const warmTreeRunAllocs = 5

// warmRetryRunAllocs bounds a warm repeat of the canonical run with the
// retry layer on and no fault: every stage of every chunk arms a
// deadline and cancels it again. Measured at 4, the canonical run's own
// count, both with the grid's timer wheel holding one timer per stage
// and with the engine's deadline set holding one backend timer per run:
// the set, the timer table and the event arena all grow once and are
// reused, so arming a deadline allocates nothing.
const warmRetryRunAllocs = 4

// paperRunAllocs bounds what one run of the paper's experiments
// allocates when experiment.Spec.Run replays them at width 1, warm — the
// sim_paper workload's allocs_per_op: the run's algorithm and
// application values, its plan, MeasureGamma's buckets, and each
// Spec.Run's share of its pool slot and cells. Measured at 20.4; a
// trace.Report built per run to keep two of its numbers would add two.
const paperRunAllocs = 21

// treeRun is the tree condition of algorithms_golden.sha256: Mixed(4, 4)
// behind a two-level link graph, worker 1 crashing at 1 500 s and worker
// 6 at 4 000 s, and failed chunks whose input reached a site moved over
// the peer path. Runs share its models read-only.
func treeRun() func(*experiment.Run) {
	platform := workload.WithTreeTopology(workload.Mixed(4, 4))
	app := workload.Synthetic(0.10)
	faults := &grid.FaultPlan{Faults: []grid.WorkerFault{
		{Worker: 1, Kind: grid.FaultCrash, At: 1500},
		{Worker: 6, Kind: grid.FaultCrash, At: 4000},
	}}
	retry := &engine.RetryPolicy{Redistribute: true}
	return func(r *experiment.Run) {
		r.Platform, r.App, r.Grid.Faults = platform, app, faults
		r.Engine = engine.Config{ProbeLoad: 200, Retry: retry}
	}
}

// canonicalRun returns the setup of the canonical configuration under
// ecfg: DAS-2×16, γ=10%, probing on.
func canonicalRun(ecfg engine.Config) func(*experiment.Run) {
	platform := workload.DAS2(16)
	app := workload.Synthetic(0.10)
	ecfg.ProbeLoad = 200
	return func(r *experiment.Run) {
		r.Platform, r.App, r.Engine = platform, app, ecfg
	}
}

// canonicalRuns executes n runs of the canonical configuration on a pool
// `width` wide through experiment.RunAll — every call starts with cold
// slots, and a slot's runs after its first are warm — and returns the
// makespans in run order.
func canonicalRuns(t testing.TB, n, width int, alg string, seed func(run int) uint64, ecfg engine.Config) []float64 {
	return runs(t, n, width, alg, seed, canonicalRun(ecfg))
}

// runs executes n runs of alg configured by setup on a pool `width`
// wide through experiment.RunAll and returns the makespans in run order.
func runs(t testing.TB, n, width int, alg string, seed func(run int) uint64, setup func(*experiment.Run)) []float64 {
	t.Helper()
	spans := make([]float64, n)
	err := experiment.RunAll(n, width, func(run int, r *experiment.Run) {
		a, err := dls.New(alg)
		if err != nil {
			t.Error(err)
		}
		*r = experiment.Run{Algorithm: a, Grid: grid.Config{Seed: seed(run)}}
		setup(r)
	}, func(run int, _ *experiment.Run, tr *trace.Trace, err error) error {
		if err == nil {
			spans[run] = tr.Makespan()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return spans
}

func seed42(int) uint64 { return 42 }

// warmAllocs returns what one warm run allocates: the later runs of a
// pass on one slot (Reset + arena reuse), measured as the pass's cost
// beyond a one-run pass (fresh Backend + Arena), per repeat. A run
// allocates a whole number of times; rounding drops the stray runtime
// allocation that lands in one pass and not the other.
func warmAllocs(t *testing.T, repeats int, alg string, seed func(int) uint64, setup func(*experiment.Run)) float64 {
	one := testing.AllocsPerRun(5, func() { runs(t, 1, 1, alg, seed, setup) })
	long := testing.AllocsPerRun(5, func() { runs(t, 1+repeats, 1, alg, seed, setup) })
	return math.Round((long - one) / float64(repeats))
}

// TestResetRunAllocationRegression asserts that a warm run stays under
// the absolute bound, and that neither periodic recalibration nor the
// retry layer's stage deadlines add anything to it: recalibration's
// measurements are arena chunks like the probing round's.
func TestResetRunAllocationRegression(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; counts only hold in normal builds")
	}
	warm := warmAllocs(t, 10, "umr", seed42, canonicalRun(engine.Config{}))
	if warm > warmRunAllocs {
		t.Errorf("warm repeat run allocated %.0f allocs/op; want <= %d", warm, warmRunAllocs)
	}
	if recal := warmAllocs(t, 10, "umr", seed42, canonicalRun(engine.Config{RecalibrateInterval: 500})); recal > warm {
		t.Errorf("recalibrating every 500 s added %.0f allocs to a warm run (%.0f vs %.0f); want none",
			recal-warm, recal, warm)
	}
	retry := warmAllocs(t, 10, "umr", seed42, canonicalRun(engine.Config{Retry: &engine.RetryPolicy{}}))
	if retry > warmRetryRunAllocs || retry > warm {
		t.Errorf("a warm run with the retry layer on allocated %.0f allocs/op (%.0f without); want <= %d and no more than without",
			retry, warm, warmRetryRunAllocs)
	}
}

// TestSpecRunAllocationRegression asserts that a warm pass over the
// paper's experiments stays under paperRunAllocs per run.
func TestSpecRunAllocationRegression(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; counts only hold in normal builds")
	}
	specs := experiment.All()
	pass := func() (runs int) {
		for _, s := range specs {
			s.Parallelism = 1
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Cells {
				runs += len(c.Makespans)
			}
		}
		return runs
	}
	runs := pass()
	if per := testing.AllocsPerRun(3, func() { pass() }) / float64(runs); per > paperRunAllocs {
		t.Errorf("a warm pass over the paper's %d runs allocated %.2f allocs per run; want <= %d", runs, per, paperRunAllocs)
	}
}

// TestTreeFaultRunAllocationRegression asserts that a warm run of the
// fault path — crashes, blacklisting and peer redistribution on a link
// graph — stays under its own bound, and that the run still loses a
// worker and moves a chunk over the peer path, so the bound covers the
// path it names.
func TestTreeFaultRunAllocationRegression(t *testing.T) {
	tree := treeRun()
	events := obs.NewBuffer()
	runs(t, 1, 1, "umr", seed42, func(r *experiment.Run) { tree(r); r.Engine.Events = events })
	var lost, moved bool
	for _, ev := range events.Events() {
		lost = lost || ev.Type == obs.WorkerLost
		moved = moved || ev.Type == obs.ChunkRedistributed
	}
	if !lost || !moved {
		t.Fatalf("tree run: worker lost %v, chunk redistributed %v; want both", lost, moved)
	}
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; counts only hold in normal builds")
	}
	if warm := warmAllocs(t, 10, "umr", seed42, tree); warm > warmTreeRunAllocs {
		t.Errorf("warm repeat of the tree fault run allocated %.0f allocs/op; want <= %d", warm, warmTreeRunAllocs)
	}
}

// TestArenaReuseMatchesFreshRun asserts byte-identity of the reused
// path: the same seed through a warm (reset) slot must produce exactly
// the makespan a cold build produces.
func TestArenaReuseMatchesFreshRun(t *testing.T) {
	// The slot is warmed on a different seed first so the repeat
	// genuinely exercises Reset.
	warm := canonicalRuns(t, 2, 1, "umr", func(run int) uint64 { return []uint64{1, 42}[run] }, engine.Config{})[1]
	cold := canonicalRuns(t, 1, 1, "umr", seed42, engine.Config{})[0]
	if warm != cold {
		t.Fatalf("warm run makespan %v != cold run makespan %v for the same seed", warm, cold)
	}
}

// jobSink is the shape of the daemon's per-job sink: every event goes to
// the job's ring and to the engine metrics all jobs share.
type jobSink struct {
	ring *obs.Ring
	met  *obs.RunMetrics
}

func (s *jobSink) EmitPtr(ev *obs.Event) {
	s.ring.EmitPtr(ev)
	s.met.EmitPtr(ev)
}

// TestObsEmitPathAllocFree pins the structural half of the obs-overhead
// budget: a warm run with the daemon's always-on configuration (ring
// sink + full metric set) must allocate EXACTLY what an uninstrumented
// warm run allocates — the emit path costs branches and stores, never
// heap. Paired timing percentages carry several points of shared-box
// noise, so the budget is gated on this exact count instead of a timing
// threshold; any allocation reintroduced on the emit path fails here
// deterministically, not probabilistically.
func TestObsEmitPathAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; counts only hold in normal builds")
	}
	// Warm means the ring is at capacity: it takes its pages from the
	// heap one at a time as events arrive, and once it retains its 8192
	// events it holds every page it will ever need. (The daemon's rings
	// get theirs from a pool instead; internal/obs tests that path.)
	ring := obs.NewRing(8192)
	inst := engine.Config{Events: &jobSink{ring, obs.NewRunMetrics(obs.NewRegistry())}}
	seed11 := func(int) uint64 { return 11 }
	for held := -1; ring.Bytes() > held; {
		held = ring.Bytes()
		canonicalRuns(t, 1, 1, "fixed-rumr", seed11, inst)
	}
	base, withObs := warmAllocs(t, 20, "fixed-rumr", seed11, canonicalRun(engine.Config{})),
		warmAllocs(t, 20, "fixed-rumr", seed11, canonicalRun(inst))
	if withObs > base {
		t.Fatalf("ring sink + metrics added %.1f allocs/run (%.1f vs %.1f base); the emit path must not allocate",
			withObs-base, withObs, base)
	}
}

// TestForEachSlotReusesScratch asserts the pool threading at a width of
// two or more: a pass of several runs per slot builds each slot once and
// recycles it, so past each slot's cold first run it stays within the
// warm budget per run and well under what rebuilding for every run would
// cost.
func TestForEachSlotReusesScratch(t *testing.T) {
	// The width is fixed out here: AllocsPerRun measures at GOMAXPROCS 1,
	// where a default-width pool would be the sequential loop.
	width := max(2, parallel.DefaultWidth())
	runs := 8 * width
	seeds := func(run int) uint64 { return uint64(run) }
	cold := testing.AllocsPerRun(5, func() { canonicalRuns(t, 1, 1, "umr", seeds, engine.Config{}) })
	allocs := testing.AllocsPerRun(5, func() { canonicalRuns(t, runs, width, "umr", seeds, engine.Config{}) })
	if raceflag.Enabled {
		return // the pool ran under the detector; counts only hold in normal builds
	}
	// Budget: one cold run per slot, the warm bound for every run, plus
	// slack for the pool's own goroutine/channel machinery at widths > 1.
	if budget := float64(width)*cold + float64(runs*warmRunAllocs+200); allocs > budget {
		t.Errorf("warm pool pass allocated %.0f allocs; want <= %.0f", allocs, budget)
	}
	if allocs > 0.7*float64(runs)*cold {
		t.Errorf("pool pass of %d runs allocated %.0f vs %.0f for a cold run; want <= 70%% of rebuilding every time",
			runs, allocs, cold)
	}
}
