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
// value and its plan's one decision slice, measured at 2 allocs (4 while
// a UMR plan allocated its rounds three times) against ~245 for a cold
// run and ~10,400 before the arena work. Probing and recalibration launch
// their measurements from the chunk arena through the same op-token
// handlers as work chunks, so no chunk, measurement or event allocates;
// any per-operation closure or buffer would exceed the bound.
const warmRunAllocs = 8

// warmTreeRunAllocs bounds a warm repeat of the tree condition of
// internal/experiment's algorithms_golden.sha256 (see treeRun) under
// UMR: two crashes cutting transfers, computations and link flows, the
// blacklist, peer redistribution over the link graph, and UMR's loss
// handling. Measured at 3 allocs (5 while a UMR plan allocated its
// rounds three times, 37 before the fault path stopped allocating): the
// canonical run's 2 and UMR's loss scratch. The fault
// plan is compiled once, on its first run, crash errors included, and
// every later run of it shares that state; every op a crash cuts shares
// its worker's error, and the blacklist causes and peer routes live in
// the backend and arena, so one allocation per cut op, failed chunk or
// peer transfer exceeds it.
const warmTreeRunAllocs = 3

// warmRetryRunAllocs bounds a warm repeat of the canonical run with the
// retry layer on and no fault: every stage of every chunk arms a
// deadline and cancels it again. Measured at 2, the canonical run's own
// count (4 while a UMR plan allocated its rounds three times), both with the grid's timer wheel holding one timer per stage
// and with the engine's deadline set holding one backend timer per run:
// the set, the timer table and the event arena all grow once and are
// reused, so arming a deadline allocates nothing.
const warmRetryRunAllocs = 2

// freshPlanTreeRunAllocs bounds a warm tree run on a crash plan no run
// has used yet (see TestFreshFaultPlansCostTheirCompile). Measured at
// 8.5 (10.5 while a UMR plan allocated its rounds three times); it was
// 11.3 while each run compiled its plan into the backend's
// buffers and built one error per crashed worker its ops hit, which is
// the bound: a plan that runs once must cost no more than it did then.
const freshPlanTreeRunAllocs = 11.3

// paperRunAllocs bounds what one run of the paper's experiments
// allocates when experiment.Spec.Run replays them at width 1, warm — the
// sim_paper workload's allocs_per_op: the run's algorithm and
// application values, its plan, and each Spec.Run's share of its pool
// slot and cells. Measured at 4.98 (14.87 while each run's PaperSet
// allocated its six planners and their slice apart, a UMR plan its
// rounds three times, the synthetic application formatted its name and
// each fresh backend regrew its compute queues; 17.25 while SIMPLE
// formatted its name on every run and MeasureGamma's buckets and costs
// were on the heap, 18.64 while RUMR's switch log regrew after every
// drain); a trace.Report built per run to keep two of its numbers would
// add two.
const paperRunAllocs = 5

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
	return runsBy(t, n, width, alg, seed, func(_ int, r *experiment.Run) { setup(r) })
}

// runsBy is runs with a setup that sees the run's index.
func runsBy(t testing.TB, n, width int, alg string, seed func(run int) uint64, setup func(run int, r *experiment.Run)) []float64 {
	t.Helper()
	spans := make([]float64, n)
	err := experiment.RunAll(n, width, func(run int, r *experiment.Run) {
		a, err := dls.New(alg)
		if err != nil {
			t.Error(err)
		}
		*r = experiment.Run{Algorithm: a, Grid: grid.Config{Seed: seed(run)}}
		setup(run, r)
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
// the absolute bound, and that neither periodic recalibration, the
// retry layer's stage deadlines nor oracle estimates add anything to it:
// recalibration's measurements are arena chunks like the probing
// round's, and the oracle's estimates go into the arena's buffer.
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
	if oracle := warmAllocs(t, 10, "umr", seed42, canonicalRun(engine.Config{Oracle: true})); oracle > warm {
		t.Errorf("oracle estimates added %.0f allocs to a warm run (%.0f vs %.0f); want none", oracle-warm, oracle, warm)
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

// TestCycledFaultPlansAllocateNothingMore asserts that the fault path
// adds nothing to a warm run when every run brings its own crash plan,
// as sim_fault_tree's runs do pass after pass: four tree runs whose
// crash times differ, cycled, allocate what a warm repeat of one plan
// does. Each plan is compiled on its first run, crash errors included,
// so a warm run of any of them formats and builds nothing.
func TestCycledFaultPlansAllocateNothingMore(t *testing.T) {
	tree := treeRun()
	plans := make([]*grid.FaultPlan, 4)
	for k := range plans {
		shift := 100 * float64(k)
		plans[k] = &grid.FaultPlan{Faults: []grid.WorkerFault{
			{Worker: 1, Kind: grid.FaultCrash, At: 1500 + shift},
			{Worker: 6, Kind: grid.FaultCrash, At: 4000 - shift},
		}}
	}
	cycled := func(events obs.Sink) func(run int, r *experiment.Run) {
		return func(run int, r *experiment.Run) {
			tree(r)
			r.Grid.Faults = plans[run%len(plans)]
			r.Engine.Events = events
		}
	}
	events := obs.NewBuffer()
	runsBy(t, len(plans), 1, "umr", seed42, cycled(events))
	lost := 0
	for _, ev := range events.Events() {
		if ev.Type == obs.WorkerLost {
			lost++
		}
	}
	if lost != 2*len(plans) {
		t.Fatalf("%d cycled tree runs lost %d workers; want two per run", len(plans), lost)
	}
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; counts only hold in normal builds")
	}
	one := testing.AllocsPerRun(5, func() { runsBy(t, len(plans), 1, "umr", seed42, cycled(nil)) })
	long := testing.AllocsPerRun(5, func() { runsBy(t, 3*len(plans), 1, "umr", seed42, cycled(nil)) })
	warm := math.Round((long - one) / float64(2*len(plans)))
	if same := warmAllocs(t, 10, "umr", seed42, tree); warm > same {
		t.Errorf("a warm tree run cycling %d crash plans allocated %.0f allocs; want no more than the %.0f of a warm repeat of one plan",
			len(plans), warm, same)
	}
}

// TestCycledSeedsAllocateNothingMore asserts that the compute-noise
// tapes add nothing to a warm run when runs cycle through more seeds
// than a backend keeps tapes for (see grid's noiseStore): 40 seeds,
// cycled through one slot after a first round has filled every tape,
// allocate per run what a warm repeat of one seed does. Each new seed
// reseeds the oldest entry's tapes and refills them within the capacity
// they already have.
func TestCycledSeedsAllocateNothingMore(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; counts only hold in normal builds")
	}
	const seeds = 40
	cycled := func(run int) uint64 { return 42 + uint64(run%seeds)*1000003 }
	setup := canonicalRun(engine.Config{})
	one := testing.AllocsPerRun(5, func() { runs(t, seeds, 1, "factoring-plain", cycled, setup) })
	long := testing.AllocsPerRun(5, func() { runs(t, 3*seeds, 1, "factoring-plain", cycled, setup) })
	warm := math.Round((long - one) / (2 * seeds))
	if same := warmAllocs(t, 10, "factoring-plain", seed42, setup); warm > same {
		t.Errorf("a warm run cycling %d seeds allocated %.0f allocs; want no more than the %.0f of a warm repeat of one seed",
			seeds, warm, same)
	}
}

// TestFreshFaultPlansCostTheirCompile asserts what a plan that runs only
// once costs, as each plan of the failure sweep does: warm tree runs
// given fresh RandomCrashPlans allocate no more than warm reruns of the
// same plans already compiled plus, per plan, its compiled state and
// one error text per crash, and no more than freshPlanTreeRunAllocs.
// The fresh plans are drawn before the measurement, so it counts the
// fault path alone. The five plans crash 1 to 4 workers and every run
// completes.
func TestFreshFaultPlansCostTheirCompile(t *testing.T) {
	tree := treeRun()
	seeds := []uint64{7, 1, 11, 19, 6}
	draw := func(run int) *grid.FaultPlan {
		return grid.RandomCrashPlan(seeds[run%len(seeds)]*7919, 8, 0.3, 1000, 4000)
	}
	const n, calls = 10, 6 // warm runs per pass; calls of each measured pass
	compiled := 0
	for run := 1; run <= n; run++ {
		compiled += 1 + len(draw(run).Faults)
	}
	pass := func(runs int, fresh bool) func() {
		shared := make([]*grid.FaultPlan, len(seeds))
		for k := range shared {
			shared[k] = draw(k)
		}
		// pools[run] holds one fresh plan per call for run index run.
		pools := make([][]*grid.FaultPlan, runs)
		for run := range pools {
			for c := 0; c < calls; c++ {
				pools[run] = append(pools[run], draw(run))
			}
		}
		return func() {
			runsBy(t, runs, 1, "umr", seed42, func(run int, r *experiment.Run) {
				tree(r)
				r.Grid.Faults = shared[run%len(shared)]
				if fresh {
					r.Grid.Faults, pools[run] = pools[run][0], pools[run][1:]
				}
			})
		}
	}
	if raceflag.Enabled {
		pass(n, true)()
		t.Skip("race instrumentation allocates; counts only hold in normal builds")
	}
	warm := func(fresh bool) float64 {
		one := testing.AllocsPerRun(calls-1, pass(1, fresh))
		long := testing.AllocsPerRun(calls-1, pass(1+n, fresh))
		return math.Round(long - one)
	}
	fresh, rerun := warm(true), warm(false)
	if fresh-rerun > float64(compiled) {
		t.Errorf("%d warm tree runs on fresh crash plans allocated %.0f more than reruns of the compiled plans; want <= %d (one state per plan, one text per crash)",
			n, fresh-rerun, compiled)
	}
	if per := fresh / n; per > freshPlanTreeRunAllocs {
		t.Errorf("a warm tree run on a fresh crash plan allocated %.1f allocs; want <= %.1f", per, freshPlanTreeRunAllocs)
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
