// arena_test.go pins the reusable-run-arena economics: once a pool
// slot's backend and arena are warm, repeating a simulated run must
// cost a small fraction of a cold run's allocations, and reuse must not
// change a single output byte. These are the regression guards for the
// runner-scaling work DESIGN.md's "Run arenas and runner scaling"
// section describes.
package main

import (
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/obs"
	"apstdv/internal/parallel"
	"apstdv/internal/workload"
)

// warmRunResidualAllocs bounds the allocations one warm repeat of the
// canonical run (UMR, DAS-2×16, γ=10%, probing on) may make. The
// residual is real but small — the per-run algorithm value, a handful
// of trace/estimate shims — measured at ~140 allocs, against ~340 for
// a cold run (itself already cheap: the indexed-dispatch engine
// allocates per run, not per chunk or event) and ~10,400 before the
// arena work. The bound leaves headroom for noise while still catching
// any return to per-chunk or per-event allocation.
const warmRunResidualAllocs = 600

// TestResetRunAllocationRegression measures a cold run (fresh Backend +
// Arena every time) against a warm one (Reset + arena reuse) and
// asserts the warm path allocates under the absolute residual bound AND
// meaningfully under the cold cost: the absolute bound catches slow
// creep, the ratio catches a reuse path that silently rebuilds its
// backend or arena.
func TestResetRunAllocationRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts only hold in normal builds")
	}
	app := workload.Synthetic(0.10)
	platform := workload.DAS2(16)
	ecfg := engine.Config{ProbeLoad: 200}

	cold := testing.AllocsPerRun(5, func() {
		var sc benchScratch
		if _, err := sc.run(platform, app, dls.NewUMR(), grid.Config{Seed: 42}, ecfg); err != nil {
			t.Fatal(err)
		}
	})

	var sc benchScratch
	if _, err := sc.run(platform, app, dls.NewUMR(), grid.Config{Seed: 42}, ecfg); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(10, func() {
		if _, err := sc.run(platform, app, dls.NewUMR(), grid.Config{Seed: 42}, ecfg); err != nil {
			t.Fatal(err)
		}
	})

	if warm > warmRunResidualAllocs {
		t.Errorf("warm repeat run allocated %.0f allocs/op; want <= %d", warm, warmRunResidualAllocs)
	}
	if warm > cold*0.7 {
		t.Errorf("warm repeat run allocated %.0f allocs/op vs %.0f cold; want <= 70%%", warm, cold)
	}
}

// TestArenaReuseMatchesFreshRun asserts byte-identity of the reused
// path: the same seed through a warm (reset) slot must produce exactly
// the makespan a cold build produces.
func TestArenaReuseMatchesFreshRun(t *testing.T) {
	app := workload.Synthetic(0.10)
	platform := workload.DAS2(16)
	ecfg := engine.Config{ProbeLoad: 200}
	var sc benchScratch
	// Warm the slot on a different seed first so the repeat genuinely
	// exercises Reset, then compare against a cold scratch.
	if _, err := sc.run(platform, app, dls.NewUMR(), grid.Config{Seed: 1}, ecfg); err != nil {
		t.Fatal(err)
	}
	warm, err := sc.run(platform, app, dls.NewUMR(), grid.Config{Seed: 42}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	var fresh benchScratch
	cold, err := fresh.run(platform, app, dls.NewUMR(), grid.Config{Seed: 42}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Fatalf("warm run makespan %v != cold run makespan %v for the same seed", warm, cold)
	}
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
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts only hold in normal builds")
	}
	app := workload.Synthetic(0.10)
	platform := workload.DAS2(16)
	one := func(sc *benchScratch, cfg engine.Config) {
		cfg.ProbeLoad = 200
		alg, err := dls.New("fixed-rumr")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.run(platform, app, alg, grid.Config{Seed: 11}, cfg); err != nil {
			t.Fatal(err)
		}
	}
	// Warm means the ring is at capacity: it takes its pages from the
	// heap one at a time as events arrive, and once it retains its 8192
	// events it holds every page it will ever need. (The daemon's rings
	// get theirs from a pool instead; internal/obs tests that path.)
	ring := obs.NewRing(8192)
	met := obs.NewRunMetrics(obs.NewRegistry())
	var plain, inst benchScratch
	one(&plain, engine.Config{})
	for held := -1; ring.Bytes() > held; {
		held = ring.Bytes()
		one(&inst, engine.Config{Events: ring, Metrics: met})
	}
	base := testing.AllocsPerRun(20, func() { one(&plain, engine.Config{}) })
	withObs := testing.AllocsPerRun(20, func() { one(&inst, engine.Config{Events: ring, Metrics: met}) })
	if withObs > base {
		t.Fatalf("ring sink + metrics added %.1f allocs/run (%.1f vs %.1f base); the emit path must not allocate",
			withObs-base, withObs, base)
	}
}

// TestForEachSlotReusesScratch asserts the pool threading: a second
// ForEachSlot pass over per-slot scratch rebuilds no backends or arenas
// (slot identity holds) and stays within the residual allocation budget
// per run.
func TestForEachSlotReusesScratch(t *testing.T) {
	app := workload.Synthetic(0.10)
	platform := workload.DAS2(16)
	ecfg := engine.Config{ProbeLoad: 200}
	const runs = 4

	scratch := make([]benchScratch, parallel.Width(runs, 0))
	pass := func() {
		err := parallel.ForEachSlot(runs, 0, func(slot, run int) error {
			_, err := scratch[slot].run(platform, app, dls.NewUMR(),
				grid.Config{Seed: uint64(run)}, ecfg)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	pass() // builds the backend + arena of every slot that gets a run

	// Which slot takes which run is the scheduler's business: four runs
	// this short can all go to the first pool goroutine to start, so a
	// slot may still be empty here. Identity is asserted for the slots
	// that did run; one that first runs below costs a cold run's ~200
	// extra allocations, well inside the budget's headroom.
	before := make([]*grid.Backend, len(scratch))
	ran := 0
	for i := range scratch {
		before[i] = scratch[i].backend
		if before[i] != nil {
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("no slot ran in the first pass")
	}
	allocs := testing.AllocsPerRun(5, pass)
	for i := range scratch {
		if before[i] != nil && scratch[i].backend != before[i] {
			t.Errorf("slot %d rebuilt its backend across passes", i)
		}
	}
	if raceEnabled {
		return // identity checked; counts only hold in normal builds
	}
	// Budget: the per-run residual for every run, plus slack for the
	// pool's own goroutine/channel machinery at widths > 1.
	budget := float64(runs*warmRunResidualAllocs + 200)
	if allocs > budget {
		t.Errorf("warm ForEachSlot pass allocated %.0f allocs; want <= %.0f", allocs, budget)
	}
}
