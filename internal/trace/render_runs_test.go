package trace_test

import (
	"context"
	"fmt"
	"testing"

	"apstdv/internal/divide"
	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/experiment"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/trace"
	"apstdv/internal/units"
	"apstdv/internal/workload"
)

// checkRun executes one simulated run and holds every renderer to its
// reference on the trace, at the Gantt width the daemon and dlsim use
// and at the default.
func checkRun(t *testing.T, cell string, p *model.Platform, app *model.Application,
	alg dls.Algorithm, seed uint64, ecfg engine.Config) {
	t.Helper()
	backend, err := grid.New(p, app, grid.Config{Seed: seed})
	if err != nil {
		t.Fatalf("%s: %v", cell, err)
	}
	tr, err := engine.Execute(context.Background(), engine.Request{
		Backend: backend, Algorithm: alg, App: app, Platform: p, Config: ecfg,
	})
	if err != nil {
		t.Fatalf("%s: %v", cell, err)
	}
	for _, width := range []int{100, 0} {
		if refPanicked, err := trace.CheckAgainstReference(tr, len(p.Workers), width); err != nil || refPanicked {
			t.Fatalf("%s (%d records), width %d: reference panicked %v: %v", cell, tr.Len(), width, refPanicked, err)
		}
	}
}

// TestRenderersMatchReferenceOnPaperRuns covers the traces the
// benchmark's sim_paper workload analyses: every (γ, algorithm, run)
// cell of the paper's four experiments, with Spec.runOnce's seeds.
func TestRenderersMatchReferenceOnPaperRuns(t *testing.T) {
	cells := 0
	for _, s := range experiment.All() {
		for _, gamma := range s.Gammas {
			app := s.App(gamma)
			for ai, a := range s.Algorithms() {
				for run := 0; run < s.Runs; run++ {
					cell := fmt.Sprintf("%s/g%g/%s/%d", s.ID, gamma, a.Name(), run)
					checkRun(t, cell, s.Platform, app, s.Algorithms()[ai],
						s.Seed+uint64(run)*1000003, engine.Config{ProbeLoad: s.ProbeLoad})
					cells++
				}
			}
		}
	}
	if cells != 420 {
		t.Errorf("%d cells; the paper's evaluation has 420", cells)
	}
}

// TestRenderersMatchReferenceOnServedJobs covers the three job kinds
// the serving workloads submit, run the way the daemon's sim mode runs
// them: whole work units on DAS-2(16), seed 1.
func TestRenderersMatchReferenceOnServedJobs(t *testing.T) {
	for _, k := range []struct {
		alg  string
		load int
	}{{"simple-1", 16}, {"umr", 20000}, {"simple-250", 4000}} {
		div, err := divide.NewWorkUnits(k.load)
		if err != nil {
			t.Fatal(err)
		}
		alg, err := dls.New(k.alg)
		if err != nil {
			t.Fatal(err)
		}
		app := &model.Application{
			Name: "bench", TotalLoad: units.Load(div.TotalLoad()),
			BytesPerUnit: 1000, UnitCost: 0.05, MinChunk: 1,
		}
		checkRun(t, fmt.Sprintf("%s/load%d", k.alg, k.load), workload.DAS2(16), app, alg, 1,
			engine.Config{Divider: div})
	}
}
