package experiment

import (
	"errors"
	"strings"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/trace"
	"apstdv/internal/workload"
)

// TestSlotFollowsPlatform pins the slot's recycling rule: the backend is
// kept while the platform value stays and rebuilt when it changes, and
// either way a run's makespan is what a cold slot gives it.
func TestSlotFollowsPlatform(t *testing.T) {
	a, b := workload.DAS2(4), workload.Meteor(6)
	order := []*model.Platform{a, a, b, b, a}
	describe := func(p *model.Platform, seed uint64, r *Run) {
		*r = Run{Platform: p, App: workload.Synthetic(0.10), Algorithm: dls.NewUMR(),
			Grid: grid.Config{Seed: seed}, Engine: engine.Config{ProbeLoad: 200}}
	}

	var sl slot
	var backends []*grid.Backend
	for i, p := range order {
		describe(p, uint64(i), &sl.run)
		if err := sl.prepare(); err != nil {
			t.Fatal(err)
		}
		backends = append(backends, sl.backend)
	}
	if backends[0] != backends[1] || backends[2] != backends[3] {
		t.Error("slot rebuilt its backend although the platform stayed")
	}
	if backends[1] == backends[2] || backends[3] == backends[4] {
		t.Error("slot kept its backend across a platform change")
	}

	makespans := func(platforms []*model.Platform, seed0 int) []float64 {
		out := make([]float64, len(platforms))
		err := RunAll(len(platforms), 1, func(i int, r *Run) {
			describe(platforms[i], uint64(seed0+i), r)
		}, func(i int, _ *Run, tr *trace.Trace, err error) error {
			if err == nil {
				out[i] = tr.Makespan()
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	warm := makespans(order, 0)
	for i, p := range order {
		if cold := makespans([]*model.Platform{p}, i)[0]; warm[i] != cold {
			t.Errorf("run %d on %s: makespan %v on the recycled slot, %v on a cold one", i, p.Name, warm[i], cold)
		}
	}
}

// TestRunAllRoutesErrors pins who decides what: a run that fails while
// executing reaches collect, which may record it and carry on, and a
// backend that cannot be built aborts the fan-out without reaching
// collect.
func TestRunAllRoutesErrors(t *testing.T) {
	platform := workload.DAS2(2)
	everyoneCrashes := &grid.FaultPlan{Faults: []grid.WorkerFault{
		{Worker: 0, Kind: grid.FaultCrash, At: 1},
		{Worker: 1, Kind: grid.FaultCrash, At: 1},
	}}
	var failed [3]bool
	err := RunAll(3, 1, func(i int, r *Run) {
		*r = Run{Platform: platform, App: workload.Synthetic(0), Algorithm: dls.NewUMR(),
			Grid: grid.Config{Seed: 1}, Engine: engine.Config{ProbeLoad: 200, Retry: &engine.RetryPolicy{}}}
		if i == 1 {
			r.Grid.Faults = everyoneCrashes
		}
	}, func(i int, _ *Run, _ *trace.Trace, err error) error {
		failed[i] = err != nil
		return nil
	})
	if err != nil {
		t.Fatalf("an execution error collect swallowed still aborted the fan-out: %v", err)
	}
	if failed != [3]bool{false, true, false} {
		t.Errorf("execution errors seen by collect: %v, want only run 1", failed)
	}

	collected := 0
	err = RunAll(3, 1, func(i int, r *Run) {
		*r = Run{Platform: platform, App: workload.Synthetic(0), Algorithm: dls.NewUMR()}
		if i == 1 {
			r.App.TotalLoad = -1
		}
	}, func(int, *Run, *trace.Trace, error) error {
		collected++
		return nil
	})
	if err == nil || collected != 1 {
		t.Errorf("invalid application: err = %v after %d collected runs, want an error after 1", err, collected)
	}

	stop := errors.New("stop")
	err = RunAll(3, 1, func(i int, r *Run) {
		*r = Run{Platform: platform, App: workload.Synthetic(0), Algorithm: dls.NewUMR()}
	}, func(int, *Run, *trace.Trace, error) error { return stop })
	if !errors.Is(err, stop) {
		t.Errorf("collect's error: got %v, want it returned", err)
	}
}

// TestSharedFaultPlanMatchesFreshCopies shares one fault plan across
// every run of a RunAll pass four wide — its first use compiles it on
// whichever goroutine gets there first — and then across a pass one
// wide, and checks every run's makespan and error text against runs
// that each bring a fresh copy of the plan. Runs with retry complete
// around the crashes; runs without it fail with the crash error. Under
// -race this is the check that the compiled plan is read-only.
func TestSharedFaultPlanMatchesFreshCopies(t *testing.T) {
	platform := workload.WithTreeTopology(workload.Mixed(4, 4))
	app := workload.Synthetic(0.10)
	faults := []grid.WorkerFault{
		{Worker: 1, Kind: grid.FaultCrash, At: 1500},
		{Worker: 6, Kind: grid.FaultCrash, At: 4000},
		{Worker: 3, Kind: grid.FaultStall, At: 800, Duration: 300},
		{Worker: 4, Kind: grid.FaultSlowdown, At: 200, Duration: 2000, Factor: 3},
	}
	algs := []string{"umr", "rumr", "wf", "simple-5"}
	type outcome struct {
		makespan float64
		err      string
	}
	const n = 16
	pass := func(width int, plan func() *grid.FaultPlan) []outcome {
		t.Helper()
		out := make([]outcome, n)
		err := RunAll(n, width, func(i int, r *Run) {
			a, err := dls.New(algs[i%len(algs)])
			if err != nil {
				t.Error(err)
			}
			*r = Run{Platform: platform, App: app, Algorithm: a,
				Grid:   grid.Config{Seed: uint64(1 + i/2), Faults: plan()},
				Engine: engine.Config{ProbeLoad: 200}}
			if i%2 == 0 {
				r.Engine.Retry = &engine.RetryPolicy{Redistribute: true}
			}
		}, func(i int, _ *Run, tr *trace.Trace, err error) error {
			if err != nil {
				out[i].err = err.Error()
			} else {
				out[i].makespan = tr.Makespan()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	fresh := pass(1, func() *grid.FaultPlan {
		return &grid.FaultPlan{Faults: append([]grid.WorkerFault(nil), faults...)}
	})
	for i, o := range fresh {
		if retried := i%2 == 0; retried != (o.err == "") || !retried && !strings.Contains(o.err, "grid: worker down: worker ") {
			t.Fatalf("run %d (retry %v): makespan %v, error %q; want retried runs to complete and the rest to fail on a crash",
				i, retried, o.makespan, o.err)
		}
	}
	shared := &grid.FaultPlan{Faults: faults}
	for _, width := range []int{4, 1} {
		for i, o := range pass(width, func() *grid.FaultPlan { return shared }) {
			if o != fresh[i] {
				t.Errorf("width %d, run %d: shared plan gave %+v, a fresh copy %+v", width, i, o, fresh[i])
			}
		}
	}
}

// A crash grid shares each (group, probability, run) plan across the
// group's variants, so a variant on a platform of another size is
// refused before any run rather than counted as failed runs.
func TestCrashGridRefusesVariantsOfAnotherSize(t *testing.T) {
	g := &crashGrid{
		what: "test sweep", groups: []string{"g"}, probs: []float64{0.5}, runs: 1, seed: 1, width: 1,
		cells: []crashCell{{variant: 0}, {variant: 1}},
		describe: func(_, variant int, r *Run) {
			r.Platform = workload.Meteor(4 + variant)
			r.App = workload.Synthetic(0.1)
			r.Algorithm = dls.NewUMR()
			r.Engine.Retry = &engine.RetryPolicy{}
		},
	}
	_, _, err := g.run()
	if err == nil || !strings.Contains(err.Error(), "variant 1 of g runs on 5 workers, variant 0 on 4") {
		t.Fatalf("variants on 4 and 5 workers: error %v, want the size mismatch named", err)
	}
}
