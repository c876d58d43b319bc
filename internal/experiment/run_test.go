package experiment

import (
	"errors"
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
