package experiment

import (
	"context"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/parallel"
	"apstdv/internal/trace"
)

// Run describes one simulated run: an application on a platform under
// one algorithm, with the backend's and the engine's configuration. It
// is the unit every experiment is made of — a figure, a sweep, a dlsim
// invocation and an ablation are each a list of these handed to RunAll.
type Run struct {
	Platform  *model.Platform
	App       *model.Application
	Algorithm dls.Algorithm
	Grid      grid.Config
	Engine    engine.Config
}

// slot is one pool worker's recycled state: the descriptor of the run
// it is executing, and the backend and engine arena that run after run
// reuse. Reuse is invisible in the results — Reset re-derives every
// backend stream and queue from (app, config) exactly as construction
// would, and the arena fences all cross-run state by epoch.
type slot struct {
	run     Run
	backend *grid.Backend
	built   *model.Platform // the platform backend was built for
	arena   *engine.Arena
}

// prepare points the slot's backend at the described run. A backend is
// fixed to its platform, so it is built on the slot's first run and
// whenever the platform changes, and reset in place otherwise: a sweep
// that orders its runs by platform builds one backend per platform and
// slot.
func (sl *slot) prepare() error {
	r := &sl.run
	if sl.backend != nil && sl.built == r.Platform {
		return sl.backend.Reset(r.App, r.Grid)
	}
	b, err := grid.New(r.Platform, r.App, r.Grid)
	if err != nil {
		return err
	}
	sl.backend, sl.built = b, r.Platform
	if sl.arena == nil {
		sl.arena = engine.NewArena()
	}
	return nil
}

// RunAll executes n independently described runs on a pool `width` wide
// (<= 0 means one worker per CPU). For each index, describe fills in a
// zeroed descriptor, the run executes on a recycled slot, and collect
// receives the descriptor back with the run's trace and execution
// error; collect writes entry i of a result the caller preallocated, so
// the outcome is the same at every width. The descriptor and the trace
// belong to the slot: both are valid only until collect returns (Clone
// a trace to keep it).
//
// A backend that cannot be built aborts the fan-out, as does an error
// from collect; whether a failed execution does is collect's decision —
// the crash sweeps record it as a data point. Among several errors the
// one with the lowest index is returned.
func RunAll(n, width int, describe func(i int, r *Run),
	collect func(i int, r *Run, tr *trace.Trace, err error) error) error {
	slots := make([]slot, parallel.Width(n, width))
	return parallel.ForEachSlot(n, width, func(s, i int) error {
		sl := &slots[s]
		sl.run = Run{}
		describe(i, &sl.run)
		if err := sl.prepare(); err != nil {
			return err
		}
		tr, err := engine.Execute(context.Background(), engine.Request{
			Backend: sl.backend, Algorithm: sl.run.Algorithm, App: sl.run.App,
			Platform: sl.run.Platform, Config: sl.run.Engine, Arena: sl.arena,
		})
		return collect(i, &sl.run, tr, err)
	})
}
