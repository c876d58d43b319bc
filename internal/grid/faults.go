package grid

// This file is the fault-injection layer: seeded, deterministic worker
// crashes, stalls, and slowdowns that surface to the engine as
// operation errors (crash) or late completions (stall, slowdown), so
// the chunk-lifecycle retry layer can be exercised reproducibly. A nil
// FaultPlan leaves every code path and every rng stream untouched —
// zero-fault runs are byte-identical to a build without this file.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"apstdv/internal/errcode"
	"apstdv/internal/rng"
)

// ErrWorkerDown marks operations that failed because the target worker
// crashed. Engine-level error mapping can match it with errors.Is.
var ErrWorkerDown = errors.New("grid: worker down")

// ErrInvalidFaultPlan marks a fault plan New and Reset refuse: one that
// names a worker outside the platform or has a NaN At, Duration or
// Factor. Such a fault cannot be injected, and dropping it would run the
// job fault-free without a word.
var ErrInvalidFaultPlan = errcode.New("bad_fault_plan", "grid: invalid fault plan")

// FaultKind classifies one injected fault.
type FaultKind int

const (
	// FaultCrash kills the worker at time At: operations in progress
	// fail then, later ones fail immediately.
	FaultCrash FaultKind = iota
	// FaultStall freezes the worker's CPU for Duration seconds starting
	// at At: computations in progress make no headway and finish late —
	// invisible to the engine except through stage deadlines.
	FaultStall
	// FaultSlowdown divides the worker's CPU speed by Factor during
	// [At, At+Duration).
	FaultSlowdown
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultStall:
		return "stall"
	case FaultSlowdown:
		return "slowdown"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// WorkerFault is one injected fault.
type WorkerFault struct {
	Worker int
	Kind   FaultKind
	// At is the fault's onset in simulation seconds.
	At float64
	// Duration bounds stall and slowdown windows (ignored for crashes);
	// non-positive windows are dropped.
	Duration float64
	// Factor is the slowdown divisor (e.g. 4 = quarter speed); values
	// <= 1 make the window a no-op.
	Factor float64
}

// FaultPlan is the full injection schedule for one run.
//
// A plan is compiled once, on its first run, into the per-worker state
// the backend reads: the crash instant, the sorted stall and slowdown
// windows, and the crash error with its text. That state is cached on
// the plan and shared read-only by every backend that runs it on a
// platform of that first run's size, on any goroutine, so a plan must
// not be modified after a run has used it: later runs would keep the
// schedule compiled first. Build a new plan instead.
type FaultPlan struct {
	Faults []WorkerFault

	// The plan compiled for the platform size of its first run (see
	// compile).
	once     sync.Once
	workers  int
	compiled []faultState
}

// RandomCrashPlan draws an independent crash for each worker with the
// given probability, uniformly timed in [from, to). The draw order is
// fixed (worker 0..n-1, one probability draw each, one time draw per
// crash), so equal seeds give equal plans. If every worker drew a
// crash, the latest one is dropped — a run with no survivors can only
// degrade to a partial result, which the sweep treats separately.
func RandomCrashPlan(seed uint64, workers int, prob, from, to float64) *FaultPlan {
	src := rng.Stream(seed, "fault/crash")
	var faults []WorkerFault
	for w := 0; w < workers; w++ {
		if src.Float64() < prob {
			faults = append(faults, WorkerFault{Worker: w, Kind: FaultCrash, At: src.Uniform(from, to)})
		}
	}
	if len(faults) == workers && workers > 0 {
		latest := 0
		for i, f := range faults {
			if f.At > faults[latest].At {
				latest = i
			}
		}
		faults = append(faults[:latest], faults[latest+1:]...)
	}
	if len(faults) == 0 {
		return nil
	}
	return &FaultPlan{Faults: faults}
}

// faultWindow is a span of reduced CPU availability: rate 0 (stall) or
// 1/Factor (slowdown).
type faultWindow struct {
	start, end, rate float64
}

// faultState is one worker's compiled fault schedule. It is built once
// per plan and read-only after (see FaultPlan.compile).
type faultState struct {
	crashAt float64 // +Inf when the worker never crashes
	windows []faultWindow
	// err is the error every op the crash cuts fails with; its text is
	// empty when the worker never crashes.
	err crashError
}

// validate refuses a plan that compileFaults could only drop from in
// silence: a fault on a worker outside the platform, or one with a NaN
// field. All errors wrap ErrInvalidFaultPlan.
func (p *FaultPlan) validate(workers int) error {
	for i, f := range p.Faults {
		if f.Worker < 0 || f.Worker >= workers {
			return fmt.Errorf("%w: fault %d (%s) names worker %d of a %d-worker platform",
				ErrInvalidFaultPlan, i, f.Kind, f.Worker, workers)
		}
		if math.IsNaN(f.At) || math.IsNaN(f.Duration) || math.IsNaN(f.Factor) {
			return fmt.Errorf("%w: fault %d (%s on worker %d) has a NaN at, duration or factor",
				ErrInvalidFaultPlan, i, f.Kind, f.Worker)
		}
	}
	return nil
}

// compile returns the plan's per-worker state on a platform of the
// given size: nil for a nil or empty plan, so the hot paths can gate on
// one nil check. The plan is compiled on its first valid use and the
// state cached on it; every backend that runs the plan on that size,
// on any goroutine, then shares it read-only. A run on another size
// compiles the plan afresh.
func (p *FaultPlan) compile(workers int) ([]faultState, error) {
	if p == nil {
		return nil, nil
	}
	if err := p.validate(workers); err != nil {
		return nil, err
	}
	p.once.Do(func() { p.workers, p.compiled = workers, compileFaults(p.Faults, workers) })
	if p.workers != workers {
		return compileFaults(p.Faults, workers), nil
	}
	return p.compiled, nil
}

// compileFaults turns validated faults into per-worker state, each
// crashed worker's error built with its final text. It allocates the
// state and one string per crashed worker (plus the window lists of
// stalls and slowdowns).
func compileFaults(faults []WorkerFault, workers int) []faultState {
	if len(faults) == 0 {
		return nil
	}
	fs := make([]faultState, workers)
	for i := range fs {
		fs[i].crashAt = math.Inf(1)
	}
	for _, f := range faults {
		st := &fs[f.Worker]
		switch f.Kind {
		case FaultCrash:
			if f.At < st.crashAt {
				st.crashAt = f.At
			}
		case FaultStall:
			if f.Duration > 0 {
				st.windows = append(st.windows, faultWindow{f.At, f.At + f.Duration, 0})
			}
		case FaultSlowdown:
			if f.Duration > 0 && f.Factor > 1 {
				st.windows = append(st.windows, faultWindow{f.At, f.At + f.Duration, 1 / f.Factor})
			}
		}
	}
	for i := range fs {
		st := &fs[i]
		if len(st.windows) > 1 {
			sort.Slice(st.windows, func(a, b int) bool {
				return st.windows[a].start < st.windows[b].start
			})
		}
		if !math.IsInf(st.crashAt, 1) {
			// "grid: worker down: worker W crashed at t=%.3gs", written
			// with strconv so that it costs the string only.
			var buf [64]byte
			msg := append(buf[:0], ErrWorkerDown.Error()...)
			msg = append(msg, ": worker "...)
			msg = strconv.AppendInt(msg, int64(i), 10)
			msg = append(msg, " crashed at t="...)
			msg = strconv.AppendFloat(msg, st.crashAt, 'g', 3, 64)
			st.err.msg = string(append(msg, 's'))
		}
	}
	return fs
}

// rateAt returns the CPU availability at time t and the horizon up to
// which that rate holds.
func (f *faultState) rateAt(t float64) (rate, until float64) {
	rate, until = 1, math.Inf(1)
	for _, w := range f.windows {
		if t >= w.start && t < w.end {
			return w.rate, w.end
		}
		if w.start > t && w.start < until {
			until = w.start
		}
	}
	return rate, until
}

// stretch returns the wall time to complete work seconds of CPU demand
// starting at start, walking the fault windows piecewise (the same
// shape as bgProcess.finish). Overlapping windows resolve to the first
// one in start order.
func (f *faultState) stretch(start, work float64) float64 {
	if len(f.windows) == 0 {
		return work
	}
	t := start
	for work > 1e-12 {
		rate, until := f.rateAt(t)
		if rate <= 0 {
			// Stalled: no headway until the window closes. Windows are
			// finite by construction, so until is too.
			t = until
			continue
		}
		if need := work / rate; t+need <= until {
			t += need
			work = 0
		} else {
			work -= (until - t) * rate
			t = until
		}
	}
	return t - start
}

// crashError is the operation error of a crashed worker. It lives in
// the compiled plan's state, is never changed after compiling, and is
// shared by every op the crash cuts, in every run of the plan that
// shares that state; errors.Is(err, ErrWorkerDown) holds.
type crashError struct {
	msg string
}

func (e *crashError) Error() string { return e.msg }
func (e *crashError) Unwrap() error { return ErrWorkerDown }

// crashErr returns the error of an op worker w's crash cuts: "grid:
// worker down: worker W crashed at t=%.3gs".
func (b *Backend) crashErr(w int) error { return &b.faults[w].err }
