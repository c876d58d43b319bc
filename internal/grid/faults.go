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
type FaultPlan struct {
	Faults []WorkerFault
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

// faultState is one worker's compiled fault schedule.
type faultState struct {
	crashAt float64 // +Inf when the worker never crashes
	windows []faultWindow
	// err is the error every op the crash cuts fails with, built on the
	// first cut (see Backend.crashErr) and kept while crashAt stays the
	// same, so cutting an op formats nothing.
	err *crashError
}

// validate refuses a plan that compileFaults could only drop from in
// silence: a fault on a worker outside the platform, or one with a NaN
// field. All errors wrap ErrInvalidFaultPlan.
func (p *FaultPlan) validate(workers int) error {
	if p == nil {
		return nil
	}
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

// compileFaults turns a validated plan into per-worker state, reusing
// buf's storage (window lists and built crash errors included). Returns
// nil for a nil/empty plan so the hot paths can gate on one pointer
// check.
func compileFaults(buf []faultState, plan *FaultPlan, workers int) []faultState {
	if plan == nil || len(plan.Faults) == 0 {
		return nil
	}
	fs := buf[:0]
	for i := 0; i < workers; i++ {
		if i < len(buf) {
			fs = append(fs, faultState{windows: buf[i].windows[:0], err: buf[i].err})
		} else {
			fs = append(fs, faultState{})
		}
		fs[i].crashAt = math.Inf(1)
	}
	for _, f := range plan.Faults {
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
		if len(fs[i].windows) > 1 {
			sort.Slice(fs[i].windows, func(a, b int) bool {
				return fs[i].windows[a].start < fs[i].windows[b].start
			})
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

// crashError is the operation error of a crashed worker. It is built
// once per crashed worker and run, never changed after, and shared by
// every op the crash cuts; errors.Is(err, ErrWorkerDown) holds.
type crashError struct {
	at  float64
	msg string
}

func (e *crashError) Error() string { return e.msg }
func (e *crashError) Unwrap() error { return ErrWorkerDown }

// crashErr returns the error of an op worker w's crash cuts. Its text
// is "grid: worker down: worker W crashed at t=%.3gs", written with
// strconv so that building it costs the text and the value only.
func (b *Backend) crashErr(w int) error {
	f := &b.faults[w]
	if f.err == nil || f.err.at != f.crashAt {
		var buf [64]byte
		msg := append(buf[:0], ErrWorkerDown.Error()...)
		msg = append(msg, ": worker "...)
		msg = strconv.AppendInt(msg, int64(w), 10)
		msg = append(msg, " crashed at t="...)
		msg = strconv.AppendFloat(msg, f.crashAt, 'g', 3, 64)
		msg = append(msg, 's')
		f.err = &crashError{at: f.crashAt, msg: string(msg)}
	}
	return f.err
}
