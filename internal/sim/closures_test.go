package sim

import "apstdv/internal/units"

// at, after and enqueue let a test schedule closures through the arg
// forms, the only ones the package offers: each wraps the closure in a
// long-lived-callback shape and ignores the argument.
func at(e *Engine, t units.Seconds, fn func()) Handle {
	return e.AtArg(t, func(uint64) { fn() }, 0)
}

func after(e *Engine, d units.Seconds, fn func()) Handle {
	return at(e, e.Now()+d, fn)
}

func enqueue(q *FCFSQueue, dur func(start units.Seconds) units.Seconds, done func(start, end units.Seconds)) {
	q.EnqueueArg(0,
		func(_ uint64, start units.Seconds) units.Seconds { return dur(start) },
		func(_ uint64, start, end units.Seconds) { done(start, end) })
}
