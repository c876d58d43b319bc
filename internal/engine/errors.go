package engine

import "apstdv/internal/errcode"

// Typed terminal errors. They carry stable codes (package errcode) so
// they survive the daemon's wire boundary: the daemon records the
// code on the failed job, and the client re-attaches the sentinel with
// errcode.Decode, making errors.Is work on the far side of the wire.
var (
	// ErrStalled is returned when the run ends with load undispatched or
	// chunks in flight that nothing can complete — an algorithm that
	// stopped offering work, or a backend that went quiet.
	ErrStalled = errcode.New("engine_stalled", "engine: run stalled")

	// ErrAllWorkersLost is the graceful-degradation terminal error: every
	// worker was removed from service (crashes, blacklisting) before the
	// load finished, so only a partial result exists.
	ErrAllWorkersLost = errcode.New("all_workers_lost", "engine: all workers lost")
)
