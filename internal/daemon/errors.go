package daemon

import "apstdv/internal/errcode"

// Typed daemon errors. They are errcode sentinels, so the stable code
// embedded in the message survives the error frame's string and
// clients recover errors.Is-able values with errcode.Decode (package
// client does this on every call).
var (
	// ErrQueueFull rejects a submission when the admission queue is at
	// its configured depth.
	ErrQueueFull = errcode.New("queue_full", "daemon: run queue full")
	// ErrJobNotFound reports an RPC against an unknown job id.
	ErrJobNotFound = errcode.New("job_not_found", "daemon: no such job")
	// ErrJobCancelled is the cancellation cause attached to a job's
	// context by the Cancel RPC.
	ErrJobCancelled = errcode.New("job_cancelled", "daemon: job cancelled")
	// ErrDraining rejects submissions (and cancels queued jobs) once
	// Shutdown has begun.
	ErrDraining = errcode.New("draining", "daemon: shutting down, not accepting jobs")
	// ErrTracingOff reports a Trace RPC against a daemon running without
	// a span collector (start it with -trace).
	ErrTracingOff = errcode.New("tracing_off", "daemon: tracing disabled")
)
