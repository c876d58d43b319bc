// Package transport is the repository's one wire: a length-prefixed
// binary framing protocol with multiplexed request ids, spoken on both
// the client↔daemon and daemon↔worker paths.
//
// It is hand-rolled rather than net/rpc because at the submission rates
// the daemon is built for, per-call costs — reflection-driven gob
// encoding, a goroutine per in-flight request, a write syscall per
// message — and not the scheduler were the ceiling (the archived
// comparison is in docs/bench-history/: 4.7–6.8× the submission rate).
//
// The protocol. Every message is one frame:
//
//	uint32  length of the remainder, big-endian (bounded by MaxFrame)
//	uvarint request id
//	byte    kind: 0 request, 1 response, 2 error response;
//	        bit 0x80 set = trace context follows
//	trace context (only when the 0x80 bit is set):
//	        uvarint trace id, uvarint parent span id
//	request:        uvarint method id, then the argument payload
//	response:       the reply payload
//	error response: uvarint length + error string
//
// Trace propagation rides the kind byte's high bit: a traced request
// inserts two uvarints (trace id, caller span id) between the kind
// byte and the method id, and servers hand them to handlers as a
// TraceContext. Untraced frames pay zero extra bytes, and a server
// predating the flag would reject the unknown kind rather than
// misparse the payload.
//
// Payloads use the compact codec in codec.go — varints, fixed 8-byte
// floats, length-prefixed strings — hand-written per message type, with
// no per-call reflection and no type negotiation.
//
// Multiplexing and pipelining: one connection carries many in-flight
// calls; the request id matches responses to callers, so responses may
// return in any order and a slow call never blocks the connection.
// Writers on both sides coalesce: frames queued while a write syscall
// is in progress are drained into the same buffered write, so at high
// call rates many frames share one syscall.
//
// Backpressure is explicit at both ends. Client side, each connection
// has a bounded in-flight window: callers block for a slot rather than
// queueing unboundedly. Server side, decoded requests enter a bounded
// dispatch queue drained by a fixed worker pool (no goroutine per
// request); when the queue is full the server fast-rejects with
// ErrOverloaded without doing any work, which composes with the
// daemon's admission control — the transport sheds load it cannot
// serve, admission control sheds load it will not run.
//
// Error semantics: a handler error travels as the error string and
// resurfaces as *RemoteError; because errcode sentinels embed their
// [code=…] marker in the message, errcode.Decode re-attaches typed
// errors on the client side.
package transport

import (
	"errors"

	"apstdv/internal/errcode"
)

// Frame kinds (the byte after the request id).
const (
	kindRequest  = 0
	kindResponse = 1
	kindError    = 2

	// kindTraceFlag marks a frame carrying a trace context (two
	// uvarints after the kind byte). It is masked off before kind
	// dispatch.
	kindTraceFlag = 0x80
)

// TraceContext is the trace/span id pair a traced request carries
// across the wire. The zero value means "untraced" and costs nothing
// on the frame.
type TraceContext struct {
	Trace uint64 // trace id (0 = untraced)
	Span  uint64 // caller's span id, the parent for server-side spans
}

// Valid reports whether the context carries a trace.
func (tc TraceContext) Valid() bool { return tc.Trace != 0 }

// Defaults, overridable per Config/ServerConfig.
const (
	// DefaultMaxFrame bounds a single frame. Execution reports (CSV +
	// Gantt) are the largest legitimate payloads.
	DefaultMaxFrame = 16 << 20
	// DefaultWindow is the per-connection in-flight call bound.
	DefaultWindow = 256
	// DefaultQueueDepth is the server dispatch queue bound.
	DefaultQueueDepth = 1024
)

// Typed transport errors that cross the wire as coded sentinels
// (errcode), so errors.Is works on the far side of any string-only
// path.
var (
	// ErrOverloaded is the server's fast-reject: the dispatch queue was
	// full, the request was not executed.
	ErrOverloaded = errcode.New("overloaded", "transport: server overloaded, request rejected")
	// ErrTooLarge rejects a frame exceeding the size limit. A server
	// receiving an oversized request discards it and answers with this
	// error; the connection survives.
	ErrTooLarge = errcode.New("frame_too_large", "transport: frame exceeds size limit")
)

// Local (never transported) sentinels.
var (
	// ErrClosed reports a call against a closed connection or pool.
	ErrClosed = errors.New("transport: connection closed")
	// ErrTimeout reports a call abandoned by its deadline. The
	// connection survives: the request id is retired, so a late
	// response is discarded instead of being mistaken for another
	// call's.
	ErrTimeout = errors.New("transport: call timed out")
)

// RemoteError is an error string returned by the remote handler — as
// opposed to a local dial, encode, or connection failure. Its presence
// tells callers the request reached the server and the failure is not
// transient; clients re-attach typed sentinels with errcode.Decode.
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return e.Msg }

// IsRemote reports whether err (or anything it wraps) is a remote
// handler error. Transport-level failures — dial refused, connection
// reset, frame truncated — are not remote: the call may never have
// reached the server, and retrying on a fresh connection is sound.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}
