// Package errcode gives sentinel errors a stable machine-readable code
// that survives string-only transports. The frame transport carries a
// server-side error as its message (a transport.RemoteError is just a
// string), so a client cannot use errors.Is against the server's
// sentinels directly. A coded sentinel embeds " [code=X]" in its
// message; Decode on the receiving side recognizes the marker and
// re-attaches the registered sentinel, making errors.Is work across the
// wire:
//
//	// server
//	var ErrQueueFull = errcode.New("queue_full", "daemon: run queue full")
//	return fmt.Errorf("job %d: %w", id, ErrQueueFull)
//
//	// client
//	err := errcode.Decode(conn.Call(...))
//	errors.Is(err, daemon.ErrQueueFull) // true
//
// Codes are registered process-wide by New; both ends of an RPC link in
// the same binary (the common test setup) or split binaries built from
// the same tree share the table.
package errcode

import (
	"strings"
	"sync"
)

// Error is a sentinel with a stable code. Construct with New.
type Error struct {
	code string
	msg  string
}

// Error implements error; the code marker is part of the message so it
// rides any %w / %v formatting and any transport that keeps the string.
func (e *Error) Error() string { return e.msg + " [code=" + e.code + "]" }

var (
	mu       sync.Mutex
	registry = map[string]*Error{}
)

// New registers a coded sentinel. The code is a short stable token
// ([a-z0-9_]); registering the same code twice panics — codes are a
// global contract, like metric names.
func New(code, msg string) *Error {
	if code == "" || strings.ContainsAny(code, " []=") {
		panic("errcode: invalid code " + code)
	}
	e := &Error{code: code, msg: msg}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[code]; dup {
		panic("errcode: duplicate code " + code)
	}
	registry[code] = e
	return e
}

// lookup returns the registered sentinel for code, or nil.
func lookup(code string) *Error {
	mu.Lock()
	defer mu.Unlock()
	return registry[code]
}

// Code extracts the first code marker embedded in err's message, or ""
// when there is none. It works on any error, including one that crossed
// a string-only transport.
func Code(err error) string {
	if err == nil {
		return ""
	}
	return parseCode(err.Error())
}

func parseCode(s string) string {
	i := strings.Index(s, "[code=")
	if i < 0 {
		return ""
	}
	rest := s[i+len("[code="):]
	j := strings.IndexByte(rest, ']')
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// remote is a decoded transported error: the full message as received,
// unwrapping to the registered sentinel so errors.Is matches.
type remote struct {
	msg      string
	sentinel error
}

func (r *remote) Error() string { return r.msg }
func (r *remote) Unwrap() error { return r.sentinel }

// Decode re-attaches the registered sentinel to an error that crossed a
// string-only transport: if err's message embeds a known code marker,
// the result wraps the matching sentinel (message preserved verbatim).
// Errors without a marker — or with an unregistered code — pass through
// unchanged, as does nil.
func Decode(err error) error {
	if err == nil {
		return nil
	}
	code := parseCode(err.Error())
	if code == "" {
		return err
	}
	sent := lookup(code)
	if sent == nil {
		return err
	}
	return &remote{msg: err.Error(), sentinel: sent}
}
