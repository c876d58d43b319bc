// Package client is the library behind the APST-DV console (cmd/apstdv):
// a thin, typed wrapper around the daemon's serving interface.
//
// Calls travel over a self-healing pool of frame-transport connections
// (see internal/transport). Every call decodes transported errors with
// errcode.Decode, so the daemon's typed sentinels (daemon.ErrQueueFull,
// daemon.ErrJobNotFound, ...) survive the wire and errors.Is works on
// this side.
package client

import (
	"context"
	"errors"
	"fmt"
	"time"

	"apstdv/internal/daemon"
	"apstdv/internal/errcode"
	"apstdv/internal/obs"
	otrace "apstdv/internal/obs/trace"
	"apstdv/internal/transport"
)

// Options configures a connection. The zero value means the package
// defaults.
type Options struct {
	// Conns is the connection pool size (default 1; the transport
	// multiplexes, so one connection carries many calls).
	Conns int
	// Window bounds in-flight calls per connection (default
	// transport.DefaultWindow).
	Window int
	// Metrics, when set, receives client-side transport counters.
	Metrics *obs.TransportMetrics
	// Tracer, when set, makes Submit mint a trace id and record a
	// "client.submit" span locally; the id rides to the daemon in the
	// frame header, so one trace stitches client, daemon, engine and
	// workers.
	Tracer *otrace.Collector
}

// Client talks to one daemon.
type Client struct {
	pool   *transport.Pool
	tracer *otrace.Collector
}

// Dial connects to a daemon at addr (host:port).
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects with explicit options.
func DialOptions(addr string, opts Options) (*Client, error) {
	c := &Client{
		pool: transport.NewPool(addr, opts.Conns, transport.Config{
			Window: opts.Window, Metrics: opts.Metrics,
		}),
		tracer: opts.Tracer,
	}
	// The pool dials lazily; probe eagerly so Dial keeps its
	// connect-or-error contract.
	if _, err := c.Algorithms(); err != nil {
		c.pool.Close()
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return c, nil
}

// Close releases the connections. Idempotent.
func (c *Client) Close() error { return c.pool.Close() }

// call performs one RPC, re-attaching registered error sentinels to the
// string the transport flattened the server error into.
func (c *Client) call(method uint16, args transport.Appender, reply transport.Decoder) error {
	return errcode.Decode(c.pool.Call(method, args, reply))
}

// transient reports whether err is a connection-level failure: the
// server never answered, and the pool redials on the next call. A
// handler answer — a frame error response, anything carrying an errcode
// marker — is authoritative and not transient.
func transient(err error) bool {
	return err != nil && !transport.IsRemote(err) && errcode.Code(err) == ""
}

// shed reports whether the server fast-rejected the call with
// transport.ErrOverloaded before any decode or handler ran: the answer
// says nothing about the request, so a polling loop asks again. One-shot
// calls such as Submit still surface it immediately.
func shed(err error) bool { return errors.Is(err, transport.ErrOverloaded) }

// Submit sends a task specification. algorithm (optional) overrides the
// spec's algorithm attribute; priority is the admission class (high,
// normal or low; empty = normal); simApp supplies sim-mode ground
// truth. A full queue rejects with daemon.ErrQueueFull.
func (c *Client) Submit(taskXML, algorithm, priority string, simApp *daemon.SimApp) (daemon.SubmitReply, error) {
	args := &daemon.SubmitArgs{
		TaskXML: taskXML, Algorithm: algorithm, Priority: priority, SimApp: simApp,
	}
	// With a tracer, mint the trace here so the daemon's spans parent
	// under the client's view of the submit. The ids ride the frame
	// header, which also lets the transport server attribute its decode
	// work to the trace.
	var tc transport.TraceContext
	var sp otrace.Span
	if tr := c.tracer; tr != nil {
		tid := tr.NewTraceID()
		sp = tr.Begin(tid, 0, "client.submit")
		tc = transport.TraceContext{Trace: uint64(tid), Span: uint64(sp.ID())}
	}
	var reply daemon.SubmitReply
	err := errcode.Decode(c.pool.CallTrace(daemon.MethodSubmit, args, &reply, tc))
	sp.End(err)
	return reply, err
}

// Status fetches a job's state.
func (c *Client) Status(jobID int) (daemon.Job, error) {
	var reply daemon.StatusReply
	err := c.call(daemon.MethodStatus, &daemon.StatusArgs{JobID: jobID}, &reply)
	return reply.Job, err
}

// Cancel requests cancellation of a queued or running job and returns
// the job's state as of the request (a running job unwinds
// asynchronously; poll Status or WaitDone for the terminal state).
func (c *Client) Cancel(jobID int) (daemon.JobState, error) {
	var reply daemon.CancelReply
	err := c.call(daemon.MethodCancel, &daemon.CancelArgs{JobID: jobID}, &reply)
	return reply.State, err
}

// Report fetches a finished job's execution report.
func (c *Client) Report(jobID int) (daemon.ReportReply, error) {
	var reply daemon.ReportReply
	err := c.call(daemon.MethodReport, &daemon.ReportArgs{JobID: jobID}, &reply)
	return reply, err
}

// Algorithms lists the scheduler names the daemon accepts.
func (c *Client) Algorithms() ([]string, error) {
	var reply daemon.AlgorithmsReply
	err := c.call(daemon.MethodAlgorithms, &daemon.AlgorithmsArgs{}, &reply)
	return reply.Names, err
}

// ListJobs returns the full job listing reply, including the daemon's
// co-scheduling policy alongside the job summaries.
func (c *Client) ListJobs() (daemon.ListJobsReply, error) {
	var reply daemon.ListJobsReply
	err := c.call(daemon.MethodListJobs, &daemon.ListJobsArgs{}, &reply)
	return reply, err
}

// Trace fetches a job's retained span tree from the daemon. Fails with
// daemon.ErrTracingOff when the daemon runs without a collector.
func (c *Client) Trace(jobID int) (daemon.TraceReply, error) {
	var reply daemon.TraceReply
	err := c.call(daemon.MethodTrace, &daemon.TraceArgs{JobID: jobID}, &reply)
	return reply, err
}

// TraceStats fetches the daemon's per-stage latency aggregates.
func (c *Client) TraceStats() (daemon.TraceStatsReply, error) {
	var reply daemon.TraceStatsReply
	err := c.call(daemon.MethodTraceStats, &daemon.TraceStatsArgs{}, &reply)
	return reply, err
}

// Events fetches the tail of a job's event stream: retained events with
// Seq > afterSeq, the job's current state, and whether the ring dropped
// events the cursor missed.
func (c *Client) Events(jobID int, afterSeq int64) ([]obs.Event, daemon.JobState, bool, error) {
	var reply daemon.EventsReply
	err := c.call(daemon.MethodEvents, &daemon.EventsArgs{JobID: jobID, AfterSeq: afterSeq}, &reply)
	return reply.Events, reply.State, reply.Dropped, err
}

// active reports whether a job can still make progress.
func active(state daemon.JobState) bool {
	return state == daemon.JobRunning || state == daemon.JobQueued
}

// Retry backoff for the polling loops (FollowEventsFrom, WaitDone):
// exponential from followBackoffMin capped at followBackoffMax.
const (
	followBackoffMin = 100 * time.Millisecond
	followBackoffMax = 5 * time.Second
)

// FollowEventsFrom polls the job's event stream, calling fn for every
// event after afterSeq in seq order, until the job reaches a terminal
// state and the stream is drained, or ctx is cancelled (the context
// error is returned). afterSeq -1 follows from the beginning; events
// with Seq <= afterSeq are never redelivered, so a caller that outlives
// a connection resumes from its last seen seq (apstdv events -follow
// does) without replaying the ring.
//
// Transient connection failures — daemon restart, dropped conn — and
// polls shed by an overloaded server do not end the follow: the client
// retries with capped exponential backoff and resumes from its cursor,
// so the caller sees a gap only if the ring evicted events meanwhile.
// Server-side errors (unknown job, and any other answer the daemon
// actually produced) return immediately.
func (c *Client) FollowEventsFrom(ctx context.Context, jobID int, afterSeq int64, poll time.Duration, fn func(obs.Event)) error {
	after := afterSeq
	backoff := followBackoffMin
	for {
		var reply daemon.EventsReply
		err := c.call(daemon.MethodEvents, &daemon.EventsArgs{JobID: jobID, AfterSeq: after}, &reply)
		switch {
		case err == nil:
			backoff = followBackoffMin
			for _, ev := range reply.Events {
				fn(ev)
				after = ev.Seq
			}
			if !active(reply.State) && len(reply.Events) == 0 {
				return nil
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("client: following job %d events: %w", jobID, context.Cause(ctx))
			case <-time.After(poll):
			}
		case transient(err) || shed(err):
			select {
			case <-ctx.Done():
				return fmt.Errorf("client: following job %d events: %w", jobID, context.Cause(ctx))
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, followBackoffMax)
		default:
			return err
		}
	}
}

// WaitDone polls until the job reaches a terminal state (done, failed,
// cancelled or rejected) or ctx is cancelled, in which case the last
// observed job snapshot and the context error are returned. A poll shed
// by an overloaded server is retried under the follow backoff; any
// other error ends the wait.
func (c *Client) WaitDone(ctx context.Context, jobID int, poll time.Duration) (daemon.Job, error) {
	var job daemon.Job
	backoff := followBackoffMin
	for {
		wait := poll
		j, err := c.Status(jobID)
		switch {
		case err == nil:
			job, backoff = j, followBackoffMin
			if !active(job.State) {
				return job, nil
			}
		case shed(err):
			wait, backoff = backoff, min(2*backoff, followBackoffMax)
		default:
			return job, err
		}
		select {
		case <-ctx.Done():
			return job, fmt.Errorf("client: job %d still %s: %w", jobID, job.State, context.Cause(ctx))
		case <-time.After(wait):
		}
	}
}
