package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"apstdv/internal/obs"
	otrace "apstdv/internal/obs/trace"
)

// EventsArgs selects a job event tail: everything the job's ring still
// holds with sequence number strictly greater than AfterSeq (pass -1
// for the full retained tail).
type EventsArgs struct {
	JobID    int
	AfterSeq int64
}

// EventsReply carries one poll of a job's event stream.
type EventsReply struct {
	Events []obs.Event
	// State lets pollers stop: once the job leaves JobRunning and a
	// RunFinished event has been delivered, the stream is complete.
	State JobState
	// Dropped reports that events after AfterSeq exist and are not in
	// this reply or any later one: the ring overflowed (the oldest
	// retained event's Seq is higher than AfterSeq+1), or the job
	// finished long enough ago that the daemon dropped its tail to stay
	// inside its memory budget.
	Dropped bool
}

// Events implements the event-tail RPC: the live view of a running
// job's scheduler decisions, and the postmortem tail of a finished one.
func (d *Daemon) Events(args EventsArgs, reply *EventsReply) error {
	// The job's fields change under d.mu (the run goroutine finishes it,
	// retention strips it), so they are read under it; the ring has its
	// own lock and is read outside, where a long tail cannot stall the
	// scheduler.
	d.mu.Lock()
	job := d.jobLocked(args.JobID)
	var ring *obs.Ring
	if job != nil {
		ring = job.events
	}
	d.mu.Unlock()
	if job == nil {
		return fmt.Errorf("daemon: no job %d: %w", args.JobID, ErrJobNotFound)
	}
	// Two kinds of job have no ring and answer an empty tail: fast-
	// rejected ones never had one (shedding is O(1), and the job record
	// tells the whole story), and stripped ones gave theirs up to the
	// payload budget. A ring released after the read above reads empty
	// too — its own lock orders the two.
	if ring != nil {
		reply.Events = ring.After(args.AfterSeq)
	}
	// State is read after the events: a terminal state then means the
	// tail above is complete.
	d.mu.Lock()
	reply.State = job.State
	stripped := job.events == nil && args.AfterSeq+1 < job.nextSeq
	d.mu.Unlock()
	if len(reply.Events) > 0 {
		reply.Dropped = reply.Events[0].Seq > args.AfterSeq+1
	} else {
		reply.Dropped = stripped
	}
	return nil
}

// healthz is the /healthz response body.
type healthz struct {
	Status        string  `json:"status"`
	Mode          string  `json:"mode"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	JobsRunning   int     `json:"jobs_running"`
	JobsQueued    int     `json:"jobs_queued"`
	JobsTotal     int     `json:"jobs_total"`
}

// TelemetryHandler returns the daemon's HTTP observability surface:
//
//	/metrics        Prometheus text exposition of the shared registry
//	/healthz        liveness + job accounting as JSON
//	/debug/trace    per-stage latency stats (JSON), or ?job=N for one
//	                job's span tree as text
//	/debug/pprof/*  the standard Go profiling endpoints
//
// cmd/apstdvd mounts it when -telemetry is set; tests drive it through
// httptest.
func (d *Daemon) TelemetryHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := d.registry.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		h := healthz{
			Status:        "ok",
			Mode:          string(d.cfg.Mode),
			UptimeSeconds: time.Since(d.started).Seconds(),
			JobsRunning:   len(d.running),
			JobsQueued:    len(d.queue),
			JobsTotal:     len(d.jobs),
		}
		d.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if d.tracer == nil {
			http.Error(w, "tracing disabled (start the daemon with -trace)", http.StatusNotFound)
			return
		}
		if q := r.URL.Query().Get("job"); q != "" {
			id, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "bad job id", http.StatusBadRequest)
				return
			}
			var reply TraceReply
			if err := d.Trace(TraceArgs{JobID: id}, &reply); err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintf(w, "job %d  trace %#x  (%d spans retained)\n", id, reply.TraceID, len(reply.Spans))
			otrace.WriteTree(w, reply.Spans)
			return
		}
		var reply TraceStatsReply
		d.TraceStats(TraceStatsArgs{}, &reply)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(reply)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
