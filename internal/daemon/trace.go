package daemon

import (
	"fmt"
	"sort"

	otrace "apstdv/internal/obs/trace"
)

// TraceArgs selects a job's trace.
type TraceArgs struct{ JobID int }

// TraceReply carries the retained spans of one job's trace, in
// recording order (WriteTree rebuilds the tree from parent links).
type TraceReply struct {
	TraceID uint64
	Spans   []otrace.SpanRecord
}

// Trace implements the per-job trace RPC: the span tree behind
// `apstdv trace <job>` and /debug/trace?job=N.
func (d *Daemon) Trace(args TraceArgs, reply *TraceReply) error {
	if d.tracer == nil {
		return fmt.Errorf("daemon: no trace for job %d: %w", args.JobID, ErrTracingOff)
	}
	d.mu.Lock()
	job := d.jobLocked(args.JobID)
	d.mu.Unlock()
	if job == nil {
		return fmt.Errorf("daemon: no job %d: %w", args.JobID, ErrJobNotFound)
	}
	reply.TraceID = job.TraceID
	if job.TraceID != 0 {
		reply.Spans = d.tracer.TraceSpans(otrace.TraceID(job.TraceID))
	}
	return nil
}

// TraceStatsArgs is empty.
type TraceStatsArgs struct{}

// TraceStatsReply summarizes the collector: per-stage latency
// percentiles (serving-path stages first, under their canonical
// labels), plus recording totals.
type TraceStatsReply struct {
	// Enabled is false when the daemon runs without a collector; the
	// rest of the reply is then zero.
	Enabled bool
	// Recorded counts spans ever recorded; Retained is how many the
	// ring still holds.
	Recorded uint64
	Retained int
	Stages   []otrace.StageStat
}

// TraceStats implements the latency-attribution RPC: the per-stage
// report behind the telemetry server's /debug/trace and the serving
// benchmark's stage numbers.
func (d *Daemon) TraceStats(args TraceStatsArgs, reply *TraceStatsReply) error {
	if d.tracer == nil {
		return nil
	}
	reply.Enabled = true
	reply.Recorded = d.tracer.Recorded()
	reply.Retained = d.tracer.Retained()
	reply.Stages = stageStats(d.tracer)
	return nil
}

// stageNames maps span names to the canonical serving-path stage labels
// TraceStats reports (decode → admission → queue → lease → execute).
var stageNames = map[string]string{
	"rpc.decode":    "decode",
	"daemon.submit": "admission",
	"job.queue":     "queue",
	"job.lease":     "lease",
	"job.execute":   "execute",
}

// stageOrder ranks the canonical labels in serving-path order; other
// span names sort after them alphabetically.
var stageOrder = map[string]int{
	"decode": 0, "admission": 1, "queue": 2, "lease": 3, "execute": 4,
}

func stageStats(c *otrace.Collector) []otrace.StageStat {
	stats := c.NameStats()
	for i := range stats {
		if label, ok := stageNames[stats[i].Stage]; ok {
			stats[i].Stage = label
		}
	}
	sort.Slice(stats, func(i, j int) bool {
		oi, iok := stageOrder[stats[i].Stage]
		oj, jok := stageOrder[stats[j].Stage]
		switch {
		case iok && jok:
			return oi < oj
		case iok != jok:
			return iok
		default:
			return stats[i].Stage < stats[j].Stage
		}
	})
	return stats
}
