package daemon

import (
	mathbits "math/bits"
	"net"
	"time"

	"apstdv/internal/obs"
	otrace "apstdv/internal/obs/trace"
	"apstdv/internal/transport"
)

// Frame-transport method ids for the daemon protocol. Ids are the wire
// contract: append-only, never renumber.
const (
	MethodSubmit     uint16 = 1
	MethodStatus     uint16 = 2
	MethodCancel     uint16 = 3
	MethodReport     uint16 = 4
	MethodAlgorithms uint16 = 5
	MethodListJobs   uint16 = 6
	MethodEvents     uint16 = 7
	MethodTrace      uint16 = 8
	MethodTraceStats uint16 = 9
)

// NewFrameServer builds a transport server with every daemon RPC
// registered. Zero-value cfg uses the transport defaults; the daemon's
// transport metrics are attached regardless.
func (d *Daemon) NewFrameServer(cfg transport.ServerConfig) *transport.Server {
	if cfg.Metrics == nil {
		cfg.Metrics = d.transportMetrics
	}
	if cfg.Tracer == nil {
		cfg.Tracer = d.tracer
	}
	s := transport.NewServer(cfg)
	// Submit consumes the frame header's trace context: the args carry
	// the ids from there on.
	transport.RegisterTraced[SubmitArgs, SubmitReply](s, MethodSubmit,
		func(tc transport.TraceContext, a *SubmitArgs, r *SubmitReply) error {
			if tc.Valid() {
				a.TraceID, a.ParentSpan = tc.Trace, tc.Span
			}
			return d.Submit(*a, r)
		})
	transport.Register[StatusArgs, StatusReply](s, MethodStatus,
		func(a *StatusArgs, r *StatusReply) error { return d.Status(*a, r) })
	transport.Register[CancelArgs, CancelReply](s, MethodCancel,
		func(a *CancelArgs, r *CancelReply) error { return d.Cancel(*a, r) })
	transport.Register[ReportArgs, ReportReply](s, MethodReport,
		func(a *ReportArgs, r *ReportReply) error { return d.Report(*a, r) })
	transport.Register[AlgorithmsArgs, AlgorithmsReply](s, MethodAlgorithms,
		func(a *AlgorithmsArgs, r *AlgorithmsReply) error { return d.Algorithms(*a, r) })
	transport.Register[ListJobsArgs, ListJobsReply](s, MethodListJobs,
		func(a *ListJobsArgs, r *ListJobsReply) error { return d.ListJobs(*a, r) })
	transport.Register[EventsArgs, EventsReply](s, MethodEvents,
		func(a *EventsArgs, r *EventsReply) error { return d.Events(*a, r) })
	transport.Register[TraceArgs, TraceReply](s, MethodTrace,
		func(a *TraceArgs, r *TraceReply) error { return d.Trace(*a, r) })
	transport.Register[TraceStatsArgs, TraceStatsReply](s, MethodTraceStats,
		func(a *TraceStatsArgs, r *TraceStatsReply) error { return d.TraceStats(*a, r) })
	return s
}

// ServeFrame serves the daemon protocol on ln until the server or the
// listener closes.
func (d *Daemon) ServeFrame(ln net.Listener) error {
	return d.NewFrameServer(transport.ServerConfig{}).Serve(ln)
}

// --- wire codecs -----------------------------------------------------
//
// Field order is the contract, mirrored between each AppendWire and
// DecodeWire pair. Times travel as UnixNano varints with 0 for the
// zero time.

func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return transport.AppendVarint(b, 0)
	}
	return transport.AppendVarint(b, t.UnixNano())
}

func decodeTime(d *transport.Dec) time.Time {
	ns := d.Varint()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// listPrealloc bounds the capacity decodeList reserves on the peer's
// word alone.
const listPrealloc = 64

// decodeList reads a count-prefixed list. The count is the peer's claim
// and buys no memory by itself: the slice starts at no more than
// listPrealloc elements and grows as elements actually decode, and
// decoding stops at the first error, so a frame costs its receiver
// memory in proportion to the bytes it carries and not to the numbers
// it names. (An Event is 304 bytes in memory and as little as one on
// the wire; sized from the count, one 16 MiB frame asked for 5 GB.)
func decodeList[T any](d *transport.Dec, elem func(*transport.Dec, *T)) []T {
	n := d.Uvarint()
	if n == 0 || d.Err() != nil {
		return nil
	}
	list := make([]T, 0, min(n, listPrealloc))
	for ; n > 0 && d.Err() == nil; n-- {
		var zero T
		list = append(list, zero)
		elem(d, &list[len(list)-1])
	}
	return list
}

func decodeString(d *transport.Dec, s *string) { *s = d.String() }
func decodeInt(d *transport.Dec, v *int)       { *v = int(d.Varint()) }
func decodeF64(d *transport.Dec, v *float64)   { *v = d.F64() }

// AppendWire implements transport.Appender.
func (a *SubmitArgs) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, a.TaskXML)
	b = transport.AppendString(b, a.Algorithm)
	b = transport.AppendString(b, a.Priority)
	b = transport.AppendBool(b, a.SimApp != nil)
	if a.SimApp != nil {
		b = transport.AppendF64(b, a.SimApp.UnitCost)
		b = transport.AppendF64(b, a.SimApp.BytesPerUnit)
		b = transport.AppendF64(b, a.SimApp.Gamma)
	}
	return b
}

// DecodeWire implements transport.Decoder.
func (a *SubmitArgs) DecodeWire(d *transport.Dec) {
	a.TaskXML = d.String()
	a.Algorithm = d.String()
	a.Priority = d.String()
	if d.Bool() {
		a.SimApp = &SimApp{UnitCost: d.F64(), BytesPerUnit: d.F64(), Gamma: d.F64()}
	} else {
		a.SimApp = nil
	}
}

// AppendWire implements transport.Appender.
func (r *SubmitReply) AppendWire(b []byte) []byte {
	b = transport.AppendVarint(b, int64(r.JobID))
	b = transport.AppendString(b, r.Algorithm)
	b = transport.AppendF64(b, r.TotalLoad)
	return transport.AppendString(b, string(r.State))
}

// DecodeWire implements transport.Decoder.
func (r *SubmitReply) DecodeWire(d *transport.Dec) {
	r.JobID = int(d.Varint())
	r.Algorithm = d.String()
	r.TotalLoad = d.F64()
	r.State = JobState(d.String())
}

// AppendWire implements transport.Appender.
func (a *StatusArgs) AppendWire(b []byte) []byte {
	return transport.AppendVarint(b, int64(a.JobID))
}

// DecodeWire implements transport.Decoder.
func (a *StatusArgs) DecodeWire(d *transport.Dec) { a.JobID = int(d.Varint()) }

// AppendWire implements transport.Appender.
func (r *StatusReply) AppendWire(b []byte) []byte { return appendJob(b, &r.Job) }

// DecodeWire implements transport.Decoder.
func (r *StatusReply) DecodeWire(d *transport.Dec) { decodeJob(d, &r.Job) }

// AppendWire implements transport.Appender.
func (a *CancelArgs) AppendWire(b []byte) []byte {
	return transport.AppendVarint(b, int64(a.JobID))
}

// DecodeWire implements transport.Decoder.
func (a *CancelArgs) DecodeWire(d *transport.Dec) { a.JobID = int(d.Varint()) }

// AppendWire implements transport.Appender.
func (r *CancelReply) AppendWire(b []byte) []byte {
	return transport.AppendString(b, string(r.State))
}

// DecodeWire implements transport.Decoder.
func (r *CancelReply) DecodeWire(d *transport.Dec) { r.State = JobState(d.String()) }

// AppendWire implements transport.Appender.
func (a *ReportArgs) AppendWire(b []byte) []byte {
	return transport.AppendVarint(b, int64(a.JobID))
}

// DecodeWire implements transport.Decoder.
func (a *ReportArgs) DecodeWire(d *transport.Dec) { a.JobID = int(d.Varint()) }

// AppendWire implements transport.Appender.
func (r *ReportReply) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, r.Summary)
	b = transport.AppendString(b, r.CSV)
	return transport.AppendString(b, r.Gantt)
}

// DecodeWire implements transport.Decoder.
func (r *ReportReply) DecodeWire(d *transport.Dec) {
	r.Summary = d.String()
	r.CSV = d.String()
	r.Gantt = d.String()
}

// AppendWire implements transport.Appender.
func (a *AlgorithmsArgs) AppendWire(b []byte) []byte { return b }

// DecodeWire implements transport.Decoder.
func (a *AlgorithmsArgs) DecodeWire(d *transport.Dec) {}

// AppendWire implements transport.Appender.
func (r *AlgorithmsReply) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, uint64(len(r.Names)))
	for _, n := range r.Names {
		b = transport.AppendString(b, n)
	}
	return b
}

// DecodeWire implements transport.Decoder.
func (r *AlgorithmsReply) DecodeWire(d *transport.Dec) {
	r.Names = decodeList(d, decodeString)
}

// AppendWire implements transport.Appender.
func (a *ListJobsArgs) AppendWire(b []byte) []byte { return b }

// DecodeWire implements transport.Decoder.
func (a *ListJobsArgs) DecodeWire(d *transport.Dec) {}

// AppendWire implements transport.Appender.
func (r *ListJobsReply) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, uint64(len(r.Jobs)))
	for i := range r.Jobs {
		b = appendJob(b, &r.Jobs[i])
	}
	return transport.AppendString(b, r.Policy)
}

// DecodeWire implements transport.Decoder.
func (r *ListJobsReply) DecodeWire(d *transport.Dec) {
	r.Jobs = decodeList(d, decodeJob)
	r.Policy = d.String()
}

// AppendWire implements transport.Appender.
func (a *EventsArgs) AppendWire(b []byte) []byte {
	b = transport.AppendVarint(b, int64(a.JobID))
	return transport.AppendVarint(b, a.AfterSeq)
}

// DecodeWire implements transport.Decoder.
func (a *EventsArgs) DecodeWire(d *transport.Dec) {
	a.JobID = int(d.Varint())
	a.AfterSeq = d.Varint()
}

// AppendWire implements transport.Appender.
func (r *EventsReply) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, uint64(len(r.Events)))
	for i := range r.Events {
		b = appendEvent(b, &r.Events[i])
	}
	b = transport.AppendString(b, string(r.State))
	return transport.AppendBool(b, r.Dropped)
}

// DecodeWire implements transport.Decoder.
func (r *EventsReply) DecodeWire(d *transport.Dec) {
	r.Events = decodeList(d, decodeEvent)
	r.State = JobState(d.String())
	r.Dropped = d.Bool()
}

func appendJob(b []byte, j *Job) []byte {
	b = transport.AppendVarint(b, int64(j.ID))
	b = transport.AppendString(b, j.Algorithm)
	b = transport.AppendString(b, j.Priority)
	b = transport.AppendString(b, string(j.State))
	b = appendTime(b, j.Submitted)
	b = appendTime(b, j.Started)
	b = appendTime(b, j.Finished)
	b = transport.AppendF64(b, j.Makespan)
	b = transport.AppendVarint(b, int64(j.Chunks))
	b = transport.AppendString(b, j.Err)
	b = transport.AppendString(b, j.Code)
	b = transport.AppendVarint(b, int64(j.QueuePos))
	b = transport.AppendUvarint(b, uint64(len(j.Leased)))
	for _, w := range j.Leased {
		b = transport.AppendVarint(b, int64(w))
	}
	b = transport.AppendUvarint(b, j.TraceID)
	b = transport.AppendUvarint(b, uint64(len(j.Shares)))
	for _, s := range j.Shares {
		b = transport.AppendF64(b, s)
	}
	return b
}

func decodeJob(d *transport.Dec, j *Job) {
	j.ID = int(d.Varint())
	j.Algorithm = d.String()
	j.Priority = d.String()
	j.State = JobState(d.String())
	j.Submitted = decodeTime(d)
	j.Started = decodeTime(d)
	j.Finished = decodeTime(d)
	j.Makespan = d.F64()
	j.Chunks = int(d.Varint())
	j.Err = d.String()
	j.Code = d.String()
	j.QueuePos = int(d.Varint())
	j.Leased = decodeList(d, decodeInt)
	j.TraceID = d.Uvarint()
	j.Shares = decodeList(d, decodeF64)
}

// The Event codec writes a presence bitmap then only the non-zero
// fields: a typical scheduler event has 4–6 of the 33 fields set, and
// bool fields live entirely in the bitmap. Both directions walk
// obs.Event's one field list, whose positions are the bit positions and
// so the wire contract: a new field is appended there and nowhere else.
// Ints travel as zig-zag varints, floats as 8 bytes, strings
// length-prefixed.

func appendEvent(b []byte, ev *obs.Event) []byte {
	fields := ev.Fields()
	var bits uint64
	for i, f := range fields {
		var set bool
		switch p := f.(type) {
		case *float64:
			set = *p != 0
		case *int:
			set = *p != 0
		case *string:
			set = *p != ""
		case *bool:
			set = *p
		case *int64:
			set = *p != 0
		case *obs.EventType:
			set = *p != ""
		}
		if set {
			bits |= 1 << i
		}
	}
	b = transport.AppendUvarint(b, bits)
	for rest := bits; rest != 0; rest &= rest - 1 {
		switch p := fields[mathbits.TrailingZeros64(rest)].(type) {
		case *float64:
			b = transport.AppendF64(b, *p)
		case *int:
			b = transport.AppendVarint(b, int64(*p))
		case *string:
			b = transport.AppendString(b, *p)
		case *int64:
			b = transport.AppendVarint(b, *p)
		case *obs.EventType:
			b = transport.AppendString(b, string(*p))
		}
	}
	return b
}

// decodeEvent sets the fields the bitmap marks present and leaves the
// others as they are, except bools, which it always assigns.
func decodeEvent(d *transport.Dec, ev *obs.Event) {
	bits := d.Uvarint()
	for i, f := range ev.Fields() {
		set := bits&(1<<i) != 0
		switch p := f.(type) {
		case *bool:
			*p = set
		case *float64:
			if set {
				*p = d.F64()
			}
		case *int:
			if set {
				*p = int(d.Varint())
			}
		case *string:
			if set {
				*p = d.String()
			}
		case *int64:
			if set {
				*p = d.Varint()
			}
		case *obs.EventType:
			if set {
				*p = obs.EventType(d.String())
			}
		}
	}
}

// AppendWire implements transport.Appender.
func (a *TraceArgs) AppendWire(b []byte) []byte {
	return transport.AppendVarint(b, int64(a.JobID))
}

// DecodeWire implements transport.Decoder.
func (a *TraceArgs) DecodeWire(d *transport.Dec) { a.JobID = int(d.Varint()) }

func appendSpanRecord(b []byte, s *otrace.SpanRecord) []byte {
	b = transport.AppendUvarint(b, s.Trace)
	b = transport.AppendUvarint(b, s.ID)
	b = transport.AppendUvarint(b, s.Parent)
	b = transport.AppendString(b, s.Name)
	b = transport.AppendVarint(b, s.Start)
	b = transport.AppendVarint(b, s.End)
	b = transport.AppendBool(b, s.BackendClock)
	return transport.AppendString(b, s.Err)
}

func decodeSpanRecord(d *transport.Dec, s *otrace.SpanRecord) {
	s.Trace = d.Uvarint()
	s.ID = d.Uvarint()
	s.Parent = d.Uvarint()
	s.Name = d.String()
	s.Start = d.Varint()
	s.End = d.Varint()
	s.BackendClock = d.Bool()
	s.Err = d.String()
}

// AppendWire implements transport.Appender.
func (r *TraceReply) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, r.TraceID)
	b = transport.AppendUvarint(b, uint64(len(r.Spans)))
	for i := range r.Spans {
		b = appendSpanRecord(b, &r.Spans[i])
	}
	return b
}

// DecodeWire implements transport.Decoder.
func (r *TraceReply) DecodeWire(d *transport.Dec) {
	r.TraceID = d.Uvarint()
	r.Spans = decodeList(d, decodeSpanRecord)
}

// AppendWire implements transport.Appender.
func (a *TraceStatsArgs) AppendWire(b []byte) []byte { return b }

// DecodeWire implements transport.Decoder.
func (a *TraceStatsArgs) DecodeWire(d *transport.Dec) {}

// AppendWire implements transport.Appender.
func (r *TraceStatsReply) AppendWire(b []byte) []byte {
	b = transport.AppendBool(b, r.Enabled)
	b = transport.AppendUvarint(b, r.Recorded)
	b = transport.AppendVarint(b, int64(r.Retained))
	b = transport.AppendUvarint(b, uint64(len(r.Stages)))
	for i := range r.Stages {
		s := &r.Stages[i]
		b = transport.AppendString(b, s.Stage)
		b = transport.AppendUvarint(b, s.Count)
		b = transport.AppendVarint(b, int64(s.Sampled))
		b = transport.AppendF64(b, s.P50Ms)
		b = transport.AppendF64(b, s.P90Ms)
		b = transport.AppendF64(b, s.P99Ms)
		b = transport.AppendF64(b, s.MaxMs)
	}
	return b
}

// DecodeWire implements transport.Decoder.
func (r *TraceStatsReply) DecodeWire(d *transport.Dec) {
	r.Enabled = d.Bool()
	r.Recorded = d.Uvarint()
	r.Retained = int(d.Varint())
	r.Stages = decodeList(d, func(d *transport.Dec, s *otrace.StageStat) {
		s.Stage = d.String()
		s.Count = d.Uvarint()
		s.Sampled = int(d.Varint())
		s.P50Ms = d.F64()
		s.P90Ms = d.F64()
		s.P99Ms = d.F64()
		s.MaxMs = d.F64()
	})
}
