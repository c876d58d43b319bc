package daemon

import (
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
// zero time. TestEventWireCoversEveryField pins the Event codec to the
// obs.Event struct.

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
	n := int(d.Uvarint())
	if d.Err() != nil || n < 0 || n > d.Len() {
		return
	}
	r.Names = make([]string, 0, n)
	for i := 0; i < n; i++ {
		r.Names = append(r.Names, d.String())
	}
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
	n := int(d.Uvarint())
	if d.Err() != nil || n < 0 || n > d.Len() {
		return
	}
	r.Jobs = make([]Job, n)
	for i := range r.Jobs {
		decodeJob(d, &r.Jobs[i])
	}
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
	n := int(d.Uvarint())
	if d.Err() != nil || n < 0 || n > d.Len() {
		return
	}
	r.Events = make([]obs.Event, n)
	for i := range r.Events {
		decodeEvent(d, &r.Events[i])
	}
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
	n := int(d.Uvarint())
	if d.Err() != nil || n < 0 || n > d.Len() {
		return
	}
	if n > 0 {
		j.Leased = make([]int, n)
		for i := range j.Leased {
			j.Leased[i] = int(d.Varint())
		}
	}
	j.TraceID = d.Uvarint()
	n = int(d.Uvarint())
	if d.Err() != nil || n < 0 || n > d.Len() {
		return
	}
	if n > 0 {
		j.Shares = make([]float64, n)
		for i := range j.Shares {
			j.Shares[i] = d.F64()
		}
	}
}

// The Event codec writes a presence bitmap then only the non-zero
// fields: a typical scheduler event has 4–6 of the 31 fields set, and
// bool fields live entirely in the bitmap. Bit positions are the wire
// contract; append new fields at the next free bit.
const eventWireFields = 33 // keep equal to the obs.Event field count

func appendEvent(b []byte, ev *obs.Event) []byte {
	var bits uint64
	if ev.Seq != 0 {
		bits |= 1 << 0
	}
	if ev.T != 0 {
		bits |= 1 << 1
	}
	if ev.Type != "" {
		bits |= 1 << 2
	}
	if ev.Alg != "" {
		bits |= 1 << 3
	}
	if ev.Run != 0 {
		bits |= 1 << 4
	}
	if ev.Class != "" {
		bits |= 1 << 5
	}
	if ev.Worker != 0 {
		bits |= 1 << 6
	}
	if ev.Chunk != 0 {
		bits |= 1 << 7
	}
	if ev.Size != 0 {
		bits |= 1 << 8
	}
	if ev.Bytes != 0 {
		bits |= 1 << 9
	}
	if ev.Probe {
		bits |= 1 << 10
	}
	if ev.Attempt != 0 {
		bits |= 1 << 11
	}
	if ev.SendStart != 0 {
		bits |= 1 << 12
	}
	if ev.SendEnd != 0 {
		bits |= 1 << 13
	}
	if ev.CompStart != 0 {
		bits |= 1 << 14
	}
	if ev.CompEnd != 0 {
		bits |= 1 << 15
	}
	if ev.OutputEnd != 0 {
		bits |= 1 << 16
	}
	if ev.CommLatency != 0 {
		bits |= 1 << 17
	}
	if ev.CompLatency != 0 {
		bits |= 1 << 18
	}
	if ev.TransferDur != 0 {
		bits |= 1 << 19
	}
	if ev.ComputeDur != 0 {
		bits |= 1 << 20
	}
	if ev.Dur != 0 {
		bits |= 1 << 21
	}
	if ev.Workers != 0 {
		bits |= 1 << 22
	}
	if ev.TotalLoad != 0 {
		bits |= 1 << 23
	}
	if ev.Chunks != 0 {
		bits |= 1 << 24
	}
	if ev.Makespan != 0 {
		bits |= 1 << 25
	}
	if ev.Err != "" {
		bits |= 1 << 26
	}
	if ev.Gamma != 0 {
		bits |= 1 << 27
	}
	if ev.Want != 0 {
		bits |= 1 << 28
	}
	if ev.Remaining != 0 {
		bits |= 1 << 29
	}
	if ev.Switched {
		bits |= 1 << 30
	}
	if ev.Src != 0 {
		bits |= 1 << 31
	}
	if ev.Link != "" {
		bits |= 1 << 32
	}
	b = transport.AppendUvarint(b, bits)
	if bits&(1<<0) != 0 {
		b = transport.AppendVarint(b, ev.Seq)
	}
	if bits&(1<<1) != 0 {
		b = transport.AppendF64(b, ev.T)
	}
	if bits&(1<<2) != 0 {
		b = transport.AppendString(b, string(ev.Type))
	}
	if bits&(1<<3) != 0 {
		b = transport.AppendString(b, ev.Alg)
	}
	if bits&(1<<4) != 0 {
		b = transport.AppendVarint(b, int64(ev.Run))
	}
	if bits&(1<<5) != 0 {
		b = transport.AppendString(b, ev.Class)
	}
	if bits&(1<<6) != 0 {
		b = transport.AppendVarint(b, int64(ev.Worker))
	}
	if bits&(1<<7) != 0 {
		b = transport.AppendVarint(b, int64(ev.Chunk))
	}
	if bits&(1<<8) != 0 {
		b = transport.AppendF64(b, ev.Size)
	}
	if bits&(1<<9) != 0 {
		b = transport.AppendF64(b, ev.Bytes)
	}
	if bits&(1<<11) != 0 {
		b = transport.AppendVarint(b, int64(ev.Attempt))
	}
	if bits&(1<<12) != 0 {
		b = transport.AppendF64(b, ev.SendStart)
	}
	if bits&(1<<13) != 0 {
		b = transport.AppendF64(b, ev.SendEnd)
	}
	if bits&(1<<14) != 0 {
		b = transport.AppendF64(b, ev.CompStart)
	}
	if bits&(1<<15) != 0 {
		b = transport.AppendF64(b, ev.CompEnd)
	}
	if bits&(1<<16) != 0 {
		b = transport.AppendF64(b, ev.OutputEnd)
	}
	if bits&(1<<17) != 0 {
		b = transport.AppendF64(b, ev.CommLatency)
	}
	if bits&(1<<18) != 0 {
		b = transport.AppendF64(b, ev.CompLatency)
	}
	if bits&(1<<19) != 0 {
		b = transport.AppendF64(b, ev.TransferDur)
	}
	if bits&(1<<20) != 0 {
		b = transport.AppendF64(b, ev.ComputeDur)
	}
	if bits&(1<<21) != 0 {
		b = transport.AppendF64(b, ev.Dur)
	}
	if bits&(1<<22) != 0 {
		b = transport.AppendVarint(b, int64(ev.Workers))
	}
	if bits&(1<<23) != 0 {
		b = transport.AppendF64(b, ev.TotalLoad)
	}
	if bits&(1<<24) != 0 {
		b = transport.AppendVarint(b, int64(ev.Chunks))
	}
	if bits&(1<<25) != 0 {
		b = transport.AppendF64(b, ev.Makespan)
	}
	if bits&(1<<26) != 0 {
		b = transport.AppendString(b, ev.Err)
	}
	if bits&(1<<27) != 0 {
		b = transport.AppendF64(b, ev.Gamma)
	}
	if bits&(1<<28) != 0 {
		b = transport.AppendF64(b, ev.Want)
	}
	if bits&(1<<29) != 0 {
		b = transport.AppendF64(b, ev.Remaining)
	}
	if bits&(1<<31) != 0 {
		b = transport.AppendVarint(b, int64(ev.Src))
	}
	if bits&(1<<32) != 0 {
		b = transport.AppendString(b, ev.Link)
	}
	return b
}

func decodeEvent(d *transport.Dec, ev *obs.Event) {
	bits := d.Uvarint()
	if bits&(1<<0) != 0 {
		ev.Seq = d.Varint()
	}
	if bits&(1<<1) != 0 {
		ev.T = d.F64()
	}
	if bits&(1<<2) != 0 {
		ev.Type = obs.EventType(d.String())
	}
	if bits&(1<<3) != 0 {
		ev.Alg = d.String()
	}
	if bits&(1<<4) != 0 {
		ev.Run = int(d.Varint())
	}
	if bits&(1<<5) != 0 {
		ev.Class = d.String()
	}
	if bits&(1<<6) != 0 {
		ev.Worker = int(d.Varint())
	}
	if bits&(1<<7) != 0 {
		ev.Chunk = int(d.Varint())
	}
	if bits&(1<<8) != 0 {
		ev.Size = d.F64()
	}
	if bits&(1<<9) != 0 {
		ev.Bytes = d.F64()
	}
	ev.Probe = bits&(1<<10) != 0
	if bits&(1<<11) != 0 {
		ev.Attempt = int(d.Varint())
	}
	if bits&(1<<12) != 0 {
		ev.SendStart = d.F64()
	}
	if bits&(1<<13) != 0 {
		ev.SendEnd = d.F64()
	}
	if bits&(1<<14) != 0 {
		ev.CompStart = d.F64()
	}
	if bits&(1<<15) != 0 {
		ev.CompEnd = d.F64()
	}
	if bits&(1<<16) != 0 {
		ev.OutputEnd = d.F64()
	}
	if bits&(1<<17) != 0 {
		ev.CommLatency = d.F64()
	}
	if bits&(1<<18) != 0 {
		ev.CompLatency = d.F64()
	}
	if bits&(1<<19) != 0 {
		ev.TransferDur = d.F64()
	}
	if bits&(1<<20) != 0 {
		ev.ComputeDur = d.F64()
	}
	if bits&(1<<21) != 0 {
		ev.Dur = d.F64()
	}
	if bits&(1<<22) != 0 {
		ev.Workers = int(d.Varint())
	}
	if bits&(1<<23) != 0 {
		ev.TotalLoad = d.F64()
	}
	if bits&(1<<24) != 0 {
		ev.Chunks = int(d.Varint())
	}
	if bits&(1<<25) != 0 {
		ev.Makespan = d.F64()
	}
	if bits&(1<<26) != 0 {
		ev.Err = d.String()
	}
	if bits&(1<<27) != 0 {
		ev.Gamma = d.F64()
	}
	if bits&(1<<28) != 0 {
		ev.Want = d.F64()
	}
	if bits&(1<<29) != 0 {
		ev.Remaining = d.F64()
	}
	ev.Switched = bits&(1<<30) != 0
	if bits&(1<<31) != 0 {
		ev.Src = int(d.Varint())
	}
	if bits&(1<<32) != 0 {
		ev.Link = d.String()
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
	n := int(d.Uvarint())
	if d.Err() != nil || n < 0 || n > d.Len() {
		return
	}
	r.Spans = make([]otrace.SpanRecord, n)
	for i := range r.Spans {
		decodeSpanRecord(d, &r.Spans[i])
	}
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
	n := int(d.Uvarint())
	if d.Err() != nil || n < 0 || n > d.Len() {
		return
	}
	r.Stages = make([]otrace.StageStat, n)
	for i := range r.Stages {
		s := &r.Stages[i]
		s.Stage = d.String()
		s.Count = d.Uvarint()
		s.Sampled = int(d.Varint())
		s.P50Ms = d.F64()
		s.P90Ms = d.F64()
		s.P99Ms = d.F64()
		s.MaxMs = d.F64()
	}
}
