// Package trace is the serving path's request-tracing layer: one trace
// per job, stitched across process boundaries (client Submit → frame
// header → daemon admission/queue/lease → engine chunk lifecycle →
// live worker RPCs).
//
// The collector keeps finished spans as SpanRecords in a preallocated
// ring, interns span names once for the per-name aggregates, and reads
// the monotonic clock once per edge. Recording a span with an already-
// interned name allocates nothing, so tracing can stay on under load.
// A nil *Collector is a valid no-op: every method checks the receiver,
// and Begin on a zero trace id returns an inert Span — the disabled
// path through instrumented code is a nil/zero check and nothing else.
//
// Clock domains: daemon-side spans are wall time, recorded as
// monotonic nanoseconds since the collector started. Engine chunk
// spans run on the backend clock (virtual seconds under sim); the
// engine anchors them onto the collector timeline at the moment the
// run started and marks them BackendClock so exports stay honest.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one job's trace. Zero means "not traced".
type TraceID uint64

// SpanID identifies one span within a collector's id space. Zero means
// "no span" (used for absent parents).
type SpanID uint64

// SpanRecord is one finished span. Start and End are nanoseconds since
// the collector started.
type SpanRecord struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// BackendClock marks spans timed on the engine's backend clock
	// (virtual seconds under sim), anchored onto the collector
	// timeline at run start.
	BackendClock bool   `json:"backend_clock,omitempty"`
	Err          string `json:"err,omitempty"`
}

// Exporter receives each span as it is recorded. ExportSpan runs
// outside the collector lock but is serialized per collector; it must
// not call back into the collector.
type Exporter interface {
	ExportSpan(SpanRecord)
}

// NopExporter discards spans. It exists so determinism tests can prove
// the export seam itself perturbs nothing.
type NopExporter struct{}

// ExportSpan implements Exporter.
func (NopExporter) ExportSpan(SpanRecord) {}

// aggSampleCap bounds the per-name duration reservoir backing
// NameStats: percentiles come from the most recent aggSampleCap
// durations per span name, while Count keeps the true total. Keeping
// stats out of the span ring means a flood of short-lived spans (fast
// rejects under overload) cannot evict another stage's sample.
const aggSampleCap = 8192

// agg accumulates durations for one interned span name.
type agg struct {
	count   uint64
	samples []int64 // ring of the last aggSampleCap durations
	next    int
}

func (a *agg) add(d int64) {
	a.count++
	if a.samples == nil {
		a.samples = make([]int64, 0, aggSampleCap)
	}
	if len(a.samples) < aggSampleCap {
		a.samples = append(a.samples, d)
		return
	}
	a.samples[a.next] = d
	a.next++
	if a.next == aggSampleCap {
		a.next = 0
	}
}

// intern maps span names to dense int32 indexes, the index of a name's
// agg: the working set is a handful of fixed names, so a linear scan
// over a small slice beats a map and allocates nothing after warm-up.
type intern struct{ vals []string }

func (in *intern) index(s string) int32 {
	for i, v := range in.vals {
		if v == s {
			return int32(i)
		}
	}
	in.vals = append(in.vals, s)
	return int32(len(in.vals) - 1)
}

// Collector records finished spans into a fixed-capacity ring and
// per-name duration aggregates. All methods are safe for concurrent
// use and valid on a nil receiver (no-ops).
type Collector struct {
	t0   time.Time
	base uint64 // process-unique id base, so two collectors never mint the same id

	nextSpan  atomic.Uint64
	nextTrace atomic.Uint64

	mu       sync.Mutex
	spans    []SpanRecord
	next     int // overwrite cursor once the ring is full
	names    intern
	aggs     []agg // indexed by interned name
	exp      Exporter
	expMu    sync.Mutex
	recorded uint64
}

// DefaultCapacity is the span-ring size New uses for capacity <= 0:
// enough to hold every span of a few thousand in-flight jobs.
const DefaultCapacity = 1 << 16

// New returns a collector retaining the last capacity spans
// (DefaultCapacity if capacity <= 0).
func New(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	c := &Collector{t0: time.Now()}
	// Shifted start nanos make trace/span ids unique across processes
	// (client and daemon mint from disjoint ranges with overwhelming
	// probability), so a daemon span can safely parent under a
	// client-minted id.
	c.base = uint64(c.t0.UnixNano()) << 16
	c.spans = make([]SpanRecord, 0, capacity)
	c.names = intern{vals: []string{""}}
	return c
}

// SetExporter streams every subsequently recorded span to e (nil
// disables). Exports run outside the collector lock.
func (c *Collector) SetExporter(e Exporter) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.exp = e
	c.mu.Unlock()
}

// Clock returns monotonic nanoseconds since the collector started —
// the timeline every wall-clock span lives on.
func (c *Collector) Clock() int64 {
	if c == nil {
		return 0
	}
	return time.Since(c.t0).Nanoseconds()
}

// NewTraceID mints a process-unique, nonzero trace id.
func (c *Collector) NewTraceID() TraceID {
	if c == nil {
		return 0
	}
	return TraceID(c.base + c.nextTrace.Add(1))
}

// NextSpanID mints a process-unique, nonzero span id.
func (c *Collector) NextSpanID() SpanID {
	if c == nil {
		return 0
	}
	return SpanID(c.base + c.nextSpan.Add(1))
}

// Span is an in-progress span handle. The zero Span (from a nil
// collector or zero trace id) is inert: ID returns 0, End does
// nothing.
type Span struct {
	c      *Collector
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	start  int64
}

// Begin starts a span now. It is a no-op (returning an inert Span)
// when the collector is nil or tid is zero.
func (c *Collector) Begin(tid TraceID, parent SpanID, name string) Span {
	if c == nil || tid == 0 {
		return Span{}
	}
	return Span{c: c, trace: tid, id: c.NextSpanID(), parent: parent, name: name, start: c.Clock()}
}

// ID returns the span's id (0 for an inert span), for parenting
// children before End.
func (s Span) ID() SpanID { return s.id }

// End finishes the span now, recording err (nil for success).
func (s Span) End(err error) {
	if s.c == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	s.c.record(uint64(s.trace), uint64(s.id), uint64(s.parent), s.name, s.start, s.c.Clock(), false, msg)
}

// RecordSince records a wall-clock span that started at startNs (a
// prior Clock() reading) and ends now, allocating its id internally.
// It lets call sites that only know the span's name at completion time
// (e.g. a submission that turned out to be a fast reject) still record
// a correctly timed span.
func (c *Collector) RecordSince(tid TraceID, parent SpanID, name string, startNs int64, err error) {
	if c == nil || tid == 0 {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	c.record(uint64(tid), uint64(c.NextSpanID()), uint64(parent), name, startNs, c.Clock(), false, msg)
}

// RecordSpan records a fully specified span: the engine uses it to
// place backend-clock chunk spans retroactively (id 0 allocates one).
func (c *Collector) RecordSpan(tid TraceID, id, parent SpanID, name string, startNs, endNs int64, backendClock bool, errMsg string) {
	if c == nil || tid == 0 {
		return
	}
	if id == 0 {
		id = c.NextSpanID()
	}
	c.record(uint64(tid), uint64(id), uint64(parent), name, startNs, endNs, backendClock, errMsg)
}

func (c *Collector) record(tid, id, parent uint64, name string, start, end int64, backend bool, errMsg string) {
	c.mu.Lock()
	ni := c.names.index(name)
	for int(ni) >= len(c.aggs) {
		c.aggs = append(c.aggs, agg{})
	}
	c.aggs[ni].add(end - start)
	rec := SpanRecord{
		Trace: tid, ID: id, Parent: parent, Name: name,
		Start: start, End: end, BackendClock: backend, Err: errMsg,
	}
	if len(c.spans) < cap(c.spans) {
		c.spans = append(c.spans, rec)
	} else {
		c.spans[c.next] = rec
		c.next++
		if c.next == len(c.spans) {
			c.next = 0
		}
	}
	c.recorded++
	exp := c.exp
	c.mu.Unlock()
	if exp != nil {
		// expMu serializes exports without holding the record lock, so
		// a slow exporter stalls other exports but never span capture.
		c.expMu.Lock()
		exp.ExportSpan(rec)
		c.expMu.Unlock()
	}
}

// Recorded returns the total number of spans ever recorded (including
// ones the ring has since overwritten).
func (c *Collector) Recorded() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recorded
}

// Retained returns how many spans the ring currently holds.
func (c *Collector) Retained() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}

// Snapshot returns every retained span in recording order.
func (c *Collector) Snapshot() []SpanRecord {
	return c.collect(0)
}

// TraceSpans returns the retained spans of one trace in recording
// order.
func (c *Collector) TraceSpans(tid TraceID) []SpanRecord {
	if tid == 0 {
		return nil
	}
	return c.collect(uint64(tid))
}

func (c *Collector) collect(tid uint64) []SpanRecord {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SpanRecord, 0, len(c.spans))
	// Recording order: the oldest span sits at the overwrite cursor,
	// which stays 0 until the ring has wrapped.
	for _, part := range [2][]SpanRecord{c.spans[c.next:], c.spans[:c.next]} {
		for _, rec := range part {
			if tid == 0 || rec.Trace == tid {
				out = append(out, rec)
			}
		}
	}
	return out
}
