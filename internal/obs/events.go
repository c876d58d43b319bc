// Package obs is the observability layer: a structured scheduler event
// stream and a metrics registry, shared by every execution layer — the
// engine emits typed events through a pluggable Sink (its metric set,
// RunMetrics, is one such sink), the grid and live backends record
// resource occupancy, and the daemon exposes both over HTTP in
// Prometheus text format.
//
// Determinism rule: events are timestamped with the *backend clock*
// (virtual seconds in the simulator, wall seconds in the live runtime)
// and sequence-numbered by the emitter, never by arrival order at the
// sink. A simulated run therefore produces a byte-identical JSONL stream
// regardless of how many runs execute concurrently around it; multi-run
// dumpers order streams by (run, seq), not by wall-clock completion.
//
// Performance rule: the no-sink path costs nothing (a nil check), and
// metric updates are single atomic operations — no allocation, no locks
// on the hot dispatch path.
package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"unsafe"
)

// EventType names a scheduler event.
type EventType string

// The scheduler event taxonomy. Every event a run emits carries one of
// these types; consumers must tolerate unknown types (the taxonomy
// grows).
const (
	// ProbeStart opens the §3.5 probing round (one per run).
	ProbeStart EventType = "probe_start"
	// ProbeResult carries one worker's four probe measurements.
	ProbeResult EventType = "probe_result"
	// PlanDone marks the algorithm's planning step (estimates accepted).
	PlanDone EventType = "plan"
	// Dispatch is one chunk leaving the master.
	Dispatch EventType = "dispatch"
	// ChunkDone is one chunk's full timeline, emitted at output arrival.
	ChunkDone EventType = "chunk_done"
	// Recalibrate is one periodic start-up-cost re-measurement (§3.5).
	Recalibrate EventType = "recalibrate"
	// RUMRSwitch records one evaluation of RUMR's phase-switch
	// condition at a round boundary — the paper's central diagnostic.
	RUMRSwitch EventType = "rumr_switch_decision"
	// UplinkBusy/UplinkIdle bracket one transfer's occupancy of the
	// serialized master uplink.
	UplinkBusy EventType = "uplink_busy"
	UplinkIdle EventType = "uplink_idle"
	// ChunkTimeout records a chunk attempt whose stage deadline (derived
	// from the algorithm's own cost estimates) expired before the
	// backend reported completion. Dur carries the expired deadline.
	ChunkTimeout EventType = "chunk_timeout"
	// ChunkRetry records a failed chunk attempt whose load was returned
	// to the pool for re-dispatch to a surviving worker. Attempt is the
	// attempt that failed; Err the cause.
	ChunkRetry EventType = "chunk_retry"
	// WorkerBlacklisted marks a worker removed from service after
	// repeated consecutive failures (the retry layer's blacklist rule).
	WorkerBlacklisted EventType = "worker_blacklisted"
	// WorkerLost summarizes one worker's removal: Size is the total load
	// pulled back from its in-flight chunks, Workers the surviving count.
	WorkerLost EventType = "worker_lost"
	// PeerTransfer is a direct worker-to-worker data movement over the
	// peer route (redistribution): Src is the worker holding the data,
	// Worker the receiver, Bytes the payload.
	PeerTransfer EventType = "peer_transfer"
	// ChunkRedistributed records a failed worker's chunk completing its
	// move to a survivor without re-staging through the master: Src is
	// the failed source, Worker the new owner, Size the moved load, Dur
	// the peer-transfer duration.
	ChunkRedistributed EventType = "chunk_redistributed"
	// RunFinished closes the stream (success or failure).
	RunFinished EventType = "run_finished"

	// Job-scheduler lifecycle events, emitted by the daemon into each
	// job's ring around the engine's run stream (the ring numbers the
	// engine's events after them; see Ring). Class carries the
	// job's priority class; T is seconds since submission.
	//
	// JobQueued: admitted but waiting for a run slot.
	JobQueued EventType = "job_queued"
	// JobStarted: a run slot (and, in live mode, worker leases) was
	// granted; Dur is the time spent queued.
	JobStarted EventType = "job_started"
	// JobCancelled: terminal — cancelled while queued or running.
	JobCancelled EventType = "job_cancelled"
	// JobRejected: terminal — the admission queue was full.
	JobRejected EventType = "job_rejected"
	// JobReshared: the co-scheduler revised the job's worker shares (a
	// peer arrived or finished). Workers carries the job's worker count
	// and Size the sum of its new share vector — its effective worker
	// count under contention. No new Event fields: reusing existing ones
	// keeps the wire codec's field bitmap unchanged.
	JobReshared EventType = "job_reshared"
)

// Event is one structured scheduler event. The field set is the union
// over all event types; unused fields are omitted from the JSON encoding
// (Worker is always present, -1 meaning "not worker-specific"). Field
// order is fixed, so encoding the same events yields identical bytes.
type Event struct {
	// Seq is the emitter-assigned sequence number, dense from 0 within
	// one run. Ordering is always by Seq, never by arrival.
	Seq int64 `json:"seq"`
	// T is the backend-clock timestamp in seconds from run start.
	T    float64   `json:"t"`
	Type EventType `json:"type"`
	// Alg and Run identify the stream in multi-run dumps; single-run
	// streams leave them empty.
	Alg string `json:"alg,omitempty"`
	Run int    `json:"run,omitempty"`
	// Class is the job's priority class on scheduler lifecycle events
	// (JobQueued, JobStarted, ...); engine events leave it empty.
	Class string `json:"class,omitempty"`

	Worker int     `json:"worker"`
	Chunk  int     `json:"chunk,omitempty"`
	Size   float64 `json:"size,omitempty"`
	Bytes  float64 `json:"bytes,omitempty"`
	Probe  bool    `json:"probe,omitempty"`
	// Attempt is the dispatch attempt for retried chunks (set only when
	// ≥ 2 on Dispatch/ChunkDone, always on ChunkRetry). First attempts
	// omit it, so zero-fault streams are byte-identical to streams from
	// engines that predate the retry layer.
	Attempt int `json:"attempt,omitempty"`

	// Chunk timeline (ChunkDone).
	SendStart float64 `json:"send_start,omitempty"`
	SendEnd   float64 `json:"send_end,omitempty"`
	CompStart float64 `json:"comp_start,omitempty"`
	CompEnd   float64 `json:"comp_end,omitempty"`
	OutputEnd float64 `json:"output_end,omitempty"`

	// Measurements (ProbeResult, Recalibrate, UplinkIdle).
	CommLatency float64 `json:"comm_latency,omitempty"`
	CompLatency float64 `json:"comp_latency,omitempty"`
	TransferDur float64 `json:"transfer_dur,omitempty"`
	ComputeDur  float64 `json:"compute_dur,omitempty"`
	Dur         float64 `json:"dur,omitempty"`

	// Run shape (ProbeStart, PlanDone, RunFinished).
	Workers   int     `json:"workers,omitempty"`
	TotalLoad float64 `json:"total_load,omitempty"`
	Chunks    int     `json:"chunks,omitempty"`
	Makespan  float64 `json:"makespan,omitempty"`
	Err       string  `json:"err,omitempty"`

	// RUMR switch diagnostics (RUMRSwitch): the online γ estimate (-1
	// while untrusted), the desired factoring-phase load, the
	// undispatched load at evaluation time, and the verdict.
	Gamma     float64 `json:"gamma,omitempty"`
	Want      float64 `json:"want,omitempty"`
	Remaining float64 `json:"remaining,omitempty"`
	Switched  bool    `json:"switched,omitempty"`

	// Peer redistribution (PeerTransfer, ChunkRedistributed): Src is the
	// source worker of a peer transfer. Omitted when zero, so streams
	// from runs that never redistribute stay byte-identical to
	// pre-topology streams.
	Src int `json:"src,omitempty"`
	// Link named a topology link on the grid backend's link busy/idle
	// events, which are gone; nothing sets it. It stays because it holds
	// a presence bit in the daemon's wire codec, and dropping it is a
	// wire revision.
	Link string `json:"link,omitempty"`
}

// Fields returns a pointer to every field of ev, in declaration order:
// the one ordered field list a codec of the whole struct is driven from.
// Position i is presence bit i of the daemon's wire codec, so a new
// field goes at the end of the struct and of this list. The pointers
// are *int64, *int, *float64, *string, *EventType or *bool, and holding
// them allocates nothing. TestEventFieldsListEveryField keeps the list
// equal to the struct.
func (ev *Event) Fields() [33]any {
	return [33]any{
		&ev.Seq, &ev.T, &ev.Type, &ev.Alg, &ev.Run, &ev.Class,
		&ev.Worker, &ev.Chunk, &ev.Size, &ev.Bytes, &ev.Probe, &ev.Attempt,
		&ev.SendStart, &ev.SendEnd, &ev.CompStart, &ev.CompEnd, &ev.OutputEnd,
		&ev.CommLatency, &ev.CompLatency, &ev.TransferDur, &ev.ComputeDur, &ev.Dur,
		&ev.Workers, &ev.TotalLoad, &ev.Chunks, &ev.Makespan, &ev.Err,
		&ev.Gamma, &ev.Want, &ev.Remaining, &ev.Switched,
		&ev.Src, &ev.Link,
	}
}

// Sink receives the event stream. EmitPtr may be called from any
// goroutine the engine's backend calls back on, one call at a time per
// run; implementations must be cheap and must not call back into the
// engine. Emitters hold the event in a stable scratch location and pass
// a pointer instead of a ~300-byte value: the pointee is valid only for
// the duration of the call, so a sink copies whatever it retains and
// never keeps the pointer.
type Sink interface {
	EmitPtr(*Event)
}

// Buffer accumulates every event in memory, unbounded — the collection
// sink for per-run streams that are dumped after the run completes.
type Buffer struct {
	mu  sync.Mutex
	evs []Event
}

// NewBuffer returns an empty buffer sink.
func NewBuffer() *Buffer { return &Buffer{} }

// EmitPtr implements Sink.
func (b *Buffer) EmitPtr(ev *Event) {
	b.mu.Lock()
	b.evs = append(b.evs, *ev)
	b.mu.Unlock()
}

// Events returns a copy of the buffered events in emission order.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.evs...)
}

// Ring keeps the most recent events in a fixed-capacity circular buffer
// — the daemon's per-job tail store: bounded memory however long the
// job, with cursor-based reads for pollers.
//
// The storage is paged: events are stored as they are, in fixed-size
// pages (see page) the ring takes one at a time as events arrive. A
// ring that holds its n events reuses its oldest page in place, so
// nothing is ever copied or zeroed to grow, and Emit performs no
// allocation once the ring is at capacity.
type Ring struct {
	mu    sync.Mutex
	pool  *PagePool // where pages come from and go back to; nil = the heap
	pages []*page   // pages[i] holds slots [i*pageEvents, (i+1)*pageEvents)
	max   int       // retention target, in events
	next  int       // slot the next event lands in
	full  bool      // the ring has wrapped: all max slots are live
	// nextSeq is one past the highest Seq emitted so far: what Append
	// stamps, and the least number putLocked stores an event under.
	nextSeq int64
}

// NewRing returns a ring holding the last n events (n ≥ 1) whose pages
// are plain heap allocations, taken as events arrive and left to the
// garbage collector. A PagePool's NewRing is the recycling form.
func NewRing(n int) *Ring { return (*PagePool)(nil).NewRing(n) }

// EmitPtr implements Sink: one mutex hold and one event copy into a
// page — once the ring holds its n events (or while its pages come from
// a pool that has them), no allocation.
func (r *Ring) EmitPtr(ev *Event) {
	r.mu.Lock()
	r.putLocked(ev)
	r.mu.Unlock()
}

// Append stamps ev with the sequence number after the highest the ring
// has taken and stores it — how an owner splices its own events into a
// stream whose other emitters number theirs (see NextSeq).
func (r *Ring) Append(ev *Event) {
	r.mu.Lock()
	ev.Seq = r.nextSeq
	r.putLocked(ev)
	r.mu.Unlock()
}

// NextSeq returns one past the highest sequence number emitted into the
// ring so far (0 for a fresh ring). Release does not rewind it.
func (r *Ring) NextSeq() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextSeq
}

// putLocked stores ev under the larger of its own Seq and NextSeq. A
// single emitter's ascending stream keeps its numbers; when the owner
// appends between an emitter's events (a share revision landing in a
// running job's stream), the emitter's next number is already taken,
// and the event moves past it, so the stream stays unique and
// ascending and a cursor at any event still sees every later one.
func (r *Ring) putLocked(ev *Event) {
	pi := r.next / pageEvents
	if pi == len(r.pages) {
		r.pages = append(r.pages, r.pool.get())
	}
	slot := &r.pages[pi][r.next%pageEvents]
	*slot = *ev
	slot.Seq = max(ev.Seq, r.nextSeq)
	r.nextSeq = slot.Seq + 1
	r.next++
	if r.next == r.max {
		r.next = 0
		r.full = true
	}
}

// Release hands the ring's pages back to its pool and leaves the ring
// empty: reads return nothing, NextSeq is kept. The owner calls it when
// it stops retaining the events; holding the ring's own lock is what
// keeps a concurrent reader from ever seeing a page's next tenant.
func (r *Ring) Release() {
	r.mu.Lock()
	for _, pg := range r.pages {
		r.pool.put(pg)
	}
	r.pages = nil
	r.next, r.full = 0, false
	r.mu.Unlock()
}

// Bytes returns the size of the event storage the ring holds right now.
func (r *Ring) Bytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pages) * pageBytes
}

// atLocked returns the event i positions after the oldest retained one,
// which sits in slot first.
func (r *Ring) atLocked(first, i int) *Event {
	slot := first + i
	if slot >= r.max {
		slot -= r.max
	}
	return &r.pages[slot/pageEvents][slot%pageEvents]
}

// After returns the retained events with Seq strictly greater than seq,
// in emission order — the tail-follow read. Pass -1 for "from the
// beginning of what the ring still holds". It relies on the stored
// sequence numbers ascending in emission order (putLocked keeps them
// so) to seek to the first event past seq and copy only from there: a
// poll costs what it returns, not what the ring holds.
func (r *Ring) After(seq int64) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, first := r.next, 0
	if r.full {
		n, first = r.max, r.next
	}
	from := sort.Search(n, func(i int) bool { return r.atLocked(first, i).Seq > seq })
	if from == n {
		return nil
	}
	out := make([]Event, 0, n-from)
	for i := from; i < n; i++ {
		out = append(out, *r.atLocked(first, i))
	}
	return out
}

// pageEvents is the number of events in one page: as many as fit in
// 16 KiB, so a page stays in the allocator's 16 KiB size class: 53
// events of 304 B. A closed-loop serving job of 68 events holds two
// pages, an 8192-event tail 155.
const pageEvents = (16 << 10) / int(unsafe.Sizeof(Event{}))

// page is the unit of ring storage and of recycling. A page is never
// zeroed for reuse, because a ring reads only the slots it has written
// since it took the page.
type page [pageEvents]Event

const pageBytes = int(unsafe.Sizeof(page{}))

// PagePool is a bounded free list of ring pages, owned by whoever owns
// the rings (the daemon keeps one for its jobs). Rings built by its
// NewRing take pages from it and hand them back on Release, so a
// steady stream of jobs stops paying the allocator and the zeroing for
// their event storage. A nil *PagePool is the heap: get allocates and
// put drops.
type PagePool struct {
	mu   sync.Mutex
	free []*page
	max  int // idle pages kept
}

// NewPagePool returns an empty pool that keeps at most maxBytes of idle
// pages; pages released beyond that go to the garbage collector.
func NewPagePool(maxBytes int) *PagePool { return &PagePool{max: maxBytes / pageBytes} }

// NewRing returns a ring holding the last n events (n ≥ 1) that draws
// its pages from p.
func (p *PagePool) NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{pool: p, max: n}
}

func (p *PagePool) get() *page {
	if p != nil {
		p.mu.Lock()
		if n := len(p.free); n > 0 {
			pg := p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
			p.mu.Unlock()
			return pg
		}
		p.mu.Unlock()
	}
	return new(page)
}

func (p *PagePool) put(pg *page) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if len(p.free) < p.max {
		p.free = append(p.free, pg)
	}
	p.mu.Unlock()
}

// JSONL streams events as JSON Lines to a writer: each emit encodes its
// event into a buffer over the writer, and Flush drains the buffer — call
// it before reading the destination, or after each event to stream them.
// The first write error sticks and suppresses further output.
type JSONL struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONL returns a JSONL sink over w.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{bw: bw, enc: json.NewEncoder(bw)}
}

// EmitPtr implements Sink.
func (s *JSONL) EmitPtr(ev *Event) {
	s.mu.Lock()
	if s.err == nil {
		s.err = s.enc.Encode(ev)
	}
	s.mu.Unlock()
}

// Flush drains the buffer and returns the first error seen.
func (s *JSONL) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = s.bw.Flush()
	}
	return s.err
}

// WriteJSONL encodes events as JSON Lines to w — the batch form of the
// JSONL sink, for dumping collected buffers in a deterministic order.
func WriteJSONL(w io.Writer, events []Event) error {
	s := NewJSONL(w)
	for i := range events {
		s.EmitPtr(&events[i])
	}
	return s.Flush()
}
