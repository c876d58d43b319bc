package engine

import (
	"fmt"
	"slices"
	"strings"

	"apstdv/internal/obs"
	otrace "apstdv/internal/obs/trace"
	"apstdv/internal/trace"
)

// chunkState is one stage of a chunk attempt's lifecycle:
//
//	Planned → Transferring → Computing → Returning → Done
//	                 \______________\________\→ Failed (→ re-dispatch)
//
// Transitions happen one callback at a time (see Backend); callbacks
// from an abandoned attempt are fenced off by the chunk's epoch (see
// chunk.epoch), so a stale completion can never advance a state it no
// longer owns, and the attempt's deadline leaves the deadline set as it
// is abandoned (see cancelDeadline).
type chunkState int

const (
	statePlanned chunkState = iota
	stateTransferring
	stateComputing
	stateReturning
	stateDone
	stateFailed
)

func (s chunkState) String() string {
	switch s {
	case statePlanned:
		return "planned"
	case stateTransferring:
		return "transferring"
	case stateComputing:
		return "computing"
	case stateReturning:
		return "returning"
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	}
	return fmt.Sprintf("chunkState(%d)", int(s))
}

// chunk is one tracked dispatch: a fixed slice of the load (id, offset,
// size) plus the mutable lifecycle of its current attempt. The id and
// offset survive retries; the timeline, worker assignment, and epoch
// are per-attempt. A chunk of a measurement kind (see chunkKind) uses
// only the identity, size, timeline and epoch fields.
//
// Chunks live in the execution's slot arena (chunkSlots): slot names the
// record's position there and used whether it currently holds a live
// chunk. A *chunk is only valid until the next allocChunk — growing the
// arena moves every record — so callbacks identify chunks by op token,
// never by pointer.
type chunk struct {
	kind   chunkKind
	id     int
	worker int
	// slot is the record's index in the chunk arena; used marks it live.
	slot int32
	used bool
	// offset and size locate the chunk within the load (load units);
	// bytes is its input volume on the uplink.
	offset, size float64
	bytes        float64
	// attempt counts dispatches of this chunk, 1-based.
	attempt int
	state   chunkState
	// Timeline of the current attempt, filled in as stages complete.
	sendStart, sendEnd, compStart, compEnd float64
	// stageStart is when the current stage began (backend clock), used
	// for deadline bookkeeping and stall diagnostics.
	stageStart float64
	// epoch increments every time the attempt is (re)launched or
	// abandoned, and when the slot is recycled; op tokens capture it
	// and no-op on mismatch. It is monotonic across the
	// arena's whole life — never reset between runs — so a callback
	// surviving from a previous run can never match a current chunk.
	epoch uint32
	// dataAt names the worker whose site holds this chunk's input (-1:
	// master only). Set when an attempt fails after its transfer stage
	// completed, it is what makes peer redistribution possible — the
	// input survives on the failed worker's site storage.
	dataAt int32
	// Deadline state for the current stage: the armed duration (for the
	// timeout event and error) and the stage's position in the
	// execution's deadline set plus one (0: no deadline armed). The set
	// and its one backend timer belong to the execution (see
	// armDeadline), so arming a deadline allocates nothing.
	deadlineDur float64
	deadlineIdx int32
	// Tracing (zero when off): the chunk's umbrella span id and its
	// first-launch time. Both survive retries — every attempt's stage
	// spans parent under the same umbrella.
	span       otrace.SpanID
	traceStart float64
}

// opToken packs a chunk's identity for the round-trip through the
// backend: arena slot in the high half, launch epoch in the low.
// chunkFromOp rejects any token whose epoch no longer matches the slot
// — the attempt was abandoned, retried, or belongs to a previous run on
// this workspace.
func opToken(c *chunk) uint64 {
	return uint64(uint32(c.slot))<<32 | uint64(c.epoch)
}

// chunkFromOp resolves an op token back to its chunk, or nil when the
// token is stale.
func (e *execution) chunkFromOp(op uint64) *chunk {
	slot := int(op >> 32)
	if slot >= len(e.chunkSlots) {
		return nil
	}
	c := &e.chunkSlots[slot]
	if !c.used || c.epoch != uint32(op) {
		return nil
	}
	return c
}

// dispatchTransfer, dispatchExecute and dispatchReturn issue one stage
// operation of a chunk of any kind: on an OpBackend through the indexed
// form — the op token plus a shared method-value handler — otherwise
// through the closure form with a pooled completion cell (see opCell).
// Neither builds anything per operation. They are the engine's only
// calls into the backend's transfer, compute and return operations.
func (e *execution) dispatchTransfer(c *chunk) {
	op := opToken(c)
	if e.opBackend != nil {
		e.opBackend.TransferOp(c.worker, c.bytes, op, e.transferDoneFn)
		return
	}
	e.backend.Transfer(c.worker, c.bytes, e.cell(op, e.transferDoneFn))
}

func (e *execution) dispatchExecute(c *chunk) {
	op, probe := opToken(c), c.kind != kindWork
	if e.opBackend != nil {
		e.opBackend.ExecuteOp(c.worker, c.size, probe, op, e.computeDoneFn)
		return
	}
	e.backend.Execute(c.worker, c.size, probe, e.cell(op, e.computeDoneFn))
}

func (e *execution) dispatchReturn(c *chunk, outBytes float64) {
	op := opToken(c)
	if e.opBackend != nil {
		e.opBackend.ReturnOutputOp(c.worker, outBytes, op, e.returnDoneFn)
		return
	}
	e.backend.ReturnOutput(c.worker, outBytes, e.cell(op, e.returnDoneFn))
}

// opCell carries one closure-form operation's op token and stage
// handler from dispatch to completion. fn, the cell's fire method value, is the done
// callback the backend receives; it is built once per cell, and cells
// are recycled through the workspace's free list, so a closure-form
// operation allocates nothing once the list has grown. A cell goes back
// only when it fires, so a late callback of an abandoned attempt still
// holds its own cell — it cannot alias a live operation — and the op
// token's epoch drops it.
type opCell struct {
	e    *execution
	op   uint64
	done func(op uint64, start, end float64, err error)
	fn   func(start, end float64, err error)
}

// cell takes a completion cell from the free list, or makes one, and
// loads it with op and the stage handler done.
func (e *execution) cell(op uint64, done func(op uint64, start, end float64, err error)) func(start, end float64, err error) {
	var oc *opCell
	if n := len(e.cellFree); n > 0 {
		oc = e.cellFree[n-1]
		e.cellFree = e.cellFree[:n-1]
	} else {
		oc = &opCell{e: e}
		oc.fn = oc.fire
	}
	oc.op, oc.done = op, done
	return oc.fn
}

// fire is the done callback of a closure-form operation: it returns the
// cell to the free list and hands the completion to its stage handler.
func (oc *opCell) fire(start, end float64, err error) {
	e := oc.e
	op, done := oc.op, oc.done
	e.cellFree = append(e.cellFree, oc)
	done(op, start, end, err)
}

// beginAttempt opens a chunk attempt in the transfer stage: a new epoch
// fences the previous attempt's callbacks, the first attempt opens the
// chunk's umbrella span, and the Dispatch event names src, the peer the
// input comes from (0 from the master; the field is omitted at 0 either
// way).
func (e *execution) beginAttempt(c *chunk, src int) {
	c.state = stateTransferring
	c.epoch++
	c.stageStart = e.backend.Now()
	c.sendStart, c.sendEnd, c.compStart, c.compEnd = 0, 0, 0, 0
	if e.traceOn && c.span == 0 {
		c.span = e.cfg.Trace.NextSpanID()
		c.traceStart = c.stageStart
	}
	if ev := e.event(obs.Dispatch, c.worker); ev != nil {
		ev.Chunk, ev.Size, ev.Bytes, ev.Remaining, ev.Src = c.id, c.size, c.bytes, e.remaining, src
		if c.attempt > 1 {
			ev.Attempt = c.attempt
		}
		e.emit(ev)
	}
}

// startCompute moves a chunk whose input reached its worker into the
// compute stage.
func (e *execution) startCompute(c *chunk) {
	c.state = stateComputing
	c.stageStart = e.backend.Now()
	e.armDeadline(c)
	e.dispatchExecute(c)
}

// launch starts (or restarts) a chunk attempt: the bookkeeping —
// remaining, pending, inflight, sending — is already done by the
// caller.
func (e *execution) launch(c *chunk) {
	e.beginAttempt(c, 0)
	e.uplinkBusy(c)
	e.armDeadline(c)
	e.dispatchTransfer(c)
	if e.cfg.ParallelUplink {
		// With the serialization rule lifted, keep dispatching while the
		// algorithm offers work.
		e.sending = false
		e.tryDispatch()
	}
}

// launchPeer restarts a failed chunk attempt over the peer path: the
// input already sits at a surviving site (c.dataAt), so it moves
// worker-to-worker instead of re-staging through the master uplink.
// Accounting is done by the caller, which also keeps dispatching — the
// uplink is never held.
func (e *execution) launchPeer(c *chunk) {
	from := int(c.dataAt)
	e.beginAttempt(c, from)
	if e.redistAware != nil {
		e.redistAware.ChunkRedistributed(from, c.worker, c.size)
	}
	if from == c.worker {
		// The chosen survivor already holds the data (the failed attempt
		// ran there without being blacklisted): skip straight to compute.
		c.sendStart, c.sendEnd = c.stageStart, c.stageStart
		if ev := e.event(obs.ChunkRedistributed, c.worker); ev != nil {
			ev.Src, ev.Chunk, ev.Size = from, c.id, c.size
			e.emit(ev)
		}
		e.startCompute(c)
		return
	}
	if ev := e.event(obs.PeerTransfer, c.worker); ev != nil {
		ev.Src, ev.Chunk, ev.Size, ev.Bytes = from, c.id, c.size, c.bytes
		e.emit(ev)
	}
	e.armDeadline(c)
	e.peerBackend.PeerTransferOp(from, c.worker, c.bytes, opToken(c), e.peerDoneFn)
}

// peerDone advances a chunk whose peer redistribution transfer
// completed or failed. The master uplink was never held, so there is
// nothing to release.
func (e *execution) peerDone(op uint64, start, end float64, err error) {
	e.poll()
	c := e.chunkFromOp(op)
	if c == nil {
		return
	}
	e.cancelDeadline(c)
	if err != nil {
		e.chunkFailed(c, err, false)
		e.tryDispatch()
		return
	}
	c.sendStart, c.sendEnd = start, end
	if e.traceOn {
		e.recordStageSpan(c, "chunk.peer", start, end, "")
	}
	if ev := e.event(obs.ChunkRedistributed, c.worker); ev != nil {
		ev.Src, ev.Chunk, ev.Size, ev.Dur = int(c.dataAt), c.id, c.size, end-start
		e.emit(ev)
	}
	c.dataAt = int32(c.worker)
	e.startCompute(c)
	e.tryDispatch()
}

// transferDone advances a chunk whose input transfer completed or
// failed. It is the one handler behind every transfer the execution
// issues, measurements included; stale completions fence on the op
// token.
func (e *execution) transferDone(op uint64, start, end float64, err error) {
	e.poll()
	c := e.chunkFromOp(op)
	if c == nil {
		return
	}
	if c.kind != kindWork {
		e.measureTransferred(c, start, end, err)
		return
	}
	e.cancelDeadline(c)
	e.sending = false
	e.uplinkFreed(c, start, end)
	if err != nil {
		e.chunkFailed(c, err, false)
		e.tryDispatch()
		return
	}
	c.sendStart, c.sendEnd = start, end
	if e.traceOn {
		e.recordStageSpan(c, "chunk.transfer", start, end, "")
	}
	e.startCompute(c)
	e.tryDispatch()
}

// computeDone advances a chunk whose computation completed or failed.
func (e *execution) computeDone(op uint64, start, end float64, err error) {
	e.poll()
	c := e.chunkFromOp(op)
	if c == nil {
		return
	}
	if c.kind != kindWork {
		e.measureComputed(c, start, end, err)
		return
	}
	e.cancelDeadline(c)
	if err != nil {
		e.chunkFailed(c, err, false)
		e.tryDispatch()
		return
	}
	c.compStart, c.compEnd = start, end
	if e.traceOn {
		e.recordStageSpan(c, "chunk.compute", start, end, "")
	}
	e.finishChunk(c)
}

// returnDone retires a chunk whose output return completed or failed.
func (e *execution) returnDone(op uint64, _, outEnd float64, err error) {
	e.poll()
	c := e.chunkFromOp(op)
	if c == nil {
		return
	}
	e.cancelDeadline(c)
	if err != nil {
		e.chunkFailed(c, err, false)
		e.tryDispatch()
		return
	}
	if e.traceOn {
		e.recordStageSpan(c, "chunk.return", c.stageStart, outEnd, "")
	}
	e.completeChunk(c, outEnd)
}

// finishChunk handles a completed computation: return output if any,
// then complete.
func (e *execution) finishChunk(c *chunk) {
	outBytes := c.size * float64(e.app.OutputBytesPerUnit)
	if outBytes <= 0 {
		e.completeChunk(c, c.compEnd)
		return
	}
	c.state = stateReturning
	c.stageStart = e.backend.Now()
	e.armDeadline(c)
	e.dispatchReturn(c, outBytes)
}

// record is the attempt's one record, closed at outputEnd (the output's
// arrival, or the moment a failed attempt was given up): the trace
// keeps it, the algorithm observes it and the chunk_done event copies
// it.
func (c *chunk) record(outputEnd float64) trace.Record {
	return trace.Record{
		Chunk: c.id, Worker: c.worker, Offset: c.offset, Size: c.size,
		Probe:     c.kind == kindProbe,
		SendStart: c.sendStart, SendEnd: c.sendEnd,
		CompStart: c.compStart, CompEnd: c.compEnd, OutputEnd: outputEnd,
		Attempt: c.attempt,
	}
}

// attemptEnded takes an ended attempt's load off its worker.
func (e *execution) attemptEnded(c *chunk) {
	w := c.worker
	e.pending[w] -= c.size
	if e.pending[w] < 0 {
		e.pending[w] = 0
	}
	e.pendingChunks[w]--
	e.inflight--
}

// completeChunk retires a successful attempt: accounting, its record
// (traced, observed and emitted), and the next dispatch.
func (e *execution) completeChunk(c *chunk, outputEnd float64) {
	c.state = stateDone
	w := c.worker
	e.attemptEnded(c)
	e.completed += c.size
	e.consecFail[w] = 0
	r := c.record(outputEnd)
	e.trace.Add(r)
	e.alg.Observe(r)
	if e.traceOn {
		// The umbrella span closes over the chunk's whole life — first
		// launch to output return, retries included.
		e.cfg.Trace.RecordSpan(e.cfg.TraceID, c.span, e.cfg.TraceParent, "chunk",
			e.traceNs(c.traceStart), e.traceNs(outputEnd), true, "")
	}
	if ev := e.event(obs.ChunkDone, w); ev != nil {
		ev.Chunk, ev.Size, ev.Remaining = r.Chunk, r.Size, e.remaining
		ev.SendStart, ev.SendEnd = r.SendStart, r.SendEnd
		ev.CompStart, ev.CompEnd, ev.OutputEnd = r.CompStart, r.CompEnd, r.OutputEnd
		if r.Attempt > 1 {
			ev.Attempt = r.Attempt
		}
		e.emit(ev)
	}
	// Free the slot before dispatching: tryDispatch may allocate the
	// next chunk, which can both reuse this slot and grow the arena out
	// from under c.
	e.releaseChunk(c)
	e.tryDispatch()
}

// inFlight returns the slots of the work chunks the backend is working
// on, in chunk-id order: worker w's, or every worker's when w < 0.
// Retry-queued and retired slots are excluded, and so are measurements,
// which hold no load to abandon or to report stalled. The result is
// scratch, valid until the next call.
func (e *execution) inFlight(w int) []int32 {
	slots := e.flightBuf[:0]
	for i := range e.chunkSlots {
		c := &e.chunkSlots[i]
		if c.used && c.kind == kindWork && c.state >= stateTransferring && c.state <= stateReturning &&
			(w < 0 || c.worker == w) {
			slots = append(slots, int32(i))
		}
	}
	slices.SortFunc(slots, func(a, b int32) int { return e.chunkSlots[a].id - e.chunkSlots[b].id })
	e.flightBuf = slots
	return slots
}

// stallDetail renders the in-flight chunks for the stall error: which
// worker holds which chunk, in which lifecycle stage, for how long.
func (e *execution) stallDetail() string {
	slots := e.inFlight(-1)
	if len(slots) == 0 {
		return ""
	}
	now := e.backend.Now()
	parts := make([]string, 0, len(slots))
	for _, i := range slots {
		c := &e.chunkSlots[i]
		parts = append(parts, fmt.Sprintf("worker %d: chunk %d %s for %.1fs",
			c.worker, c.id, c.state, now-c.stageStart))
	}
	return " (" + strings.Join(parts, "; ") + ")"
}
