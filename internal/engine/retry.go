package engine

import (
	"fmt"

	"apstdv/internal/obs"
	"apstdv/internal/trace"
)

// RetryPolicy configures the engine's fault-tolerance layer. The zero
// value of each field selects its default, so &RetryPolicy{} enables
// the layer with the defaults.
type RetryPolicy struct {
	// MaxAttempts bounds how many times one chunk may be dispatched
	// (first attempt included). Exhausting it fails the run with a
	// partial-result error. Default 3.
	MaxAttempts int
	// Redistribute re-dispatches a failed attempt's load over the peer
	// path when its input already reached a site (the backend implements
	// PeerBackend): the data moves worker-to-worker from the failed
	// site's storage to the least-loaded survivor instead of re-staging
	// through the master uplink. Off by default — the retry path is then
	// byte-identical to pre-redistribution engines.
	Redistribute bool
}

// The retry layer's fixed rules. A worker leaves service after
// blacklistAfter consecutive failures (successes reset the streak).
// Per-chunk stage deadlines come from the algorithm's cost estimates:
// deadline = timeoutFactor×estimate + minTimeout seconds, a slack that
// absorbs the platform's modelled noise (background load, batch holds)
// so healthy chunks never trip a deadline.
const (
	blacklistAfter = 2
	timeoutFactor  = 4
	minTimeout     = 30
)

// withDefaults fills zero fields with the documented defaults.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	return p
}

// sendEstimate returns the expected transfer time of the chunk under
// the deadline estimates (0 when none are available).
func (e *execution) sendEstimate(c *chunk) float64 {
	if c.worker >= len(e.dests) {
		return 0
	}
	est := e.dests[c.worker]
	return est.CommLatency + c.size*est.UnitComm
}

// compEstimate returns the expected time until the chunk's computation
// completes. The worker's CPU is FIFO, so a multi-installment chunk
// queues behind everything the worker already holds: the deadline must
// cover the whole backlog, not just this chunk's own compute time.
func (e *execution) compEstimate(c *chunk) float64 {
	if c.worker >= len(e.dests) {
		return 0
	}
	est := e.dests[c.worker]
	backlog := e.pending[c.worker]
	if backlog < c.size {
		backlog = c.size
	}
	installments := float64(e.pendingChunks[c.worker])
	if installments < 1 {
		installments = 1
	}
	return installments*est.CompLatency + backlog*est.UnitComp
}

// returnEstimate returns the expected output-return time: the transfer
// estimate scaled by the output/input data-density ratio.
func (e *execution) returnEstimate(c *chunk) float64 {
	if c.worker >= len(e.dests) {
		return 0
	}
	est := e.dests[c.worker]
	ratio := 1.0
	if bpu := float64(e.app.BytesPerUnit); bpu > 0 {
		ratio = float64(e.app.OutputBytesPerUnit) / bpu
	}
	return est.CommLatency + c.size*est.UnitComm*ratio
}

// onDeadline is the execution's single stage-timeout handler: every
// deadline armed by armDeadline fires through this one method value,
// identified by the timer id the backend hands back. The firing is
// matched to the in-flight chunk whose armed deadline carries that id;
// ids are never reused, so a firing that matches no armed deadline
// no-ops. Timeouts are rare (faults, stalls), so the O(in-flight) scan
// is off the hot path.
func (e *execution) onDeadline(id TimerID) {
	e.poll()
	if e.err != nil {
		return
	}
	var c *chunk
	for i := range e.chunkSlots {
		cand := &e.chunkSlots[i]
		if cand.used && cand.deadlineArmed && cand.deadline == id {
			c = cand
			break
		}
	}
	if c == nil {
		return // stale firing: the deadline was cancelled or re-armed
	}
	c.deadlineArmed = false
	c.deadline = 0
	d := c.deadlineDur
	if ev := e.event(obs.ChunkTimeout, c.worker); ev != nil {
		ev.Chunk, ev.Size, ev.Dur, ev.Attempt = c.id, c.size, d, c.attempt
		e.emit(ev)
	}
	e.chunkFailed(c,
		fmt.Errorf("stage %s exceeded its %.3gs deadline", c.state, d),
		c.state == stateTransferring)
	e.tryDispatch()
}

// armDeadline starts the deadline timer of the stage c has just
// entered (c.state), derived from the algorithm's cost estimate for the
// stage. No-op without a retry policy or a Timer-capable backend, which
// then computes no estimate either.
func (e *execution) armDeadline(c *chunk) {
	if !e.retryOn || e.timer == nil {
		return
	}
	var estimate float64
	switch c.state {
	case stateTransferring:
		estimate = e.sendEstimate(c)
	case stateComputing:
		estimate = e.compEstimate(c)
	case stateReturning:
		estimate = e.returnEstimate(c)
	}
	d := timeoutFactor*estimate + minTimeout
	c.deadlineDur = d
	c.deadlineArmed = true
	c.deadline = e.timer.AfterFunc(d, e.timeoutFn)
}

// cancelDeadline stops the armed stage deadline, if any.
func (e *execution) cancelDeadline(c *chunk) {
	if c.deadlineArmed {
		c.deadlineArmed = false
		e.timer.CancelTimer(c.deadline)
		c.deadline = 0
	}
}

// chunkFailed abandons the chunk's current attempt: the load leaves the
// worker's accounting and either re-enters the undispatched pool via
// the retry queue or, past the attempt bound, fails the run with a
// partial-result error. holdsUplink is true when the attempt still
// occupies the serialized uplink (abandoned mid-transfer by a deadline
// or a blacklist) and the engine must release it.
func (e *execution) chunkFailed(c *chunk, cause error, holdsUplink bool) {
	if e.traceOn {
		// The failed attempt's stage span: from the stage's start to the
		// moment the engine gave up on it, carrying the cause. Retries
		// append more children under the same umbrella span.
		name := "chunk.attempt"
		switch c.state {
		case stateTransferring:
			name = "chunk.transfer"
		case stateComputing:
			name = "chunk.compute"
		case stateReturning:
			name = "chunk.return"
		}
		e.recordStageSpan(c, name, c.stageStart, e.backend.Now(), cause.Error())
	}
	c.epoch++
	e.cancelDeadline(c)
	w := c.worker
	if holdsUplink {
		if !e.cfg.ParallelUplink {
			e.sending = false
		}
		e.uplinkFreed(c, c.stageStart, e.backend.Now())
	}
	e.pending[w] -= c.size
	if e.pending[w] < 0 {
		e.pending[w] = 0
	}
	e.pendingChunks[w]--
	e.inflight--
	e.trace.Add(trace.Record{
		Chunk: c.id, Worker: w, Offset: c.offset, Size: c.size,
		SendStart: c.sendStart, SendEnd: c.sendEnd,
		CompStart: c.compStart, CompEnd: c.compEnd,
		OutputEnd: e.backend.Now(),
		Attempt:   c.attempt, Failed: true,
	})
	if !e.retryOn {
		e.fail(fmt.Errorf("engine: chunk %d on worker %d failed: %w", c.id, w, cause))
		return
	}
	e.consecFail[w]++
	if c.attempt >= e.retry.MaxAttempts {
		e.fail(fmt.Errorf("engine: chunk %d lost after %d attempts (%.6g of %.6g load completed): %w",
			c.id, c.attempt, e.completed, e.total, cause))
		return
	}
	c.state = stateFailed
	// Record where the input survived: a completed transfer stage means
	// the bytes reached worker w's site storage, which outlives the
	// worker process itself — the peer-redistribution source.
	c.dataAt = -1
	if c.sendEnd > 0 {
		c.dataAt = int32(w)
	}
	e.remaining += c.size
	e.retryQ = append(e.retryQ, c.slot)
	if ev := e.event(obs.ChunkRetry, w); ev != nil {
		ev.Chunk, ev.Size, ev.Attempt = c.id, c.size, c.attempt
		ev.Err, ev.Remaining = cause.Error(), e.remaining
		e.emit(ev)
	}
	if !e.dead[w] && e.consecFail[w] >= blacklistAfter {
		e.blacklistWorker(w)
	}
	e.maybeFinish()
}

// blacklistWorker removes a worker from service: its in-flight chunks
// are abandoned into the retry queue, the load it held is reported
// lost, and the algorithm (when loss-aware) stops targeting it.
func (e *execution) blacklistWorker(w int) {
	if e.dead[w] {
		return
	}
	e.dead[w] = true
	e.alive--
	if ev := e.event(obs.WorkerBlacklisted, w); ev != nil {
		ev.Workers = e.alive
		e.emit(ev)
	}
	// Abandon the worker's in-flight chunks in id order (slot order is
	// allocation order, not id order; the event stream must be stable).
	// chunkFailed cannot reach inFlight again: w is already dead, so it
	// blacklists nothing, and the run's end is only signalled from here.
	cause := e.blacklistCause(w)
	for _, slot := range e.inFlight(w) {
		c := &e.chunkSlots[slot]
		e.chunkFailed(c, cause, c.state == stateTransferring)
		if e.err != nil {
			return
		}
	}
	returned := 0.0
	for _, slot := range e.retryQ {
		if c := &e.chunkSlots[slot]; c.worker == w {
			returned += c.size
		}
	}
	if ev := e.event(obs.WorkerLost, w); ev != nil {
		ev.Size, ev.Workers = returned, e.alive
		e.emit(ev)
	}
	if e.lossAware != nil {
		e.lossAware.WorkerLost(w, returned)
		e.drainSwitchDecisions()
	}
	if e.alive == 0 {
		e.failNoWorkers()
	}
}

// blacklistError is the cause every chunk a blacklisted worker held
// fails with. Its text depends only on the worker and its failure
// streak, so it is built once and reused — across runs too — while the
// streak is the same; it never changes after it is built.
type blacklistError struct {
	failures int
	msg      string
}

func (e *blacklistError) Error() string { return e.msg }

// blacklistCause returns worker w's blacklist cause at its current
// failure streak.
func (e *execution) blacklistCause(w int) error {
	if w >= len(e.blacklistErrs) {
		e.blacklistErrs = append(e.blacklistErrs, make([]*blacklistError, w+1-len(e.blacklistErrs))...)
	}
	n := e.consecFail[w]
	if c := e.blacklistErrs[w]; c != nil && c.failures == n {
		return c
	}
	c := &blacklistError{failures: n,
		msg: fmt.Sprintf("worker %d blacklisted after %d consecutive failures", w, n)}
	e.blacklistErrs[w] = c
	return c
}

// pickAliveWorker returns the surviving worker with the least pending
// load (lowest index on ties), the engine's redirect target for load
// whose planned worker is gone.
func (e *execution) pickAliveWorker() (int, bool) {
	best := -1
	for w := 0; w < e.backend.Workers(); w++ {
		if e.dead[w] {
			continue
		}
		if best < 0 || e.pending[w] < e.pending[best] {
			best = w
		}
	}
	return best, best >= 0
}

// failNoWorkers records the graceful-degradation terminal error: every
// worker is out of service, so only a partial result is possible.
func (e *execution) failNoWorkers() {
	e.fail(fmt.Errorf("%w: all %d workers out of service; partial result: %.6g of %.6g load completed",
		ErrAllWorkersLost, e.backend.Workers(), e.completed, e.total))
}
