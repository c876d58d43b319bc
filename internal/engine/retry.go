package engine

import (
	"fmt"
	"math"

	"apstdv/internal/obs"
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

// stageDeadline is one armed stage in the execution's deadline set:
// the chunk's arena slot, the absolute instant the stage times out, and
// the arming sequence number that orders stages due at the same
// instant.
type stageDeadline struct {
	at   float64
	seq  uint64
	slot int32
}

// armDeadline starts the deadline of the stage c has just entered
// (c.state), derived from the algorithm's cost estimate for the stage.
// The stage joins the deadline set at at = c.stageStart + d: the stage
// started in this callback, so that is the instant the backend's own
// clock arithmetic gives a timer of delay d armed now. The one
// backend timer is re-armed only when there is none or at comes before
// its instant, and then with delay d itself, so it fires at exactly at.
// No-op without a retry policy or a Timer-capable backend, which then
// computes no estimate either, and once the run has failed.
func (e *execution) armDeadline(c *chunk) {
	if !e.retryOn || e.timer == nil || e.err != nil {
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
	at := c.stageStart + d
	c.deadlineDur = d
	e.deadlineSeq++
	e.deadlines = append(e.deadlines, stageDeadline{at: at, seq: e.deadlineSeq, slot: c.slot})
	c.deadlineIdx = int32(len(e.deadlines))
	if e.firing || (e.timerID != 0 && at >= e.timerAt) {
		return
	}
	if e.timerID != 0 {
		e.timer.CancelTimer(e.timerID)
	}
	e.timerAt = at
	e.timerID = e.timer.AfterFunc(d, e.timeoutFn)
}

// cancelDeadline takes c's armed stage, if any, out of the deadline
// set. The backend timer is cancelled only when the set empties, so no
// timer outlives the last deadline; otherwise it fires at an instant no
// later than every deadline left, and onDeadline re-arms it.
func (e *execution) cancelDeadline(c *chunk) {
	i := c.deadlineIdx - 1
	if i < 0 {
		return
	}
	c.deadlineIdx = 0
	last := int32(len(e.deadlines) - 1)
	if i != last {
		moved := e.deadlines[last]
		e.deadlines[i] = moved
		e.chunkSlots[moved.slot].deadlineIdx = i + 1
	}
	e.deadlines = e.deadlines[:last]
	if last == 0 && e.timerID != 0 {
		e.timer.CancelTimer(e.timerID)
		e.timerID = 0
	}
}

// onDeadline is the backend timer's handler, the one method value every
// arming passes. Every armed stage due by now times out, in (at, seq)
// order, exactly as its own timer firing would: a ChunkTimeout event,
// chunkFailed, tryDispatch. Stages armed meanwhile only join the set;
// afterwards the timer is re-armed once, for the earliest deadline
// left. A firing whose id is no longer the armed timer's no-ops.
func (e *execution) onDeadline(id TimerID) {
	if id != e.timerID {
		return
	}
	e.timerID = 0
	now := e.backend.Now()
	e.firing = true
	defer func() { e.firing = false }()
	for {
		e.poll()
		if e.err != nil || len(e.deadlines) == 0 {
			return
		}
		next := e.earliestDeadline()
		if next.at > now {
			e.timerAt = next.at
			e.timerID = e.timer.AfterFunc(delayTo(now, next.at), e.timeoutFn)
			return
		}
		c := &e.chunkSlots[next.slot]
		e.cancelDeadline(c)
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
}

// earliestDeadline returns the armed stage first in (at, seq) order;
// the set must not be empty. at and seq sit inline in the set, so the
// scan touches no chunk record.
func (e *execution) earliestDeadline() stageDeadline {
	best := e.deadlines[0]
	for _, s := range e.deadlines[1:] {
		if s.at < best.at || s.at == best.at && s.seq < best.seq {
			best = s
		}
	}
	return best
}

// delayTo returns the timer delay from now to at (at > now): a d with
// now + d == at in float64, the sum the backend's clock takes. at − now
// alone can miss: when now lies halfway between two multiples of at's
// last place and at's last bit is odd, every sum that should give at
// ties to an even neighbour instead. No d reaches at then, and delayTo
// returns the largest d that lands before it; that firing finds nothing
// due and re-arms from within a factor two of at, where at − now is
// exact and so is the sum.
func delayTo(now, at float64) float64 {
	d := at - now
	for now+d < at {
		d = math.Nextafter(d, math.Inf(1))
	}
	for now+d > at {
		d = math.Nextafter(d, math.Inf(-1))
	}
	return d
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
	e.attemptEnded(c)
	r := c.record(e.backend.Now())
	r.Failed = true
	e.trace.Add(r)
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
