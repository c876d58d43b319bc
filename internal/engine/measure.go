package engine

import (
	"fmt"

	"apstdv/internal/dls"
	"apstdv/internal/model"
	"apstdv/internal/obs"
)

// chunkKind says what a chunk record carries. A work chunk is a slice of
// the load. The other kinds are §3.5's measurements, which take the
// same path through the backend — an uplink transfer, then a job on the
// worker's CPU — and come back through the same three handlers, which
// route them here by kind.
//
// A measurement holds no load: it arms no stage deadline, gets no span,
// emits no Dispatch event, is counted in neither pending nor inflight,
// and is never a blacklist victim (see inFlight).
type chunkKind uint8

const (
	kindWork chunkKind = iota
	// kindLatency is the probing round's empty transfer followed by a
	// no-op job: the worker's communication and computation start-up
	// costs.
	kindLatency
	// kindProbe is the probe chunk: probeLoad units sent at the probe
	// file's data density and computed as representative input. It takes
	// its chunk id when its transfer completes.
	kindProbe
	// kindRecal is a periodic recalibration: an empty transfer and a
	// no-op job on one worker, mid-run.
	kindRecal
)

type probeResult struct {
	emptyTransfer float64 // measured comm latency
	noopExec      float64 // measured comp latency
	probeTransfer float64
	probeExec     float64
	execDone      int  // of 2 (no-op + probe)
	failed        bool // worker lost during probing
}

// startProbing launches the probing round (§3.5): for each worker, an
// empty transfer and a no-op job measure the start-up costs, then a probe
// chunk measures the per-unit transfer and compute rates. Transfers
// serialize on the uplink, one worker after the other; computations
// overlap across workers.
func (e *execution) startProbing() {
	n := e.backend.Workers()
	e.probes = resize(e.probes, n)
	e.probesLeft = n
	if ev := e.event(obs.ProbeStart, -1); ev != nil {
		ev.Workers, ev.Size, ev.Bytes = n, e.probeLoad, e.probeLoad*float64(e.app.BytesPerUnit)
		e.emit(ev)
	}
	e.measure(kindLatency, 0)
}

// recalibrate runs one worker's empty-transfer + no-op measurement pair
// on the otherwise-free uplink; dispatching pauses until its transfer
// completes. Blacklisted workers are skipped.
func (e *execution) recalibrate() {
	w := e.calWorker
	if e.retryOn {
		n := e.backend.Workers()
		for i := 0; i < n && e.dead[w]; i++ {
			w = (w + 1) % n
		}
		if e.dead[w] {
			e.failNoWorkers()
			return
		}
	}
	e.calWorker = (w + 1) % e.backend.Workers()
	e.calibrating = true
	e.lastCal = e.backend.Now()
	e.measure(kindRecal, w)
}

// measure launches a measurement chunk of kind k on worker w: its
// transfer takes the uplink now.
func (e *execution) measure(k chunkKind, w int) {
	c := e.allocChunk()
	c.kind, c.worker, c.state = k, w, stateTransferring
	if k == kindProbe {
		c.offset, c.size, c.bytes = -1, e.probeLoad, e.probeLoad*float64(e.app.BytesPerUnit)
	}
	e.uplinkBusy(c)
	e.dispatchTransfer(c)
}

// measureTransferred advances a measurement whose transfer completed or
// failed: on success its job goes to the worker's CPU, and either way
// the freed uplink carries the next transfer.
func (e *execution) measureTransferred(c *chunk, start, end float64, err error) {
	k, w := c.kind, c.worker
	if k == kindRecal {
		e.calibrating = false
	}
	e.uplinkFreed(c, start, end)
	if err != nil {
		e.releaseChunk(c)
		e.measureFailed(k, w, err)
	} else {
		c.sendStart, c.sendEnd = start, end
		switch k {
		case kindLatency:
			e.probes[w].emptyTransfer = end - start
		case kindProbe:
			e.probes[w].probeTransfer = end - start
			c.id = e.nextChunkID()
		}
		c.state = stateComputing
		e.dispatchExecute(c)
	}
	// The uplink is free: a recalibration hands it back to dispatch, a
	// worker's latency transfer is followed by its probe chunk, and a
	// probe chunk (or a worker that failed probing) by the next worker's
	// latency transfer.
	switch {
	case k == kindRecal:
		e.tryDispatch()
	case k == kindLatency && err == nil:
		e.measure(kindProbe, w)
	case e.err == nil && w+1 < e.backend.Workers():
		e.measure(kindLatency, w+1)
	}
}

// measureComputed retires a measurement whose job completed or failed,
// handing the result to the probing round or to the algorithm.
func (e *execution) measureComputed(c *chunk, start, end float64, err error) {
	c.compStart, c.compEnd = start, end
	k, w, r := c.kind, c.worker, c.record(end)
	e.releaseChunk(c)
	switch {
	case err != nil:
		e.measureFailed(k, w, err)
		if k == kindRecal {
			e.tryDispatch()
		}
	case k == kindRecal:
		if rc, ok := e.alg.(dls.Recalibrator); ok {
			rc.Recalibrate(w, r.TransferTime(), r.ComputeTime())
		}
		if ev := e.event(obs.Recalibrate, w); ev != nil {
			ev.CommLatency, ev.CompLatency = r.TransferTime(), r.ComputeTime()
			e.emit(ev)
		}
		e.tryDispatch()
	case k == kindLatency:
		e.probes[w].noopExec = r.ComputeTime()
		e.probeExecDone(w)
	default:
		e.probes[w].probeExec = r.ComputeTime()
		e.trace.Add(r)
		e.alg.Observe(r)
		e.probeExecDone(w)
	}
}

// measureFailed is the loss rule for every measurement kind. Without a
// retry policy it aborts the run. With one, a failed recalibration
// counts against the worker's failure streak like a chunk failure would,
// and a worker failing any probe stage is removed from service before
// planning: its probesLeft slot is released so planning proceeds over
// the survivors.
func (e *execution) measureFailed(k chunkKind, w int, cause error) {
	if !e.retryOn {
		what := "probing"
		if k == kindRecal {
			what = "recalibration on"
		}
		e.fail(fmt.Errorf("engine: %s worker %d failed: %w", what, w, cause))
		return
	}
	if k == kindRecal {
		e.consecFail[w]++
		if !e.dead[w] && e.consecFail[w] >= blacklistAfter {
			e.blacklistWorker(w)
		}
		return
	}
	pr := &e.probes[w]
	if pr.failed {
		return
	}
	pr.failed = true
	e.probesLeft--
	e.dead[w] = true
	e.alive--
	if ev := e.event(obs.WorkerLost, w); ev != nil {
		ev.Workers, ev.Err = e.alive, cause.Error()
		e.emit(ev)
	}
	if e.alive == 0 {
		e.failNoWorkers()
		return
	}
	if e.probesLeft == 0 && !e.planned {
		e.plan(e.estimatesFromProbes())
	}
}

// probeExecDone accounts for one of worker w's two calibration
// executions; when every worker has reported both, planning proceeds.
func (e *execution) probeExecDone(w int) {
	if e.probes[w].failed {
		// A late completion from a worker already lost mid-probing; its
		// slot in probesLeft was released when it failed.
		return
	}
	e.probes[w].execDone++
	if e.probes[w].execDone == 2 {
		e.probesLeft--
		pr := e.probes[w]
		if ev := e.event(obs.ProbeResult, w); ev != nil {
			ev.Size = e.probeLoad
			ev.CommLatency, ev.CompLatency = pr.emptyTransfer, pr.noopExec
			ev.TransferDur, ev.ComputeDur = pr.probeTransfer, pr.probeExec
			e.emit(ev)
		}
	}
	if e.probesLeft == 0 && !e.planned {
		e.plan(e.estimatesFromProbes())
	}
}

// estimatesFromProbes converts the probing measurements into per-worker
// affine cost estimates, exactly as §3.5 describes: start-up costs from
// the empty transfer and no-op job, rates from the probe chunk with the
// start-up costs subtracted. Workers lost during probing get the
// slowest survivor's estimate as a placeholder — loss-aware algorithms
// never target them, and the engine redirects any decision that does.
func (e *execution) estimatesFromProbes() []model.Estimate {
	e.estBuf = resize(e.estBuf, len(e.probes))
	ests := e.estBuf
	for w, pr := range e.probes {
		if pr.failed {
			continue
		}
		unitComm := (pr.probeTransfer - pr.emptyTransfer) / e.probeLoad
		if unitComm < 0 {
			unitComm = 0
		}
		unitComp := (pr.probeExec - pr.noopExec) / e.probeLoad
		if unitComp <= 0 {
			unitComp = pr.probeExec / e.probeLoad
		}
		ests[w] = model.Estimate{
			Worker:      w,
			UnitComm:    unitComm,
			CommLatency: pr.emptyTransfer,
			UnitComp:    unitComp,
			CompLatency: pr.noopExec,
		}
	}
	slowest := -1
	for w, pr := range e.probes {
		if !pr.failed && (slowest < 0 || ests[w].UnitComp > ests[slowest].UnitComp) {
			slowest = w
		}
	}
	for w, pr := range e.probes {
		if pr.failed && slowest >= 0 {
			ests[w] = ests[slowest]
			ests[w].Worker = w
		}
	}
	return ests
}
