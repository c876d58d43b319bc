package main

import (
	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
)

// The decorators sit on the engine.Backend and dls.Algorithm seams. Each
// exposes exactly the optional interfaces of what it wraps: the engine
// picks its dispatch path by type assertion (engine.OpBackend and
// friends), so a decorator that hid one would make the traced run
// measure a different program, and one that added one would crash.

// tracedGrid decorates *grid.Backend, which implements engine.Backend,
// OpBackend, PeerBackend and Timer (and not Stopper).
//
// The engine hands the op forms one long-lived callback per operation
// kind, so the decorator keeps the latest callback of each kind in a
// field and passes the backend a long-lived method value of its own: the
// traced hot path allocates as little as the untraced one.
type tracedGrid struct {
	inner *grid.Backend
	t     *tracer

	transferDone, executeDone, returnDone, peerDone func(op uint64, start, end float64, err error)
	timerFired                                      func(id uint64)

	onTransfer, onExecute, onReturn, onPeer func(op uint64, start, end float64, err error)
	onTimer                                 func(id uint64)
}

var (
	_ engine.Backend     = (*tracedGrid)(nil)
	_ engine.OpBackend   = (*tracedGrid)(nil)
	_ engine.PeerBackend = (*tracedGrid)(nil)
	_ engine.Timer       = (*tracedGrid)(nil)
	_ engine.Backend     = (*tracedView)(nil)
	_ engine.Stopper     = (*tracedView)(nil)
)

func newTracedGrid(inner *grid.Backend, t *tracer) *tracedGrid {
	g := &tracedGrid{inner: inner, t: t}
	g.onTransfer = func(op uint64, s, e float64, err error) {
		t.begin(spEngineDone)
		g.transferDone(op, s, e, err)
		t.end()
	}
	g.onExecute = func(op uint64, s, e float64, err error) {
		t.begin(spEngineDone)
		g.executeDone(op, s, e, err)
		t.end()
	}
	g.onReturn = func(op uint64, s, e float64, err error) {
		t.begin(spEngineDone)
		g.returnDone(op, s, e, err)
		t.end()
	}
	g.onPeer = func(op uint64, s, e float64, err error) {
		t.begin(spEngineDone)
		g.peerDone(op, s, e, err)
		t.end()
	}
	g.onTimer = func(id uint64) {
		t.begin(spEngineTimer)
		g.timerFired(id)
		t.end()
	}
	return g
}

func (g *tracedGrid) Now() float64 { return g.inner.Now() }
func (g *tracedGrid) Workers() int { return g.inner.Workers() }

func (g *tracedGrid) Run() {
	g.t.begin(spGridRun)
	g.inner.Run()
	g.t.end()
}

// traceDone wraps a per-call completion closure (the probing round and
// the multi-job world use the closure forms).
func traceDone(t *tracer, done func(start, end float64, err error)) func(start, end float64, err error) {
	return func(s, e float64, err error) {
		t.begin(spEngineDone)
		done(s, e, err)
		t.end()
	}
}

func (g *tracedGrid) Transfer(w int, bytes float64, done func(start, end float64, err error)) {
	g.t.begin(spGridTransfer)
	g.inner.Transfer(w, bytes, traceDone(g.t, done))
	g.t.end()
}

func (g *tracedGrid) Execute(w int, size float64, probe bool, done func(start, end float64, err error)) {
	g.t.begin(spGridExecute)
	g.inner.Execute(w, size, probe, traceDone(g.t, done))
	g.t.end()
}

func (g *tracedGrid) ReturnOutput(w int, bytes float64, done func(start, end float64, err error)) {
	g.t.begin(spGridReturn)
	g.inner.ReturnOutput(w, bytes, traceDone(g.t, done))
	g.t.end()
}

func (g *tracedGrid) TransferOp(w int, bytes float64, op uint64, done func(op uint64, start, end float64, err error)) {
	g.transferDone = done
	g.t.begin(spGridTransfer)
	g.inner.TransferOp(w, bytes, op, g.onTransfer)
	g.t.end()
}

func (g *tracedGrid) ExecuteOp(w int, size float64, probe bool, op uint64, done func(op uint64, start, end float64, err error)) {
	g.executeDone = done
	g.t.begin(spGridExecute)
	g.inner.ExecuteOp(w, size, probe, op, g.onExecute)
	g.t.end()
}

func (g *tracedGrid) ReturnOutputOp(w int, bytes float64, op uint64, done func(op uint64, start, end float64, err error)) {
	g.returnDone = done
	g.t.begin(spGridReturn)
	g.inner.ReturnOutputOp(w, bytes, op, g.onReturn)
	g.t.end()
}

func (g *tracedGrid) PeerTransferOp(from, to int, bytes float64, op uint64, done func(op uint64, start, end float64, err error)) {
	g.peerDone = done
	g.t.begin(spGridPeer)
	g.inner.PeerTransferOp(from, to, bytes, op, g.onPeer)
	g.t.end()
}

func (g *tracedGrid) AfterFunc(d float64, fn func(id uint64)) uint64 {
	g.timerFired = fn
	g.t.begin(spGridAfterFunc)
	id := g.inner.AfterFunc(d, g.onTimer)
	g.t.end()
	return id
}

func (g *tracedGrid) CancelTimer(id uint64) {
	g.t.begin(spGridCancelTimer)
	g.inner.CancelTimer(id)
	g.t.end()
}

// worldTrace is shared by the views of one traced MultiWorld batch. The
// last view to reach Run drives the shared event heap (see grid/multi.go)
// and is the only one whose Run does work; the others only block, so
// only the driver's Run is a span.
type worldTrace struct {
	t        *tracer
	views    int
	runCalls int
}

// tracedView decorates *grid.JobView, which implements engine.Backend
// and Stopper and none of the op, peer or timer interfaces.
type tracedView struct {
	inner *grid.JobView
	w     *worldTrace
}

func (v *tracedView) Now() float64 { return v.inner.Now() }
func (v *tracedView) Workers() int { return v.inner.Workers() }

func (v *tracedView) Run() {
	// The batch protocol starts executions one after another, so this
	// increment is ordered; after it, a view that is not the driver
	// touches no bench state until the world has drained.
	v.w.runCalls++
	if v.w.runCalls < v.w.views {
		v.inner.Run()
		return
	}
	v.w.t.begin(spGridRun)
	v.inner.Run()
	v.w.t.end()
}

func (v *tracedView) Stop() {
	v.w.t.begin(spGridStop)
	v.inner.Stop()
	v.w.t.end()
}

func (v *tracedView) Transfer(w int, bytes float64, done func(start, end float64, err error)) {
	v.w.t.begin(spGridTransfer)
	v.inner.Transfer(w, bytes, traceDone(v.w.t, done))
	v.w.t.end()
}

func (v *tracedView) Execute(w int, size float64, probe bool, done func(start, end float64, err error)) {
	v.w.t.begin(spGridExecute)
	v.inner.Execute(w, size, probe, traceDone(v.w.t, done))
	v.w.t.end()
}

func (v *tracedView) ReturnOutput(w int, bytes float64, done func(start, end float64, err error)) {
	v.w.t.begin(spGridReturn)
	v.inner.ReturnOutput(w, bytes, traceDone(v.w.t, done))
	v.w.t.end()
}

// tracedAlg carries the six required dls.Algorithm methods. Name and
// UsesProbing are one-line getters and are not spans.
type tracedAlg struct {
	inner dls.Algorithm
	t     *tracer
}

func (a *tracedAlg) Name() string      { return a.inner.Name() }
func (a *tracedAlg) UsesProbing() bool { return a.inner.UsesProbing() }

func (a *tracedAlg) Plan(p dls.Plan) error {
	a.t.begin(spDLSPlan)
	err := a.inner.Plan(p)
	a.t.end()
	return err
}

func (a *tracedAlg) Next(s dls.State) (dls.Decision, bool) {
	a.t.begin(spDLSNext)
	d, ok := a.inner.Next(s)
	a.t.end()
	return d, ok
}

func (a *tracedAlg) Dispatched(worker int, requested, actual float64) {
	a.t.begin(spDLSDispatched)
	a.inner.Dispatched(worker, requested, actual)
	a.t.end()
}

func (a *tracedAlg) Observe(o dls.Observation) {
	a.t.begin(spDLSObserve)
	a.inner.Observe(o)
	a.t.end()
}

// The optional dls interfaces, one mixin each. traceAlgorithm embeds the
// mixins an algorithm needs into an anonymous struct, so the decorated
// value's method set is the wrapped value's.
type recalMix struct {
	r dls.Recalibrator
	t *tracer
}

func (m recalMix) Recalibrate(worker int, commLatency, compLatency float64) {
	m.t.begin(spDLSRecalibrate)
	m.r.Recalibrate(worker, commLatency, compLatency)
	m.t.end()
}

type lossMix struct {
	l dls.WorkerLossAware
	t *tracer
}

func (m lossMix) WorkerLost(worker int, returnedLoad float64) {
	m.t.begin(spDLSWorkerLost)
	m.l.WorkerLost(worker, returnedLoad)
	m.t.end()
}

type redistMix struct {
	lossMix
	r dls.RedistributionAware
}

func (m redistMix) ChunkRedistributed(from, to int, load float64) {
	m.t.begin(spDLSRedistributed)
	m.r.ChunkRedistributed(from, to, load)
	m.t.end()
}

type switchMix struct {
	s dls.SwitchObservable
	t *tracer
}

func (m switchMix) DrainSwitchDecisions() []dls.SwitchDecision {
	m.t.begin(spDLSDrainSwitch)
	d := m.s.DrainSwitchDecisions()
	m.t.end()
	return d
}

// traceAlgorithm decorates a with the same optional-interface set.
func traceAlgorithm(a dls.Algorithm, t *tracer) dls.Algorithm {
	base := &tracedAlg{inner: a, t: t}
	rc, hasRecal := a.(dls.Recalibrator)
	la, hasLoss := a.(dls.WorkerLossAware)
	ra, hasRedist := a.(dls.RedistributionAware)
	so, hasSwitch := a.(dls.SwitchObservable)
	recal := recalMix{rc, t}
	loss := lossMix{la, t}
	redist := redistMix{loss, ra}
	sw := switchMix{so, t}
	switch {
	case hasRedist && hasRecal && hasSwitch:
		return struct {
			*tracedAlg
			redistMix
			recalMix
			switchMix
		}{base, redist, recal, sw}
	case hasRedist && hasRecal:
		return struct {
			*tracedAlg
			redistMix
			recalMix
		}{base, redist, recal}
	case hasRedist && hasSwitch:
		return struct {
			*tracedAlg
			redistMix
			switchMix
		}{base, redist, sw}
	case hasRedist:
		return struct {
			*tracedAlg
			redistMix
		}{base, redist}
	case hasLoss && hasRecal && hasSwitch:
		return struct {
			*tracedAlg
			lossMix
			recalMix
			switchMix
		}{base, loss, recal, sw}
	case hasLoss && hasRecal:
		return struct {
			*tracedAlg
			lossMix
			recalMix
		}{base, loss, recal}
	case hasLoss && hasSwitch:
		return struct {
			*tracedAlg
			lossMix
			switchMix
		}{base, loss, sw}
	case hasLoss:
		return struct {
			*tracedAlg
			lossMix
		}{base, loss}
	case hasRecal && hasSwitch:
		return struct {
			*tracedAlg
			recalMix
			switchMix
		}{base, recal, sw}
	case hasRecal:
		return struct {
			*tracedAlg
			recalMix
		}{base, recal}
	case hasSwitch:
		return struct {
			*tracedAlg
			switchMix
		}{base, sw}
	}
	return base
}
