// Package engine is the APST-DV master: it probes resources, hands the
// estimates to a DLS algorithm, and runs the dispatch loop — cutting
// chunks at valid division points, streaming them over the serialized
// master uplink, launching computations, collecting outputs, and
// recording the execution trace.
//
// The engine is execution-backend agnostic: package grid provides the
// discrete-event simulation of the paper's testbed, package live a real
// concurrent runtime over TCP workers. Both implement Backend.
//
// The engine is single-threaded by contract and holds no lock: a backend
// calls it back one call at a time, and only between its Run's entry and
// its return (see Backend). The simulated backends call back from the one
// goroutine that drives their event heap; the live backend serializes its
// RPC completions and timer firings behind a callback mutex of its own.
// The one thing that may happen on another goroutine is cancellation,
// which only sets a per-run atomic mark (and stops a Stopper backend);
// the engine acts on the mark on its own goroutine.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"apstdv/internal/dls"
	"apstdv/internal/model"
	"apstdv/internal/obs"
	otrace "apstdv/internal/obs/trace"
	"apstdv/internal/trace"
)

// Backend abstracts an execution platform.
//
// Every operation reports its outcome through done(start, end, err): a
// nil err is a completed operation with its timeline, a non-nil err a
// failed one (worker crash, stalled RPC, broken connection) whose
// start/end bracket whatever portion ran before the failure. The engine
// maps failures onto chunk-lifecycle retries; without a retry policy
// configured, any failure aborts the run.
//
// The engine calls the three closure-form operations only on backends
// that do not implement OpBackend (the live runtime, the multi-job
// world's views); each done is a pooled completion cell forwarding to
// the handler the op form would get.
//
// The callback contract: every done, of every operation form, and every
// Timer firing is called one at a time — never two at once — and only
// between Run's entry and its return, on any goroutine. An operation the
// engine issues before Run (the first dispatches, the first deadlines)
// completes inside Run; a backend must neither call back from inside the
// operation that issued the work nor after Run has returned. The engine
// keeps no lock of its own: the contract is what makes its state safe.
type Backend interface {
	// Now returns the backend's current time in seconds from start.
	Now() float64
	// Workers returns the number of compute resources.
	Workers() int
	// Transfer moves bytes to worker w over the master uplink and calls
	// done(start, end, err) on completion. The engine issues at most one
	// Transfer at a time — the uplink serialization the paper describes.
	Transfer(w int, bytes float64, done func(start, end float64, err error))
	// Execute runs size load units on worker w (FIFO behind earlier
	// work) and calls done(start, end, err) on completion. size 0 is a
	// no-op calibration job costing only the start-up latency. probe
	// marks measurement work (the probing round and recalibration): the
	// probe file is a fixed, representative input, so its compute time
	// carries the platform's noise (background load) but not the
	// application's data-dependent variability γ.
	Execute(w int, size float64, probe bool, done func(start, end float64, err error))
	// ReturnOutput moves output bytes from worker w back to the master
	// on a path parallel to the uplink.
	ReturnOutput(w int, bytes float64, done func(start, end float64, err error))
	// Run processes work until the engine has finished (and, for
	// backends implementing Stopper, Stop was called). Every callback
	// of the run happens inside it.
	Run()
}

// Stopper is implemented by backends whose Run blocks until told to stop
// (the live runtime); the simulator simply drains its event queue. The
// engine calls Stop at most once per run: from a callback when the run
// finishes or fails, or — when the run's context is cancelled — from the
// context's goroutine, so a blocked Run returns.
type Stopper interface{ Stop() }

// OpBackend is an optional Backend interface offering closure-free forms
// of the three operations: the engine passes an opaque op token and one
// long-lived callback per kind of operation instead of building a
// completion closure per operation. Every operation of a run goes this
// way — work chunks and the probing and recalibration measurements
// alike — so a run allocates nothing per operation. The backend must
// hand op back to done verbatim; the engine fences stale completions by
// decoding it (chunk slot + launch epoch). Backends that do not
// implement it are driven through the closure forms, with identical
// semantics.
type OpBackend interface {
	TransferOp(w int, bytes float64, op uint64, done func(op uint64, start, end float64, err error))
	ExecuteOp(w int, size float64, probe bool, op uint64, done func(op uint64, start, end float64, err error))
	ReturnOutputOp(w int, bytes float64, op uint64, done func(op uint64, start, end float64, err error))
}

// PeerBackend is an optional Backend interface for worker-to-worker
// data movement: PeerTransferOp moves bytes from worker `from`'s site
// directly to worker `to`, bypassing the master and its uplink. The
// engine uses it — only when RetryPolicy.Redistribute is set — to move
// a failed chunk's already-staged input to a surviving worker instead
// of re-staging it through the master. The source's *site* holds the
// data, so a crashed source does not invalidate the transfer; backends
// fail it only if the destination dies. Completion reports exactly as
// TransferOp does.
type PeerBackend interface {
	PeerTransferOp(from, to int, bytes float64, op uint64, done func(op uint64, start, end float64, err error))
}

// Arena is a reusable execution workspace: chunk records, retry state,
// per-worker accounting, estimate buffers, the trace, and the engine's
// callback scratch all live in it and are recycled run to run, so a
// long-lived runner slot (a bench loop, one worker of the parallel
// experiment runner) executes repeated runs nearly allocation-free.
//
// An Arena may serve one Execute at a time; give each concurrent runner
// its own. The trace Execute returns, and the estimate slices handed to
// the algorithm, are borrowed from the arena — they are valid until the
// next Execute on the same arena. Reuse is invisible to output: chunk
// slots carry monotonic epochs, the backend clock and event sequence
// restart per run, and equal inputs produce byte-identical event streams
// and traces with or without an arena.
type Arena struct {
	e *execution
}

// NewArena returns an empty arena, ready to pass in a Request.
func NewArena() *Arena { return &Arena{} }

// TimerID identifies a timer armed through a Timer backend; 0 means "no
// timer". It is an alias for uint64 so backends can implement Timer
// without importing this package (the engine's own tests depend on the
// backends, so the reverse import would cycle).
type TimerID = uint64

// Timer is an optional Backend interface giving the engine one-shot
// timers on the backend clock. The engine keeps its per-chunk stage
// deadlines itself and holds at most one timer per execution, armed for
// the earliest of them (see armDeadline). The simulator implements it on
// the virtual clock with one plain event per timer, so deadlines are as
// deterministic as everything else; the live runtime on the wall clock.
// A backend without Timer still runs under a retry policy — failures
// are then detected only when the backend reports them, never by
// deadline.
type Timer interface {
	// AfterFunc arms fn to run once d seconds of backend time have
	// elapsed and returns an id for CancelTimer. fn receives that same
	// id, so the caller can tell a current firing from a stale one; ids
	// are never reused. A firing is a callback under the Backend
	// contract.
	AfterFunc(d float64, fn func(id TimerID)) TimerID
	// CancelTimer disarms an armed timer. Cancelling a zero, fired, or
	// stale id is a no-op.
	CancelTimer(id TimerID)
}

// Divider aligns requested cut points to the application's valid ones.
// Package divide provides the paper's three methods (uniform, index,
// callback); a nil Divider means continuously divisible load.
type Divider interface {
	// CutAfter returns a valid cut point near want, strictly greater
	// than from. The total load must always be a valid cut.
	CutAfter(from, want float64) float64
}

// Config controls one execution.
type Config struct {
	// ProbeLoad is the probe chunk size in load units (the paper's
	// probefile, e.g. 21 frames against an 1830-frame load). Default:
	// 1% of the total load.
	ProbeLoad float64
	// DisableProbing skips the probing round even for algorithms that
	// request it, handing them blind equal-speed estimates (ablation).
	DisableProbing bool
	// Oracle hands the algorithm noise-free estimates derived from the
	// true platform model instead of probing (ablation upper bound).
	Oracle bool
	// Divider aligns chunk cut points; nil means continuous.
	Divider Divider
	// RecalibrateInterval, when positive, re-measures each worker's
	// start-up costs during execution: every interval seconds the engine
	// sends an empty file and launches a no-op job on the next worker
	// (round-robin), delivering the measurements to algorithms that
	// implement dls.Recalibrator. This is §3.5's "obtains these estimates
	// periodically". Calibration shares the serialized uplink politely:
	// it runs only when the link is otherwise free.
	RecalibrateInterval float64
	// Retry enables the fault-tolerance layer: per-chunk stage deadlines,
	// bounded retry with re-dispatch of lost load to surviving workers,
	// and worker blacklisting after repeated failures. nil disables the
	// layer entirely — backend failures then abort the run, no deadline
	// timers are armed, and the scheduling path is byte-identical to an
	// engine built without the layer.
	Retry *RetryPolicy
	// ParallelUplink lifts the one-outstanding-transfer rule, modelling
	// an idealized master that can feed every worker concurrently at
	// full per-link bandwidth. The paper's platforms serialize (§4.2:
	// "communications to workers are serialized"); this switch exists
	// for the ablation that quantifies how much that serialization is
	// responsible for the algorithms' behaviour.
	ParallelUplink bool
	// Events receives the run's structured event stream (probing,
	// planning, dispatches, completions, uplink occupancy, RUMR switch
	// decisions). Events are timestamped with the backend clock and
	// sequence-numbered in emission order, so simulated runs produce
	// identical streams regardless of host concurrency. nil disables
	// emission entirely.
	Events obs.Sink
	// SeqBase offsets the run's event sequence numbers. The daemon uses
	// it to splice engine events after the job-lifecycle events it has
	// already emitted into the same ring, keeping one monotonic cursor.
	// Zero (the default) leaves streams exactly as before.
	SeqBase int64
	// Trace attaches per-chunk lifecycle spans (one umbrella span per
	// chunk, one child per stage attempt) to the job's trace, parented
	// under TraceParent. The engine runs on the backend clock — virtual
	// seconds under sim — so spans are recorded retroactively at
	// TraceAnchor + seconds×1e9 on the collector timeline and flagged
	// BackendClock. A nil Trace or zero TraceID disables tracing; the
	// dispatch path then pays a single boolean test, and the event
	// stream is untouched either way (sim goldens stay byte-identical).
	Trace       *otrace.Collector
	TraceID     otrace.TraceID
	TraceParent otrace.SpanID
	TraceAnchor int64
	// WorkerShares declares the CPU fraction this job holds on each
	// worker under co-scheduling (one entry per backend worker, each in
	// (0, 1]). The engine does not change how it schedules — the backend
	// already realizes the slowdown — but stage deadlines and retry
	// budgets are derived from share-scaled cost estimates, so a worker
	// legitimately running at half speed is not misread as faulty. nil
	// (or an all-ones vector) leaves every estimate untouched and the
	// scheduling path byte-identical to a dedicated run.
	WorkerShares []float64
}

// Request bundles one execution's inputs — the redesigned public entry
// point. Backend, Algorithm and App are required; Platform is optional
// for backends that do not need the declared model (live runs).
type Request struct {
	Backend   Backend
	Algorithm dls.Algorithm
	App       *model.Application
	Platform  *model.Platform
	Config    Config
	// Arena, when non-nil, supplies the execution's reusable workspace
	// (see Arena). nil borrows a workspace from a package pool for the
	// call and returns a trace the caller owns outright.
	Arena *Arena
}

// Execute runs the application on the backend under the algorithm's
// schedule and returns the execution trace.
//
// Cancelling ctx aborts the run cleanly: no further chunks are
// dispatched, the backend is stopped, the terminal RunFinished event is
// emitted, and Execute returns the context's cause (errors.Is against
// context.Canceled / context.DeadlineExceeded works). The partial trace
// accumulated so far is returned alongside the error.
func Execute(ctx context.Context, req Request) (*trace.Trace, error) {
	b, alg, app, cfg := req.Backend, req.Algorithm, req.App, req.Config
	if ctx == nil {
		ctx = context.Background()
	}
	if b == nil {
		return nil, errors.New("engine: request has no backend")
	}
	if alg == nil {
		return nil, errors.New("engine: request has no algorithm")
	}
	if app == nil {
		return nil, errors.New("engine: request has no application")
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if b.Workers() == 0 {
		return nil, errors.New("engine: backend has no workers")
	}
	if cfg.WorkerShares != nil {
		if len(cfg.WorkerShares) != b.Workers() {
			return nil, fmt.Errorf("engine: %d worker shares for %d workers", len(cfg.WorkerShares), b.Workers())
		}
		for w, s := range cfg.WorkerShares {
			if s <= 0 || s > 1 {
				return nil, fmt.Errorf("engine: share %g for worker %d outside (0, 1]", s, w)
			}
		}
	}
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	if req.Arena != nil {
		if req.Arena.e == nil {
			req.Arena.e = &execution{}
		}
		return req.Arena.e.execute(ctx, req)
	}
	// No arena: borrow a pooled workspace, so an arena-less run allocates
	// like one with an arena. The caller gets a right-sized copy of the
	// trace; the workspace keeps its buffers for the next borrower.
	e := workspaces.Get().(*execution)
	tr, err := e.execute(ctx, req)
	tr = tr.Clone()
	e.release()
	workspaces.Put(e)
	return tr, err
}

// workspaces recycles the workspaces of arena-less runs.
var workspaces = sync.Pool{New: func() any { return &execution{} }}

// execute runs one validated request on the workspace. The trace it
// returns is the workspace's own.
func (e *execution) execute(ctx context.Context, req Request) (*trace.Trace, error) {
	e.beginRun(req)
	e.ctx = ctx
	if ctx.Done() != nil {
		// A context that never cancels costs one registered callback and
		// nothing on the scheduling path.
		gen := e.runGen
		s, _ := req.Backend.(Stopper)
		stop := context.AfterFunc(ctx, func() { e.cancel(gen, s) })
		defer stop()
	}
	e.start()
	e.backend.Run()
	e.poll()
	defer e.retire()
	if ev := e.event(obs.RunFinished, -1); ev != nil {
		ev.Makespan, ev.Chunks = e.trace.Makespan(), e.trace.Len()
		if e.err != nil {
			ev.Err = e.err.Error()
		}
		e.emit(ev)
	}
	if e.err != nil {
		return e.trace, e.err
	}
	if e.remaining > 1e-9 || e.inflight > 0 || len(e.retryQ) > 0 {
		return e.trace, fmt.Errorf("%w: %s with %.6g load undispatched and %d chunks in flight%s",
			ErrStalled, e.alg.Name(), e.remaining, e.inflight, e.stallDetail())
	}
	return e.trace, nil
}

// cancel is the run's context cancellation, on the context's goroutine:
// it marks run gen cancelled and stops a Stopper backend, once, so a Run
// blocked on Stop returns. It touches nothing but the two atomics, so it
// may race the engine. The engine reads the mark in poll; a mark for a
// run that is over (the cancellation raced the run's return, and the
// workspace has moved on) matches no later run, since generations only
// grow.
func (e *execution) cancel(gen uint64, s Stopper) {
	raise(&e.cancelGen, gen)
	if s != nil && raise(&e.stopGen, gen) {
		s.Stop()
	}
}

// poll fails the run with its context's cause once the run is marked
// cancelled. The engine calls it on entry to every callback and after
// Run returns, so cancellation aborts through the normal failure path:
// the first error wins, dispatch halts, and in-flight work drains.
func (e *execution) poll() {
	if e.cancelGen.Load() == e.runGen && e.err == nil {
		e.fail(context.Cause(e.ctx))
	}
}

// raise lifts a to gen unless it is there or past it already, and
// reports whether this call lifted it.
func raise(a *atomic.Uint64, gen uint64) bool {
	for {
		old := a.Load()
		if old >= gen {
			return false
		}
		if a.CompareAndSwap(old, gen) {
			return true
		}
	}
}

// retire ends the run on the workspace: runGen moves on and every chunk
// slot is freed with its epoch bumped, so neither an op token nor a
// cancellation mark of the finished run matches anything again, and the
// run's context is dropped.
func (e *execution) retire() {
	e.runGen++
	e.ctx = nil
	e.chunkFree = e.chunkFree[:0]
	for i := range e.chunkSlots {
		c := &e.chunkSlots[i]
		c.used = false
		c.epoch++
		e.chunkFree = append(e.chunkFree, int32(i))
	}
}

// release drops a pooled workspace's references to the finished run's
// objects — backend, algorithm, application, platform, sinks, config —
// keeping only its buffers. A deadline left armed on a wall-clock
// backend cannot reach the next borrower: no backend calls back after
// its Run returned.
func (e *execution) release() {
	e.backend, e.alg, e.app, e.platform = nil, nil, nil, nil
	e.cfg = Config{}
	e.sink, e.switchObs = nil, nil
	e.scratch = obs.Event{}
	e.opBackend, e.timer, e.peerBackend = nil, nil, nil
	e.lossAware, e.redistAware = nil, nil
	e.ests, e.dests, e.err = nil, nil, nil
}

func platformName(p *model.Platform) string {
	if p == nil {
		return "unknown"
	}
	return p.Name
}

type execution struct {
	ctx      context.Context
	backend  Backend
	alg      dls.Algorithm
	app      *model.Application
	platform *model.Platform
	cfg      Config
	trace    *trace.Trace

	total     float64
	remaining float64
	offset    float64
	completed float64

	pending       []float64
	pendingChunks []int
	inflight      int
	sending       bool
	chunkID       int

	// Chunk-lifecycle state: every tracked attempt — work chunk or
	// measurement — lives in a slot of the chunk arena (chunkSlots + free
	// list, epochs monotonic across reuse so stale callbacks fence — see
	// chunk.epoch), the FIFO of failed attempts awaiting re-dispatch holds
	// slot indices, and the per-worker health drives blacklisting. The
	// retry queue and the health state stay idle when cfg.Retry is nil.
	chunkSlots []chunk
	chunkFree  []int32
	retryQ     []int32
	dead       []bool
	consecFail []int
	alive      int
	// blacklistErrs caches each worker's blacklist cause and flightBuf
	// is inFlight's scratch; both survive arena reuse.
	blacklistErrs []*blacklistError
	flightBuf     []int32
	retryOn       bool
	retry         RetryPolicy
	timer         Timer
	timeoutFn     func(TimerID) // onDeadline as a method value, built once
	// Stage deadlines (see armDeadline): the armed stages in no order,
	// the arming counter that orders stages due at one instant, and the
	// one backend timer serving them all — its id (0: none armed) and
	// the instant it fires, never later than the earliest deadline.
	// firing is set while onDeadline times stages out.
	deadlines   []stageDeadline
	deadlineSeq uint64
	timerID     TimerID
	timerAt     float64
	firing      bool
	ests        []model.Estimate
	dests       []model.Estimate // deadline estimates (see plan)
	lossAware   dls.WorkerLossAware
	// Redistribution (RetryPolicy.Redistribute on a PeerBackend): failed
	// attempts whose input already reached a site re-dispatch over the
	// peer path instead of the master uplink.
	peerBackend PeerBackend
	redistAware dls.RedistributionAware
	peerDoneFn  func(op uint64, start, end float64, err error)

	// Indexed dispatch: the three stage-completion handlers below (method
	// values, built once per workspace) serve every operation of every
	// chunk kind; an OpBackend receives them directly, any other backend
	// through a pooled completion cell per operation in flight (see
	// opCell). cellFree holds the cells not in flight.
	opBackend      OpBackend
	transferDoneFn func(op uint64, start, end float64, err error)
	computeDoneFn  func(op uint64, start, end float64, err error)
	returnDoneFn   func(op uint64, start, end float64, err error)
	cellFree       []*opCell
	// runGen names the run: it moves on as a run begins and as it ends
	// (see retire). cancelGen and stopGen hold the newest run marked
	// cancelled and the newest whose Stopper was stopped; they are the
	// only fields another goroutine writes (see cancel), and a mark that
	// outlives its run no-ops on mismatch.
	runGen             uint64
	cancelGen, stopGen atomic.Uint64
	// estBuf/destBuf back the per-run estimate slices when the workspace
	// is arena-reused.
	estBuf  []model.Estimate
	destBuf []model.Estimate

	probeLoad float64
	// Periodic recalibration state.
	lastCal     float64
	calWorker   int
	calibrating bool
	// probing-phase measurements, indexed by worker.
	probes       []probeResult
	probesLeft   int
	planned      bool
	err          error
	stopNotified bool

	// Observability: the event sink (nil = disabled), the scratch event
	// every emission goes through (callbacks never overlap, so one per
	// execution suffices), the emission sequence counter, and the cached
	// switch-decision drain interface.
	sink      obs.Sink
	scratch   obs.Event
	eventSeq  int64
	switchObs dls.SwitchObservable

	// Tracing (see Config.Trace). traceOn is the one test the disabled
	// path pays; cfg's trace fields are read only when it is true.
	traceOn bool
}

// beginRun initializes the workspace for one execution, recycling every
// buffer a previous run on the same workspace left behind. It performs
// the exact setup the pre-arena Execute did; the only difference is that
// slices are resized in place and the trace is reset instead of
// reallocated.
func (e *execution) beginRun(req Request) {
	b, alg, app, cfg := req.Backend, req.Algorithm, req.App, req.Config
	// Recycle the chunk arena: every slot returns to the free list with
	// its epoch bumped, so op tokens from a previous run can never match
	// a chunk of this one.
	e.retire()
	e.backend = b
	e.alg = alg
	e.app = app
	e.platform = req.Platform
	e.cfg = cfg
	if e.trace == nil {
		e.trace = trace.New(alg.Name(), platformName(req.Platform))
	} else {
		e.trace.Reset(alg.Name(), platformName(req.Platform))
	}
	e.total = float64(app.TotalLoad)
	e.remaining = e.total
	e.offset, e.completed = 0, 0
	e.inflight, e.sending, e.chunkID = 0, false, 0
	e.sink = cfg.Events
	e.switchObs, _ = alg.(dls.SwitchObservable)
	e.opBackend, _ = b.(OpBackend)
	if e.transferDoneFn == nil {
		// The three stage handlers serve every chunk operation of every
		// run on this workspace; built once, like timeoutFn.
		e.transferDoneFn = e.transferDone
		e.computeDoneFn = e.computeDone
		e.returnDoneFn = e.returnDone
	}
	e.traceOn = cfg.Trace != nil && cfg.TraceID != 0
	n := b.Workers()
	e.pending = resize(e.pending, n)
	e.pendingChunks = resize(e.pendingChunks, n)
	e.dead = resize(e.dead, n)
	e.consecFail = resize(e.consecFail, n)
	e.alive = n
	e.retryQ = e.retryQ[:0]
	e.retryOn = false
	e.retry = RetryPolicy{}
	e.timer = nil
	e.deadlines = e.deadlines[:0]
	e.deadlineSeq, e.timerID, e.firing = 0, 0, false
	e.lossAware = nil
	e.peerBackend = nil
	e.redistAware = nil
	if cfg.Retry != nil {
		e.retryOn = true
		e.retry = cfg.Retry.withDefaults()
		e.timer, _ = b.(Timer)
		if e.timer != nil && e.timeoutFn == nil {
			// One handler serves the execution's one deadline timer
			// (see onDeadline), so arming it never builds a closure.
			e.timeoutFn = e.onDeadline
		}
		e.lossAware, _ = alg.(dls.WorkerLossAware)
		if e.retry.Redistribute {
			e.peerBackend, _ = b.(PeerBackend)
			e.redistAware, _ = alg.(dls.RedistributionAware)
			if e.peerDoneFn == nil {
				e.peerDoneFn = e.peerDone
			}
		}
	}
	if cfg.ProbeLoad <= 0 {
		e.probeLoad = e.total / 100
	} else {
		e.probeLoad = cfg.ProbeLoad
	}
	e.probes = e.probes[:0]
	e.probesLeft = 0
	e.planned = false
	e.err = nil
	e.stopNotified = false
	e.lastCal, e.calWorker, e.calibrating = 0, 0, false
	e.ests, e.dests = nil, nil
	e.eventSeq = cfg.SeqBase
}

// resize returns s with length n and every element zeroed, growing only
// when capacity is short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// allocChunk reserves a chunk-arena slot, preserving the slot's epoch
// across reuse (the fence against stale callbacks) and zeroing the rest.
func (e *execution) allocChunk() *chunk {
	var slot int32
	if n := len(e.chunkFree); n > 0 {
		slot = e.chunkFree[n-1]
		e.chunkFree = e.chunkFree[:n-1]
	} else {
		slot = int32(len(e.chunkSlots))
		e.chunkSlots = append(e.chunkSlots, chunk{})
	}
	c := &e.chunkSlots[slot]
	epoch := c.epoch
	*c = chunk{slot: slot, epoch: epoch, used: true, dataAt: -1}
	return c
}

// releaseChunk returns a retired chunk's slot to the free list, bumping
// its epoch so outstanding callbacks and tokens go stale.
func (e *execution) releaseChunk(c *chunk) {
	c.used = false
	c.epoch++
	e.chunkFree = append(e.chunkFree, c.slot)
}

// traceNs places a backend timestamp (seconds since backend start) on
// the collector timeline.
func (e *execution) traceNs(sec float64) int64 {
	return e.cfg.TraceAnchor + int64(sec*1e9)
}

// recordStageSpan records one backend-clock stage span under the
// chunk's umbrella span. The caller has checked e.traceOn.
func (e *execution) recordStageSpan(c *chunk, name string, start, end float64, errMsg string) {
	e.cfg.Trace.RecordSpan(e.cfg.TraceID, 0, c.span, name, e.traceNs(start), e.traceNs(end), true, errMsg)
}

// event starts one event: it returns the execution's scratch event,
// cleared and given its type and worker, for the caller to fill in and
// hand to emit — or nil when no sink is attached, so a run without one
// builds nothing. The ~300-byte event is written once, in place, and
// never passed by value. The caller must emit before anything else can
// start another event.
func (e *execution) event(typ obs.EventType, worker int) *obs.Event {
	if e.sink == nil {
		return nil
	}
	e.scratch = obs.Event{Type: typ, Worker: worker}
	return &e.scratch
}

// emit stamps and forwards the event started by event: sequence numbers
// are dense in emission order and the timestamp is the backend clock,
// which is what keeps simulated streams byte-deterministic. The sink
// reads the scratch where it lies, which keeps the hot path allocation-
// and copy-free; delivery stays per-event so live tails see each event
// as it happens.
func (e *execution) emit(ev *obs.Event) {
	ev.Seq = e.eventSeq
	e.eventSeq++
	ev.T = e.backend.Now()
	e.sink.EmitPtr(ev)
}

// drainSwitchDecisions re-emits any phase-switch evaluations the
// algorithm logged since the last planning or dispatch step.
func (e *execution) drainSwitchDecisions() {
	if e.switchObs == nil {
		return
	}
	for _, d := range e.switchObs.DrainSwitchDecisions() {
		if ev := e.event(obs.RUMRSwitch, -1); ev != nil {
			ev.Gamma, ev.Want, ev.Remaining, ev.Switched = d.Gamma, d.Want, d.Remaining, d.Switched
			e.emit(ev)
		}
	}
}

// start seeds the first actions.
func (e *execution) start() {
	if e.alg.UsesProbing() && !e.cfg.DisableProbing && !e.cfg.Oracle {
		e.startProbing()
		return
	}
	e.plan(e.initialEstimates())
}

// initialEstimates returns the estimates for the no-probing paths:
// oracle truth, or blind equal-speed stubs.
func (e *execution) initialEstimates() []model.Estimate {
	if e.cfg.Oracle && e.platform != nil {
		return model.TrueEstimates(e.app, e.platform)
	}
	e.estBuf = resize(e.estBuf, e.backend.Workers())
	ests := e.estBuf
	for i := range ests {
		ests[i] = model.Estimate{Worker: i, UnitComp: 1, UnitComm: 0}
	}
	return ests
}

// uplinkFreed records chunk c's transfer releasing the serialized
// uplink. A measurement is marked Probe and carries no chunk id (a probe
// chunk takes its id only after this).
func (e *execution) uplinkFreed(c *chunk, start, end float64) {
	if ev := e.event(obs.UplinkIdle, c.worker); ev != nil {
		ev.Chunk, ev.Probe, ev.Dur = c.id, c.kind != kindWork, end-start
		e.emit(ev)
	}
}

// uplinkBusy is uplinkFreed's opening bracket: chunk c's transfer taking
// the serialized uplink.
func (e *execution) uplinkBusy(c *chunk) {
	if ev := e.event(obs.UplinkBusy, c.worker); ev != nil {
		ev.Chunk, ev.Probe, ev.Bytes = c.id, c.kind != kindWork, c.bytes
		e.emit(ev)
	}
}

// plan invokes the algorithm's planning step and opens the dispatch loop.
func (e *execution) plan(ests []model.Estimate) {
	e.planned = true
	e.ests = ests
	e.dests = ests
	if e.retryOn && len(e.probes) == 0 && !e.cfg.Oracle && e.platform != nil {
		// Blind algorithms plan over stub estimates that carry no timing
		// information; deriving their stage deadlines from those would
		// make every healthy chunk look late. Deadlines are an engine
		// safety net, not scheduling input, so take them from the
		// declared platform model — the algorithm stays blind.
		e.dests = model.TrueEstimates(e.app, e.platform)
	}
	if shares := e.cfg.WorkerShares; len(shares) == len(e.dests) {
		// Co-scheduled jobs run each worker at a fraction of its speed
		// and the master link at a fraction of its bandwidth. Deadlines
		// derived from dedicated-rate estimates would misread that
		// slowdown as failure, so scale the per-unit costs by 1/share.
		// e.dests aliases the slice the algorithm plans over — copy
		// before scaling so scheduling input stays share-blind.
		scaled := false
		for _, s := range shares {
			if s > 0 && s < 1 {
				scaled = true
				break
			}
		}
		if scaled {
			e.destBuf = resize(e.destBuf, len(e.dests))
			copy(e.destBuf, e.dests)
			d := e.destBuf
			for w := range d {
				if s := shares[w]; s > 0 && s < 1 {
					d[w].UnitComp /= s
					d[w].UnitComm /= s
				}
			}
			e.dests = d
		}
	}
	minChunk := float64(e.app.MinChunk)
	err := e.alg.Plan(dls.Plan{TotalLoad: e.total, MinChunk: minChunk, Workers: ests})
	e.drainSwitchDecisions() // oracle variants may fix the split at plan time
	if err != nil {
		e.fail(err)
		return
	}
	if e.lossAware != nil {
		// Workers lost during probing: the plan was just built over the
		// placeholder estimates, so tell the algorithm not to target them.
		for w := range e.dead {
			if e.dead[w] {
				e.lossAware.WorkerLost(w, 0)
			}
		}
	}
	if ev := e.event(obs.PlanDone, -1); ev != nil {
		ev.Workers, ev.TotalLoad = len(ests), e.total
		e.emit(ev)
	}
	e.tryDispatch()
}

// state snapshots the engine's progress for the algorithm.
func (e *execution) state() dls.State {
	return dls.State{
		Now:           e.backend.Now(),
		Remaining:     e.remaining,
		Pending:       e.pending,
		PendingChunks: e.pendingChunks,
		InFlight:      e.inflight,
		Completed:     e.completed,
	}
}

// tryDispatch asks the algorithm for the next chunk whenever the uplink
// is free. Failed attempts waiting in the retry queue take priority over
// fresh load — their chunk IDs and offsets are already assigned, they
// only need a surviving worker.
func (e *execution) tryDispatch() {
	if e.err != nil || (e.sending && !e.cfg.ParallelUplink) || e.calibrating {
		e.maybeFinish()
		return
	}
	if e.retryOn && len(e.retryQ) > 0 {
		c := &e.chunkSlots[e.retryQ[0]]
		w, ok := e.pickAliveWorker()
		if !ok {
			e.failNoWorkers()
			return
		}
		// Shift rather than re-slice so the queue's backing array keeps
		// its full capacity across arena reuse.
		copy(e.retryQ, e.retryQ[1:])
		e.retryQ = e.retryQ[:len(e.retryQ)-1]
		c.attempt++
		e.assign(c, w)
		// The algorithm is not re-consulted: the engine owns re-dispatch
		// (see dls.WorkerLossAware), so alg.Dispatched is not called and
		// the load re-enters the accounting only through remaining.
		if e.peerBackend != nil && c.dataAt >= 0 {
			// Redistribution: this attempt's input already reached the
			// failed worker's site, so move it peer-to-peer instead of
			// re-staging through the master. The uplink stays free —
			// keep dispatching fresh load behind it.
			e.launchPeer(c)
			e.tryDispatch()
			return
		}
		e.sending = true
		e.launch(c)
		return
	}
	if e.remaining <= 1e-9 {
		e.maybeFinish()
		return
	}
	if e.cfg.RecalibrateInterval > 0 && e.backend.Now()-e.lastCal >= e.cfg.RecalibrateInterval {
		e.recalibrate()
		return
	}
	d, ok := e.alg.Next(e.state())
	e.drainSwitchDecisions()
	if !ok {
		if e.inflight == 0 && e.remaining > 1e-9 {
			// Nothing in flight can retrigger dispatch: the algorithm
			// has abandoned load. Fail fast instead of hanging a live
			// backend.
			e.fail(fmt.Errorf("%w: %s declined to dispatch with %.6g load remaining and nothing in flight",
				ErrStalled, e.alg.Name(), e.remaining))
		}
		e.maybeFinish()
		return
	}
	if d.Worker < 0 || d.Worker >= e.backend.Workers() {
		e.fail(fmt.Errorf("engine: %s dispatched to invalid worker %d", e.alg.Name(), d.Worker))
		return
	}
	if d.Size <= 0 {
		e.fail(fmt.Errorf("engine: %s dispatched non-positive size %g", e.alg.Name(), d.Size))
		return
	}
	if e.retryOn && e.dead[d.Worker] {
		// The algorithm still targets a lost worker (it may not implement
		// WorkerLossAware); redirect to a survivor.
		w, ok := e.pickAliveWorker()
		if !ok {
			e.failNoWorkers()
			return
		}
		d.Worker = w
	}
	requested := d.Size
	if requested > e.remaining {
		requested = e.remaining
	}
	// Align the cut to a valid division point.
	actual := requested
	if e.cfg.Divider != nil {
		cut := e.cfg.Divider.CutAfter(e.offset, e.offset+requested)
		if cut <= e.offset || cut > e.total+1e-9 {
			e.fail(fmt.Errorf("engine: divider returned invalid cut %g (offset %g, total %g)", cut, e.offset, e.total))
			return
		}
		actual = cut - e.offset
	}
	if actual > e.remaining {
		actual = e.remaining
	}
	// Absorb a sub-granularity remnant into this chunk rather than
	// stranding a tail no algorithm would ask for.
	minChunk := float64(e.app.MinChunk)
	if rem := e.remaining - actual; rem > 0 && rem < minChunk {
		actual = e.remaining
	}

	c := e.allocChunk()
	c.id = e.nextChunkID()
	c.offset = e.offset
	c.size = actual
	c.bytes = actual * float64(e.app.BytesPerUnit)
	c.attempt = 1
	e.offset += actual
	e.assign(c, d.Worker)
	e.sending = true
	e.alg.Dispatched(d.Worker, d.Size, actual)
	e.launch(c)
}

// assign puts chunk c on worker w: its load leaves the undispatched pool
// and joins w's pending work.
func (e *execution) assign(c *chunk, w int) {
	c.worker = w
	e.remaining -= c.size
	e.pending[w] += c.size
	e.pendingChunks[w]++
	e.inflight++
}

func (e *execution) nextChunkID() int {
	e.chunkID++
	return e.chunkID
}

// maybeFinish stops the backend once all load is computed.
func (e *execution) maybeFinish() {
	if e.stopNotified {
		return
	}
	finished := e.remaining <= 1e-9 && e.inflight == 0 && len(e.retryQ) == 0
	if finished || e.err != nil {
		e.stopNotified = true
		if s, ok := e.backend.(Stopper); ok && raise(&e.stopGen, e.runGen) {
			s.Stop()
		}
	}
}

// fail records the first error and stops.
func (e *execution) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.maybeFinish()
}
