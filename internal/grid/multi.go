// multi.go implements the shared-world multi-job simulation: several
// engine executions — one per job — advance on ONE virtual clock, share
// the master's serialized uplink, and time-share worker CPUs through
// fractional shares that a pluggable policy revises as jobs arrive and
// finish. This is the simulated half of the co-scheduling layer: the
// single-job Backend in grid.go models one job on dedicated resources;
// MultiWorld models the cross-job dynamics — the idle-worker waste of
// strict partitioning, and the work-conserving redistribution that fair
// and SRPT-style policies buy.
//
// Model and approximations (documented, deliberate):
//
//   - Worker CPUs time-share preemptively: a job's chunk on worker w
//     progresses at share×Speed, and a share revision re-scales the
//     chunk's REMAINING work mid-flight through the fluid record link
//     flows use (links.go; the launch latency is a fixed cost and does
//     not stretch). Sampling the share only at compute start would let
//     a large final-round chunk that began moments before a peer
//     finished keep its contended rate for thousands of virtual
//     seconds — work-conservation in the model would be a lie.
//   - The master uplink stays serialized ACROSS jobs: one shared FCFS
//     queue carries every transfer at full link bandwidth, so cross-job
//     link contention appears as queueing delay, exactly like same-job
//     contention does in the single-job model. The downlink mirrors it.
//   - The world is clean: no background load, batch holds, faults, or
//     stochastic noise — the quantities under study are scheduling
//     effects, and determinism makes the policy comparison exact.
//
// Driving a world: add every job, then pass one engine.Request per view
// to engine.ExecuteShared with the world's Run as the drive function.
// The jobs begin in order on the calling goroutine, which fixes the
// order of their initial events and so makes the whole simulation
// deterministic; Run then drains the shared heap on that goroutine,
// where every callback of every job happens, so world state needs no
// locking. JobView.Run's barrier, Entered and Abort are kept only for
// bench/'s frozen copy of the older protocol: one goroutine per job,
// launched in order behind the previous view's Entered, the last view
// in Run draining the heap while the others wait.
//
// Dispatch: every operation a view issues (a transfer, an execution, a
// return) takes a slot in the world's op table, which holds what its
// duration and completion need: the view, the kind, the local worker,
// the bytes or load, the probe flag and the engine's done callback.
// The slot's index is the argument of a handful of long-lived callbacks
// built once in NewMultiWorld: the uplink and downlink serve through
// sim.FCFSQueue.EnqueueArg, deferral to a job's arrival and the
// zero-byte return through Engine.AfterArg, and a compute station's
// latency and work ends through Engine.AtArg keyed by a station id. So
// issuing an operation allocates nothing once the tables have grown.
// JobView offers only engine.Backend's closure forms, not
// engine.OpBackend: the engine hands each operation a pooled completion
// cell's method value as done, so a JobView op allocates nothing either
// once the engine's cell list has grown.
// Exposing the op forms would change the optional-interface set the
// bench module's tracing decorator mirrors.
package grid

import (
	"fmt"
	"sync"

	"apstdv/internal/model"
	"apstdv/internal/sim"
	"apstdv/internal/units"
)

// MultiJobStatus describes one active job to a SharePolicy.
type MultiJobStatus struct {
	// Job is the AddJob index.
	Job int
	// Remaining is the load (units) not yet computed.
	Remaining float64
	// Workers is the job's worker subset (global indexes).
	Workers []int
}

// SharePolicy decides the active jobs' share vectors at every
// membership change (arrival, completion). shares is parallel to
// active: shares[i] is active[i]'s vector over ALL the platform's
// workers, and the policy must overwrite EVERY element of every row —
// the caller passes its live vectors in place, so stale entries
// survive anything the policy skips. Policy values may keep internal
// scratch between calls and are therefore not safe for concurrent use;
// construct one per consumer. nil disables revision entirely — each
// job keeps the full share of its own subset, which is the
// strict-partition baseline when subsets are disjoint.
type SharePolicy func(active []MultiJobStatus, workers int, shares [][]float64)

// minShare floors the sampled share so a revision to (or near) zero
// stretches a chunk enormously instead of dividing by zero. Policies
// are expected to keep active jobs' shares well above it.
const minShare = 1e-6

// MultiWorld is the shared simulation: one event heap, one platform,
// one serialized uplink, many concurrently executing jobs.
type MultiWorld struct {
	eng      *sim.Engine
	platform *model.Platform
	uplink   *sim.FCFSQueue
	downlink *sim.FCFSQueue
	policy   SharePolicy

	views      []*JobView
	share      [][]float64 // [job][global worker], revised by the policy
	remaining  []float64
	active     []bool
	finished   []bool
	finishedAt []float64
	reshares   int

	// reshare scratch, reused across revisions so the event path stays
	// allocation-free once every job has arrived.
	actBuf []MultiJobStatus
	rowBuf [][]float64

	// Op table (see multiOp) and the long-lived callbacks every
	// operation and station event dispatches through, built once in
	// NewMultiWorld.
	ops          []multiOp
	opFree       []int32
	activateFn   func(uint64) // a job's arrival, by job index
	startFn      func(uint64) // an op deferred to its job's arrival
	linkDurFn    func(uint64, units.Seconds) units.Seconds
	linkDoneFn   func(uint64, units.Seconds, units.Seconds)
	returnNowFn  func(uint64) // the zero-byte return
	latencyEndFn func(uint64) // by station id
	workEndFn    func(uint64) // by station id

	mu       sync.Mutex // guards the Run barrier only
	runCalls int
	runDone  chan struct{}
	aborted  bool
}

// opKind is what a multiOp does once its job has arrived.
type opKind uint8

const (
	opTransfer opKind = iota // over the shared uplink
	opExecute                // on the job's compute station
	opReturn                 // over the shared downlink
)

// multiOp is one in-flight JobView operation, held in a reusable table
// slot. A slot is freed when its operation completes, and every op
// completes because the world drains, so no generation fencing is
// needed.
type multiOp struct {
	view  *JobView
	kind  opKind
	probe bool
	wl    int32 // local worker index
	// size is bytes for a transfer or a return, load units for an
	// execution.
	size float64
	done func(start, end float64, err error)
	// next links an execution waiting at its compute station to the one
	// queued behind it (-1: the last).
	next int32
}

// NewMultiWorld returns an empty world over the platform. Add jobs with
// AddJob, then run their executions (see the package header).
func NewMultiWorld(p *model.Platform, policy SharePolicy) (*MultiWorld, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	eng := sim.New()
	w := &MultiWorld{
		eng:      eng,
		platform: p,
		uplink:   sim.NewFCFSQueue(eng),
		downlink: sim.NewFCFSQueue(eng),
		policy:   policy,
		runDone:  make(chan struct{}),
	}
	w.activateFn = w.activate
	w.startFn = w.start
	w.linkDurFn = w.linkDur
	w.linkDoneFn = w.linkDone
	w.returnNowFn = w.returnNow
	w.latencyEndFn = w.latencyEnd
	w.workEndFn = w.workEnd
	return w, nil
}

// AddJob registers a job over a subset of the platform's workers
// (global indexes), arriving at the given virtual time. The job starts
// with a full share of each subset worker; the policy revises shares at
// every arrival and completion. All jobs must be added before any
// execution starts.
func (w *MultiWorld) AddJob(app *model.Application, workers []int, arrival float64) (*JobView, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("grid: multi-world job needs workers")
	}
	n := len(w.platform.Workers)
	for _, g := range workers {
		if g < 0 || g >= n {
			return nil, fmt.Errorf("grid: multi-world worker %d outside platform of %d", g, n)
		}
	}
	if arrival < 0 {
		return nil, fmt.Errorf("grid: negative arrival %g", arrival)
	}
	idx := len(w.views)
	v := &JobView{
		world:   w,
		idx:     idx,
		app:     app,
		workers: append([]int(nil), workers...),
		arrival: arrival,
		compute: make([]computeStation, len(workers)),
		entered: make(chan struct{}),
	}
	for wl, g := range workers {
		v.compute[wl] = computeStation{world: w, job: idx, worker: g, id: stationID(idx, wl), waitHead: -1, waitTail: -1}
	}
	shares := make([]float64, n)
	for _, g := range workers {
		shares[g] = 1
	}
	w.views = append(w.views, v)
	w.share = append(w.share, shares)
	w.remaining = append(w.remaining, float64(app.TotalLoad))
	w.active = append(w.active, false)
	w.finished = append(w.finished, false)
	w.finishedAt = append(w.finishedAt, 0)
	// The activation event is scheduled now, before any execution
	// starts, so at its virtual time the share revision precedes every
	// operation the arriving job issues.
	w.eng.AtArg(units.Seconds(arrival), w.activateFn, uint64(idx))
	return v, nil
}

// activate admits job idx to share revision at its arrival.
func (w *MultiWorld) activate(idx uint64) {
	w.active[idx] = true
	w.reshare()
}

// reshare recomputes the active jobs' share vectors through the policy.
// Runs on the driver goroutine (activation and completion events).
func (w *MultiWorld) reshare() {
	if w.policy == nil {
		return
	}
	act := w.actBuf[:0]
	rows := w.rowBuf[:0]
	for i, v := range w.views {
		if w.active[i] && !w.finished[i] {
			act = append(act, MultiJobStatus{Job: i, Remaining: w.remaining[i], Workers: v.workers})
			rows = append(rows, w.share[i])
		}
	}
	w.actBuf, w.rowBuf = act, rows
	if len(act) == 0 {
		return
	}
	// The policy rewrites the live share vectors in place — no vectors
	// change hands, so a revision allocates nothing.
	w.policy(act, len(w.platform.Workers), rows)
	w.reshares++
	// Preempt: in-flight chunks of every surviving job progress at the
	// revised rate from this instant (finished jobs have no in-flight
	// compute, and their zeroed vectors must not stretch anything).
	for _, st := range act {
		stations := w.views[st.Job].compute
		for i := range stations {
			stations[i].revise()
		}
	}
}

// Reshares returns how many share revisions the policy performed.
func (w *MultiWorld) Reshares() int { return w.reshares }

// FinishedAt returns the virtual time a job's execution stopped (its
// engine finished or failed), valid once every execution has returned.
func (w *MultiWorld) FinishedAt(job int) float64 { return w.finishedAt[job] }

// Run drives the shared event heap to quiescence: the drive function
// engine.ExecuteShared calls once every job has begun.
func (w *MultiWorld) Run() { w.eng.Run() }

// Abort unblocks every view waiting in Run without draining the world;
// their executions then return with a stall error. It exists so an
// orchestrator can unwind when one execution fails before reaching the
// barrier.
func (w *MultiWorld) Abort() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.aborted {
		w.aborted = true
		close(w.runDone)
	}
}

// issue reserves an op-table slot for an operation of view v.
func (w *MultiWorld) issue(v *JobView, kind opKind, wl int, size float64, probe bool, done func(start, end float64, err error)) int32 {
	var slot int32
	if n := len(w.opFree); n > 0 {
		slot = w.opFree[n-1]
		w.opFree = w.opFree[:n-1]
	} else {
		w.ops = append(w.ops, multiOp{})
		slot = int32(len(w.ops) - 1)
	}
	w.ops[slot] = multiOp{view: v, kind: kind, probe: probe, wl: int32(wl), size: size, done: done}
	return slot
}

// complete frees an op's slot and reports its service window to the
// engine. The slot is free before done runs, so whatever done issues
// may reuse it.
func (w *MultiWorld) complete(slot int32, start, end float64) {
	done := w.ops[slot].done
	w.ops[slot] = multiOp{}
	w.opFree = append(w.opFree, slot)
	done(start, end, nil)
}

// startOp starts an op once the shared clock has reached its job's
// arrival, deferring it to the arrival otherwise; a job's first
// operations are what realize its staggered arrival.
func (w *MultiWorld) startOp(slot int32) {
	v := w.ops[slot].view
	now := float64(w.eng.Now())
	if now < v.arrival {
		w.eng.AfterArg(units.Seconds(v.arrival-now), w.startFn, uint64(slot))
		return
	}
	w.start(uint64(slot))
}

// start begins an arrived op: a transfer or a return joins its shared
// link's FCFS queue, an execution its job's compute station.
func (w *MultiWorld) start(arg uint64) {
	slot := int32(arg)
	o := &w.ops[slot]
	switch o.kind {
	case opTransfer:
		w.uplink.EnqueueArg(arg, w.linkDurFn, w.linkDoneFn)
	case opReturn:
		w.downlink.EnqueueArg(arg, w.linkDurFn, w.linkDoneFn)
	case opExecute:
		o.view.compute[o.wl].enqueue(slot)
	}
}

// linkDur is every uplink and downlink service's duration: the
// worker's link latency plus the op's bytes at full link bandwidth.
func (w *MultiWorld) linkDur(arg uint64, _ units.Seconds) units.Seconds {
	o := &w.ops[int32(arg)]
	wk := &w.platform.Workers[o.view.workers[o.wl]]
	return units.Seconds(float64(wk.CommLatency) + o.size/float64(wk.Bandwidth))
}

// linkDone is every uplink and downlink service's completion.
func (w *MultiWorld) linkDone(arg uint64, start, end units.Seconds) {
	w.complete(int32(arg), float64(start), float64(end))
}

// returnNow completes a zero-byte return at its issue instant.
func (w *MultiWorld) returnNow(arg uint64) {
	now := float64(w.eng.Now())
	w.complete(int32(arg), now, now)
}

// JobView adapts one job's slice of the world to engine.Backend: local
// worker indexes map onto the job's global subset, computes run on the
// job's own per-worker FIFO queues at the policy's current share, and
// transfers ride the world's shared serialized uplink. It implements
// engine.Stopper; the engine's completion callback is the world's
// in-virtual-time hook for returning the job's shares to its peers.
type JobView struct {
	world   *MultiWorld
	idx     int
	app     *model.Application
	workers []int // global worker indexes
	arrival float64
	compute []computeStation // per local worker
	entered chan struct{}
}

// Entered is closed when this view's execution reaches Run — the signal
// the sequential-start protocol waits on before launching the next job.
func (v *JobView) Entered() <-chan struct{} { return v.entered }

// Arrival returns the job's arrival time (virtual seconds).
func (v *JobView) Arrival() float64 { return v.arrival }

// Now implements engine.Backend on the shared clock.
func (v *JobView) Now() float64 { return float64(v.world.eng.Now()) }

// Workers implements engine.Backend: the size of the job's subset.
func (v *JobView) Workers() int { return len(v.workers) }

// Transfer implements engine.Backend over the world's shared uplink:
// one FCFS queue serializes every job's transfers, so cross-job link
// contention appears as queueing delay at full link bandwidth.
func (v *JobView) Transfer(wl int, bytes float64, done func(start, end float64, err error)) {
	w := v.world
	w.startOp(w.issue(v, opTransfer, wl, bytes, false, done))
}

// Execute implements engine.Backend: the chunk queues FIFO behind the
// job's own earlier work on that worker and progresses at the share the
// policy currently grants, re-scaled mid-flight at every revision (see
// computeStation).
func (v *JobView) Execute(wl int, size float64, probe bool, done func(start, end float64, err error)) {
	w := v.world
	w.startOp(w.issue(v, opExecute, wl, size, probe, done))
}

// ReturnOutput implements engine.Backend over the world's shared
// downlink queue. Zero bytes complete at once, arrival or not.
func (v *JobView) ReturnOutput(wl int, bytes float64, done func(start, end float64, err error)) {
	w := v.world
	slot := w.issue(v, opReturn, wl, bytes, false, done)
	if bytes <= 0 {
		w.eng.AfterArg(0, w.returnNowFn, uint64(slot))
		return
	}
	w.startOp(slot)
}

// Run implements engine.Backend with the world barrier: the last view
// to arrive drives the shared heap to quiescence; earlier arrivals
// block until the world has drained (every job's events, not just their
// own). Each execution's start() precedes its Run() call, so by the
// time draining begins every job's initial events are scheduled.
func (v *JobView) Run() {
	close(v.entered)
	w := v.world
	w.mu.Lock()
	w.runCalls++
	last := w.runCalls == len(w.views)
	aborted := w.aborted
	w.mu.Unlock()
	if !last || aborted {
		<-w.runDone
		return
	}
	w.eng.Run()
	w.mu.Lock()
	if !w.aborted {
		w.aborted = true // reuse the latch: the world only drains once
		close(w.runDone)
	}
	w.mu.Unlock()
}

// Stop implements engine.Stopper. The engine calls it — on the driver
// goroutine, at the job's completion instant in virtual time — when the
// job finishes or fails, which is exactly when a work-conserving policy
// must hand the job's shares to its surviving peers.
func (v *JobView) Stop() {
	w := v.world
	if w.finished[v.idx] {
		return
	}
	w.finished[v.idx] = true
	w.finishedAt[v.idx] = float64(w.eng.Now())
	for g := range w.share[v.idx] {
		w.share[v.idx][g] = 0
	}
	w.reshare()
}

// computeStation serves one job's chunks on one worker, FIFO. A chunk's
// service is a fixed launch latency followed by `base` seconds of work
// progressing at the job's current share on this worker: the in-service
// chunk is a fluid member (see links.go) whose rem is work in seconds
// at share 1.0. reshare calls revise, which banks the progress made at
// the old rate and reschedules the completion at the new one.
// Preemptive re-scaling is what makes the policies work-conserving in
// the model: a chunk launched moments before a peer departs still
// collects the freed capacity.
type computeStation struct {
	fluid
	world  *MultiWorld
	job    int
	worker int    // global index
	id     uint64 // the station's engine-event argument (stationID)

	// FIFO of waiting op slots, linked through multiOp.next (-1: empty).
	waitHead, waitTail int32
	busy               bool

	// In-service chunk state beside the fluid record. inWork is false
	// during the latency phase (a fixed cost, never re-scaled) and true
	// while share-scaled work is progressing.
	cur    int32   // op slot in service
	start  float64 // service start (latency phase begin)
	inWork bool
}

// stationID packs a job index and a local worker index into the
// argument a station's engine events carry.
func stationID(job, wl int) uint64 { return uint64(job)<<32 | uint64(uint32(wl)) }

// station returns the compute station a stationID names.
func (w *MultiWorld) station(id uint64) *computeStation {
	return &w.views[id>>32].compute[uint32(id)]
}

func (s *computeStation) enqueue(slot int32) {
	ops := s.world.ops
	ops[slot].next = -1
	if s.waitTail < 0 {
		s.waitHead = slot
	} else {
		ops[s.waitTail].next = slot
	}
	s.waitTail = slot
	if !s.busy {
		s.startNext()
	}
}

func (s *computeStation) share() float64 {
	sh := s.world.share[s.job][s.worker]
	if sh < minShare {
		sh = minShare
	}
	return sh
}

func (s *computeStation) startNext() {
	if s.waitHead < 0 {
		s.busy = false
		return
	}
	w := s.world
	slot := s.waitHead
	o := &w.ops[slot]
	if s.waitHead = o.next; s.waitHead < 0 {
		s.waitTail = -1
	}
	s.busy = true
	wk := &w.platform.Workers[s.worker]
	now := float64(w.eng.Now())
	s.cur = slot
	s.start = now
	s.rem = o.size * float64(o.view.app.UnitCost) / wk.Speed
	s.inWork = false
	w.eng.AtArg(units.Seconds(now+float64(wk.CompLatency)), w.latencyEndFn, s.id)
}

// latencyEnd ends a station's launch latency: the chunk's work starts
// progressing at the job's current share.
func (w *MultiWorld) latencyEnd(id uint64) {
	s := w.station(id)
	s.inWork = true
	s.last = w.eng.Now()
	s.rate = s.share()
	s.end = w.eng.AtArg(s.last+units.Seconds(s.rem/s.rate), w.workEndFn, id)
}

// workEnd completes a station's chunk, counts its load off the job's
// remaining (measurements excepted) and starts the next one.
func (w *MultiWorld) workEnd(id uint64) {
	s := w.station(id)
	end := float64(w.eng.Now())
	s.inWork = false
	o := &w.ops[s.cur]
	if !o.probe {
		w.remaining[s.job] -= o.size
		if w.remaining[s.job] < 0 {
			w.remaining[s.job] = 0
		}
	}
	w.complete(s.cur, s.start, end)
	s.startNext()
}

// revise re-scales the in-flight chunk to the job's current share:
// progress made at the old rate is banked, and the completion event
// moves to reflect the remaining work at the new rate.
func (s *computeStation) revise() {
	if !s.busy || !s.inWork {
		return
	}
	rate := s.share()
	if rate == s.rate {
		return // unchanged: banking would still move rem (see fluid.bank)
	}
	w := s.world
	now := w.eng.Now()
	s.bank(now)
	s.rate = rate
	s.end = w.eng.MoveArg(s.end, now+units.Seconds(s.rem/rate), w.workEndFn, s.id)
}
