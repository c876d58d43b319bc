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
// locking. A world drains once: after it, only its results are left
// (FinishedAt, Reshares, and the drained clock that JobView.Now keeps
// returning for the engine's closing event), and Stop changes nothing.
// JobView.Run's barrier, Entered and Abort are kept only for bench/'s
// frozen copy of the older protocol: one goroutine per job, launched in
// order behind the previous view's Entered, the last view in Run
// draining the heap while the others wait.
//
// Dispatch: everything a world simulates lives in one multiBlock — the
// event heap, the uplink and downlink queues, one record per job, the
// jobs' compute stations, worker lists and share rows in flat storage,
// the op table and its free list, the reshare scratch, and the
// long-lived callbacks every event dispatches through. Every operation
// a view issues (a transfer, an execution, a return) takes a slot in
// the op table, which holds what its duration and completion need: the
// job, the flat worker index, the kind, the bytes or load, the probe
// flag and the engine's done callback. The slot's index is the argument
// of the block's callbacks: the uplink and downlink serve through
// sim.FCFSQueue.EnqueueArg, deferral to a job's arrival and the
// zero-byte return through Engine.AfterArg, and a compute station's
// latency and work ends through Engine.AtArg keyed by the station's
// flat index. Blocks come from a sync.Pool: NewMultiWorld takes one and
// resets it, and the world returns it exactly once, right after its
// heap drains, holding no reference to the world's platform, policy or
// callbacks. A reset heap restarts its sequence numbers, and
// firing order depends only on (time, sequence), so reusing a block
// reorders nothing. Once the pool's blocks have grown, a world
// allocates only itself, its views and the results it keeps, and
// issuing an operation allocates nothing. JobView offers only
// engine.Backend's closure forms, not engine.OpBackend: the engine hands
// each operation a pooled completion cell's method value as done, so a
// JobView op allocates nothing either once the engine's cell list has
// grown. Exposing the op forms would change the optional-interface set
// the bench module's tracing decorator mirrors.
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
// one serialized uplink, many concurrently executing jobs. While it
// runs, its state is a pooled multiBlock; once the heap drains, the
// block goes back to the pool and the world keeps only its results.
type MultiWorld struct {
	b    *multiBlock // nil once the world has drained
	jobs int

	// The results, kept when the block is returned.
	finishedAt []float64
	reshares   int
	now        float64 // the drained clock

	mu       sync.Mutex // guards the Run barrier only
	runCalls int
	runDone  chan struct{}
	aborted  bool
}

// multiBlock is everything one world simulates, reused from world to
// world so a world does not regrow what an earlier one grew. The
// callbacks are its own method values, built once per block.
type multiBlock struct {
	eng      *sim.Engine
	uplink   *sim.FCFSQueue
	downlink *sim.FCFSQueue
	platform *model.Platform
	policy   SharePolicy

	jobs []multiJob
	// Flat per-job storage: job j's compute stations and global worker
	// indexes are stations[first:first+n] and workers[first:first+n],
	// and its share row, over every platform worker, is
	// shares[j*P:(j+1)*P] for a platform of P workers.
	stations []computeStation
	workers  []int
	shares   []float64
	reshares int

	// reshare scratch, reused across revisions so the event path stays
	// allocation-free once every job has arrived.
	actBuf []MultiJobStatus
	rowBuf [][]float64

	// Op table (see multiOp) and the long-lived callbacks every
	// operation and station event dispatches through.
	ops          []multiOp
	opFree       []int32
	activateFn   func(uint64) // a job's arrival, by job index
	startFn      func(uint64) // an op deferred to its job's arrival
	linkDurFn    func(uint64, units.Seconds) units.Seconds
	linkDoneFn   func(uint64, units.Seconds, units.Seconds)
	returnNowFn  func(uint64) // the zero-byte return
	latencyEndFn func(uint64) // by station index
	workEndFn    func(uint64) // by station index
}

// multiJob is one job's record in its world's block.
type multiJob struct {
	unitCost   float64 // the application's compute seconds per unit
	arrival    float64
	remaining  float64 // load (units) not yet computed
	finishedAt float64
	first, n   int32 // the job's span of stations and workers
	active     bool  // arrived
	finished   bool  // its execution stopped
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
	job   int32
	at    int32 // the flat station and worker index (multiBlock)
	kind  opKind
	probe bool
	// size is bytes for a transfer or a return, load units for an
	// execution.
	size float64
	done func(start, end float64, err error)
	// next links an execution waiting at its compute station to the one
	// queued behind it (-1: the last).
	next int32
}

// blocks recycles the blocks of drained worlds.
var blocks = sync.Pool{New: func() any { return newMultiBlock() }}

func newMultiBlock() *multiBlock {
	b := &multiBlock{eng: sim.New()}
	b.uplink = sim.NewFCFSQueue(b.eng)
	b.downlink = sim.NewFCFSQueue(b.eng)
	b.activateFn = b.activate
	b.startFn = b.start
	b.linkDurFn = b.linkDur
	b.linkDoneFn = b.linkDone
	b.returnNowFn = b.returnNow
	b.latencyEndFn = b.latencyEnd
	b.workEndFn = b.workEnd
	return b
}

// reset readies a block for a new world over the platform: an empty
// heap with its clock and sequence at zero, idle queues, and no jobs or
// ops, every buffer keeping its capacity.
func (b *multiBlock) reset(p *model.Platform, policy SharePolicy) {
	b.eng.Reset()
	b.uplink.Reset()
	b.downlink.Reset()
	b.platform, b.policy = p, policy
	b.jobs = b.jobs[:0]
	b.stations = b.stations[:0]
	b.workers = b.workers[:0]
	b.shares = b.shares[:0]
	b.reshares = 0
	b.ops = b.ops[:0]
	b.opFree = b.opFree[:0]
}

// NewMultiWorld returns an empty world over the platform. Add jobs with
// AddJob, then run their executions (see the package header).
func NewMultiWorld(p *model.Platform, policy SharePolicy) (*MultiWorld, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newMultiWorld(p, policy, blocks.Get().(*multiBlock)), nil
}

// newMultiWorld builds a world on block b, which it resets.
func newMultiWorld(p *model.Platform, policy SharePolicy, b *multiBlock) *MultiWorld {
	b.reset(p, policy)
	return &MultiWorld{b: b, runDone: make(chan struct{})}
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
	b := w.b
	n := len(b.platform.Workers)
	for _, g := range workers {
		if g < 0 || g >= n {
			return nil, fmt.Errorf("grid: multi-world worker %d outside platform of %d", g, n)
		}
	}
	if arrival < 0 {
		return nil, fmt.Errorf("grid: negative arrival %g", arrival)
	}
	idx := len(b.jobs)
	v := &JobView{world: w, idx: idx, workers: len(workers), arrival: arrival, entered: make(chan struct{})}
	first := len(b.stations)
	row := len(b.shares)
	b.shares = append(b.shares, make([]float64, n)...)
	for _, g := range workers {
		id := int32(len(b.stations))
		b.stations = append(b.stations, computeStation{b: b, id: id, job: int32(idx), shareAt: row + g, waitHead: -1, waitTail: -1})
		b.workers = append(b.workers, g)
		b.shares[row+g] = 1
	}
	b.jobs = append(b.jobs, multiJob{
		unitCost: float64(app.UnitCost), arrival: arrival, remaining: float64(app.TotalLoad),
		first: int32(first), n: int32(len(workers)),
	})
	w.jobs++
	// The activation event is scheduled now, before any execution
	// starts, so at its virtual time the share revision precedes every
	// operation the arriving job issues.
	b.eng.AtArg(units.Seconds(arrival), b.activateFn, uint64(idx))
	return v, nil
}

// shareRow returns job j's share vector over every platform worker.
func (b *multiBlock) shareRow(j int) []float64 {
	n := len(b.platform.Workers)
	return b.shares[j*n : (j+1)*n]
}

// activate admits job idx to share revision at its arrival.
func (b *multiBlock) activate(idx uint64) {
	b.jobs[idx].active = true
	b.reshare()
}

// reshare recomputes the active jobs' share vectors through the policy.
// Runs on the driver goroutine (activation and completion events).
func (b *multiBlock) reshare() {
	if b.policy == nil {
		return
	}
	act := b.actBuf[:0]
	rows := b.rowBuf[:0]
	for i := range b.jobs {
		j := &b.jobs[i]
		if j.active && !j.finished {
			act = append(act, MultiJobStatus{Job: i, Remaining: j.remaining, Workers: b.workers[j.first : j.first+j.n]})
			rows = append(rows, b.shareRow(i))
		}
	}
	b.actBuf, b.rowBuf = act, rows
	if len(act) == 0 {
		return
	}
	// The policy rewrites the live share vectors in place — no vectors
	// change hands, so a revision allocates nothing.
	b.policy(act, len(b.platform.Workers), rows)
	b.reshares++
	// Preempt: in-flight chunks of every surviving job progress at the
	// revised rate from this instant (finished jobs have no in-flight
	// compute, and their zeroed vectors must not stretch anything).
	for _, st := range act {
		j := &b.jobs[st.Job]
		for k := j.first; k < j.first+j.n; k++ {
			b.stations[k].revise()
		}
	}
}

// Reshares returns how many share revisions the policy performed.
func (w *MultiWorld) Reshares() int {
	if b := w.b; b != nil {
		return b.reshares
	}
	return w.reshares
}

// FinishedAt returns the virtual time a job's execution stopped (its
// engine finished or failed), valid once every execution has returned.
func (w *MultiWorld) FinishedAt(job int) float64 {
	if b := w.b; b != nil {
		return b.jobs[job].finishedAt
	}
	return w.finishedAt[job]
}

// Run drives the shared event heap to quiescence — it is the drive
// function engine.ExecuteShared calls once every job has begun — then
// keeps the world's results and returns its block to the pool. A
// drained world has nothing left to run, so a second call does nothing.
func (w *MultiWorld) Run() {
	b := w.b
	if b == nil {
		return
	}
	b.eng.Run()
	w.now = float64(b.eng.Now())
	w.reshares = b.reshares
	w.finishedAt = make([]float64, len(b.jobs))
	for i := range b.jobs {
		w.finishedAt[i] = b.jobs[i].finishedAt
	}
	w.b = nil
	// A block waiting in the pool must hold no finished world alive. Its
	// job records hold no pointers, and its op table holds no done
	// callback: every op has completed, and complete zeroes the slot.
	b.platform, b.policy = nil, nil
	blocks.Put(b)
}

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

// issue reserves an op-table slot for an operation of job j on its
// local worker wl.
func (b *multiBlock) issue(j int, kind opKind, wl int, size float64, probe bool, done func(start, end float64, err error)) int32 {
	var slot int32
	if n := len(b.opFree); n > 0 {
		slot = b.opFree[n-1]
		b.opFree = b.opFree[:n-1]
	} else {
		b.ops = append(b.ops, multiOp{})
		slot = int32(len(b.ops) - 1)
	}
	at := b.jobs[j].first + int32(wl)
	b.ops[slot] = multiOp{job: int32(j), at: at, kind: kind, probe: probe, size: size, done: done}
	return slot
}

// complete frees an op's slot and reports its service window to the
// engine. The slot is free before done runs, so whatever done issues
// may reuse it.
func (b *multiBlock) complete(slot int32, start, end float64) {
	done := b.ops[slot].done
	b.ops[slot] = multiOp{}
	b.opFree = append(b.opFree, slot)
	done(start, end, nil)
}

// startOp starts an op once the shared clock has reached its job's
// arrival, deferring it to the arrival otherwise; a job's first
// operations are what realize its staggered arrival.
func (b *multiBlock) startOp(slot int32) {
	arrival := b.jobs[b.ops[slot].job].arrival
	now := float64(b.eng.Now())
	if now < arrival {
		b.eng.AfterArg(units.Seconds(arrival-now), b.startFn, uint64(slot))
		return
	}
	b.start(uint64(slot))
}

// start begins an arrived op: a transfer or a return joins its shared
// link's FCFS queue, an execution its compute station.
func (b *multiBlock) start(arg uint64) {
	slot := int32(arg)
	o := &b.ops[slot]
	switch o.kind {
	case opTransfer:
		b.uplink.EnqueueArg(arg, b.linkDurFn, b.linkDoneFn)
	case opReturn:
		b.downlink.EnqueueArg(arg, b.linkDurFn, b.linkDoneFn)
	case opExecute:
		b.stations[o.at].enqueue(slot)
	}
}

// linkDur is every uplink and downlink service's duration: the
// worker's link latency plus the op's bytes at full link bandwidth.
func (b *multiBlock) linkDur(arg uint64, _ units.Seconds) units.Seconds {
	o := &b.ops[int32(arg)]
	wk := &b.platform.Workers[b.workers[o.at]]
	return units.Seconds(float64(wk.CommLatency) + o.size/float64(wk.Bandwidth))
}

// linkDone is every uplink and downlink service's completion.
func (b *multiBlock) linkDone(arg uint64, start, end units.Seconds) {
	b.complete(int32(arg), float64(start), float64(end))
}

// returnNow completes a zero-byte return at its issue instant.
func (b *multiBlock) returnNow(arg uint64) {
	now := float64(b.eng.Now())
	b.complete(int32(arg), now, now)
}

// JobView adapts one job's slice of the world to engine.Backend: local
// worker indexes map onto the job's global subset, computes run on the
// job's own per-worker FIFO queues at the policy's current share, and
// transfers ride the world's shared serialized uplink. It implements
// engine.Stopper; the engine's completion callback is the world's
// in-virtual-time hook for returning the job's shares to its peers.
//
// A view is driven with a context that never cancels, as
// engine.ExecuteShared and bench/'s barrier protocol both do: a
// cancellable context would call Stop on the context's goroutine,
// racing the drive loop that owns the world's state.
type JobView struct {
	world   *MultiWorld
	idx     int
	workers int // the subset's size
	arrival float64
	entered chan struct{}
}

// Entered is closed when this view's execution reaches Run — the signal
// the sequential-start protocol waits on before launching the next job.
func (v *JobView) Entered() <-chan struct{} { return v.entered }

// Arrival returns the job's arrival time (virtual seconds).
func (v *JobView) Arrival() float64 { return v.arrival }

// Now implements engine.Backend on the shared clock; once the world has
// drained, it is the time of the last event.
func (v *JobView) Now() float64 {
	if b := v.world.b; b != nil {
		return float64(b.eng.Now())
	}
	return v.world.now
}

// Workers implements engine.Backend: the size of the job's subset.
func (v *JobView) Workers() int { return v.workers }

// Transfer implements engine.Backend over the world's shared uplink:
// one FCFS queue serializes every job's transfers, so cross-job link
// contention appears as queueing delay at full link bandwidth.
func (v *JobView) Transfer(wl int, bytes float64, done func(start, end float64, err error)) {
	b := v.world.b
	b.startOp(b.issue(v.idx, opTransfer, wl, bytes, false, done))
}

// Execute implements engine.Backend: the chunk queues FIFO behind the
// job's own earlier work on that worker and progresses at the share the
// policy currently grants, re-scaled mid-flight at every revision (see
// computeStation).
func (v *JobView) Execute(wl int, size float64, probe bool, done func(start, end float64, err error)) {
	b := v.world.b
	b.startOp(b.issue(v.idx, opExecute, wl, size, probe, done))
}

// ReturnOutput implements engine.Backend over the world's shared
// downlink queue. Zero bytes complete at once, arrival or not.
func (v *JobView) ReturnOutput(wl int, bytes float64, done func(start, end float64, err error)) {
	b := v.world.b
	slot := b.issue(v.idx, opReturn, wl, bytes, false, done)
	if bytes <= 0 {
		b.eng.AfterArg(0, b.returnNowFn, uint64(slot))
		return
	}
	b.startOp(slot)
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
	last := w.runCalls == w.jobs
	aborted := w.aborted
	w.mu.Unlock()
	if !last || aborted {
		<-w.runDone
		return
	}
	w.Run()
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
// must hand the job's shares to its surviving peers. After the drain
// the results are final, and Stop does nothing.
func (v *JobView) Stop() {
	b := v.world.b
	if b == nil {
		return
	}
	j := &b.jobs[v.idx]
	if j.finished {
		return
	}
	j.finished = true
	j.finishedAt = float64(b.eng.Now())
	clear(b.shareRow(v.idx))
	b.reshare()
}

// computeStation serves one job's chunks on one worker, FIFO. A chunk's
// service is a fixed launch latency followed by `base` seconds of work
// progressing at the job's current share on this worker: the in-service
// chunk is a fluid member (see links.go) whose rem is work in seconds
// at share 1.0. reshare calls revise, which banks the progress made at
// the old rate and reschedules the completion at the new one.
// Preemptive re-scaling is what makes the policies work-conserving in
// the model: a chunk launched moments before a peer departs still
// collects the freed capacity. A station's engine events carry its
// index in the block's stations.
type computeStation struct {
	fluid
	b       *multiBlock
	id      int32 // the station's index in b.stations
	job     int32
	shareAt int // the job's share of this worker: an index into b.shares

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

func (s *computeStation) enqueue(slot int32) {
	ops := s.b.ops
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
	sh := s.b.shares[s.shareAt]
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
	b := s.b
	slot := s.waitHead
	o := &b.ops[slot]
	if s.waitHead = o.next; s.waitHead < 0 {
		s.waitTail = -1
	}
	s.busy = true
	wk := &b.platform.Workers[b.workers[o.at]]
	now := float64(b.eng.Now())
	s.cur = slot
	s.start = now
	s.rem = o.size * b.jobs[s.job].unitCost / wk.Speed
	s.inWork = false
	b.eng.AtArg(units.Seconds(now+float64(wk.CompLatency)), b.latencyEndFn, uint64(s.id))
}

// latencyEnd ends a station's launch latency: the chunk's work starts
// progressing at the job's current share.
func (b *multiBlock) latencyEnd(id uint64) {
	s := &b.stations[id]
	s.inWork = true
	s.last = b.eng.Now()
	s.rate = s.share()
	s.end = b.eng.AtArg(s.last+units.Seconds(s.rem/s.rate), b.workEndFn, id)
}

// workEnd completes a station's chunk, counts its load off the job's
// remaining (measurements excepted) and starts the next one.
func (b *multiBlock) workEnd(id uint64) {
	s := &b.stations[id]
	end := float64(b.eng.Now())
	s.inWork = false
	o := &b.ops[s.cur]
	if !o.probe {
		j := &b.jobs[s.job]
		j.remaining -= o.size
		if j.remaining < 0 {
			j.remaining = 0
		}
	}
	b.complete(s.cur, s.start, end)
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
	b := s.b
	now := b.eng.Now()
	s.bank(now)
	s.rate = rate
	s.end = b.eng.MoveArg(s.end, now+units.Seconds(s.rem/rate), b.workEndFn, uint64(s.id))
}
