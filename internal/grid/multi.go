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
// Concurrency protocol: each job's engine.Execute call runs in its own
// goroutine and blocks in JobView.Run. The LAST view to reach Run
// drives the shared event heap to quiescence; the others block until it
// finishes. Callers MUST start the executions sequentially — launch the
// goroutine for job i, wait for its Entered channel, then launch i+1 —
// so all event-heap writes are ordered (this also makes the event
// interleaving, and therefore the whole simulation, deterministic).
// After the barrier the heap drains on the single driver goroutine, so
// world state needs no locking beyond the barrier's own mutex.
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

	mu       sync.Mutex // guards the Run barrier only
	runCalls int
	runDone  chan struct{}
	aborted  bool
}

// NewMultiWorld returns an empty world over the platform. Add jobs with
// AddJob, then start their engine executions per the package protocol.
func NewMultiWorld(p *model.Platform, policy SharePolicy) (*MultiWorld, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	eng := sim.New()
	return &MultiWorld{
		eng:      eng,
		platform: p,
		uplink:   sim.NewFCFSQueue(eng),
		downlink: sim.NewFCFSQueue(eng),
		policy:   policy,
		runDone:  make(chan struct{}),
	}, nil
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
		entered: make(chan struct{}),
	}
	for _, g := range workers {
		v.compute = append(v.compute, &computeStation{world: w, job: idx, worker: g})
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
	w.eng.At(units.Seconds(arrival), func() {
		w.active[idx] = true
		w.reshare()
	})
	return v, nil
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
		for _, s := range w.views[st.Job].compute {
			s.revise()
		}
	}
}

// Reshares returns how many share revisions the policy performed.
func (w *MultiWorld) Reshares() int { return w.reshares }

// FinishedAt returns the virtual time a job's execution stopped (its
// engine finished or failed), valid once every execution has returned.
func (w *MultiWorld) FinishedAt(job int) float64 { return w.finishedAt[job] }

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
	compute []*computeStation // per local worker
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

// afterArrival defers fn to the job's arrival time when the shared
// clock has not reached it yet; a job's first operations are what
// realize its staggered arrival.
func (v *JobView) afterArrival(fn func()) {
	now := float64(v.world.eng.Now())
	if now < v.arrival {
		v.world.eng.After(units.Seconds(v.arrival-now), fn)
		return
	}
	fn()
}

// Transfer implements engine.Backend over the world's shared uplink:
// one FCFS queue serializes every job's transfers, so cross-job link
// contention appears as queueing delay at full link bandwidth.
func (v *JobView) Transfer(wl int, bytes float64, done func(start, end float64, err error)) {
	wk := v.world.platform.Workers[v.workers[wl]]
	v.afterArrival(func() {
		v.world.uplink.Enqueue(func(start units.Seconds) units.Seconds {
			return units.Seconds(float64(wk.CommLatency) + bytes/float64(wk.Bandwidth))
		}, func(start, end units.Seconds) {
			done(float64(start), float64(end), nil)
		})
	})
}

// Execute implements engine.Backend: the chunk queues FIFO behind the
// job's own earlier work on that worker and progresses at the share the
// policy currently grants, re-scaled mid-flight at every revision (see
// computeStation).
func (v *JobView) Execute(wl int, size float64, probe bool, done func(start, end float64, err error)) {
	g := v.workers[wl]
	wk := v.world.platform.Workers[g]
	w := v.world
	v.afterArrival(func() {
		base := size * float64(v.app.UnitCost) / wk.Speed
		v.compute[wl].enqueue(float64(wk.CompLatency), base, func(start, end float64) {
			if !probe {
				w.remaining[v.idx] -= size
				if w.remaining[v.idx] < 0 {
					w.remaining[v.idx] = 0
				}
			}
			done(start, end, nil)
		})
	})
}

// ReturnOutput implements engine.Backend over the world's shared
// downlink queue.
func (v *JobView) ReturnOutput(wl int, bytes float64, done func(start, end float64, err error)) {
	if bytes <= 0 {
		now := float64(v.world.eng.Now())
		v.world.eng.After(0, func() { done(now, now, nil) })
		return
	}
	wk := v.world.platform.Workers[v.workers[wl]]
	v.afterArrival(func() {
		v.world.downlink.Enqueue(func(start units.Seconds) units.Seconds {
			return units.Seconds(float64(wk.CommLatency) + bytes/float64(wk.Bandwidth))
		}, func(start, end units.Seconds) {
			done(float64(start), float64(end), nil)
		})
	})
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
	worker int // global index

	// FIFO of waiting chunks, head-zeroed like sim.FCFSQueue so served
	// closures become collectable.
	pending []computeReq
	head    int
	busy    bool

	// In-service chunk state beside the fluid record. inWork is false
	// during the latency phase (a fixed cost, never re-scaled) and true
	// while share-scaled work is progressing.
	start  float64 // service start (latency phase begin)
	inWork bool
	done   func(start, end float64)
}

type computeReq struct {
	lat  float64
	base float64
	done func(start, end float64)
}

func (s *computeStation) enqueue(lat, base float64, done func(start, end float64)) {
	s.pending = append(s.pending, computeReq{lat, base, done})
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
	if s.head == len(s.pending) {
		s.pending = s.pending[:0]
		s.head = 0
		s.busy = false
		return
	}
	req := s.pending[s.head]
	s.pending[s.head] = computeReq{}
	s.head++
	s.busy = true
	now := float64(s.world.eng.Now())
	s.start = now
	s.rem = req.base
	s.done = req.done
	s.inWork = false
	s.world.eng.At(units.Seconds(now+req.lat), func() {
		s.inWork = true
		s.last = s.world.eng.Now()
		s.rate = s.share()
		s.end = s.world.eng.At(s.last+units.Seconds(s.rem/s.rate), s.finish)
	})
}

func (s *computeStation) finish() {
	end := float64(s.world.eng.Now())
	done := s.done
	start := s.start
	s.inWork = false
	s.done = nil
	done(start, end)
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
	now := s.world.eng.Now()
	s.bank(now)
	s.rate = rate
	s.end.Cancel()
	s.end = s.world.eng.At(now+units.Seconds(s.rem/rate), s.finish)
}
