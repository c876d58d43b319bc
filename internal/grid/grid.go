// Package grid is the simulated execution backend: it realizes the
// paper's testbed — two clusters behind a serialized master uplink, batch
// access latencies, heterogeneous nodes, stochastic compute times, and
// (for the case study) non-dedicated hosts with background load — as a
// discrete-event model the engine drives through the same Backend
// interface as the live runtime.
//
// Time is virtual: a full multi-hour experiment simulates in
// milliseconds, which is what makes the paper's 10-run averages over six
// algorithms reproducible on a laptop.
package grid

import (
	"fmt"
	"math"

	"apstdv/internal/model"
	"apstdv/internal/obs"
	"apstdv/internal/rng"
	"apstdv/internal/sim"
	"apstdv/internal/units"
)

// Config tunes backend behaviour beyond what the platform and application
// models specify. The paper's testbed (§4.2) is a star with a
// serialized uplink and a stable network, with each worker dedicated to
// the job: transfer times carry no noise and the backend runs one job.
// Jobs sharing workers are MultiWorld's to model.
type Config struct {
	// Seed drives all stochastic processes; runs with equal seeds are
	// bit-identical.
	Seed uint64
	// ProbeBias scales probe compute times, modelling an unrepresentative
	// probe file ("representative may mean close to the average case",
	// §3.5 — a probe costing 1.2× the average biases every speed estimate
	// by 20%). 0 means unbiased (1.0).
	ProbeBias float64
	// Metrics, when non-nil, records backend-level occupancy the engine
	// cannot see: compute-queue depths, batch-scheduler hold times, and
	// downlink busy time. Purely observational — never feeds back into
	// the simulation, so instrumented runs stay bit-identical.
	Metrics *obs.GridMetrics
	// Faults injects deterministic worker failures (see FaultPlan). nil
	// disables injection with zero overhead and no rng consumption.
	Faults *FaultPlan
}

// gridOp is one in-flight backend operation: the state its duration and
// completion callbacks need, held in a reusable table slot so issuing an
// operation allocates nothing. Slots are freed exactly when the
// operation completes (every op completes — the simulation drains), so
// no generation fencing is needed.
type gridOp struct {
	// w is the worker whose crash cuts the op: the destination of a
	// transfer, the worker computing or returning.
	w     int32
	probe bool
	// size is load units for an execution, bytes for a return.
	size float64
	// op is the caller's opaque token, handed back through done.
	op   uint64
	done func(op uint64, start, end float64, err error)
	// err is set when a crash cuts the op (see cut) and consumed by the
	// completion callback.
	err error
	// start is the op's issue time: the window start transfer-style
	// completions report (queue-served ops get theirs from the queue).
	start units.Seconds
}

// Backend simulates a Platform executing an Application.
type Backend struct {
	eng      *sim.Engine
	platform *model.Platform
	app      *model.Application
	cfg      Config

	compute  []*sim.FCFSQueue // one per worker CPU
	downlink *sim.FCFSQueue   // output return path, parallel to the uplink

	compRNG []*rng.Source // per-worker compute noise
	bg      []*bgProcess
	batch   []*batchState
	faults  []faultState // nil when no faults are injected
	// faultBuf keeps the compiled fault state's storage across Resets.
	faultBuf []faultState
	links    *linkNet // nil unless the platform carries a Topology

	// Op table (see gridOp) and the long-lived callbacks all operations
	// dispatch through, built once in New.
	ops            []gridOp
	opFree         []int32
	transferFireFn func(uint64)
	execDurFn      func(uint64, units.Seconds) units.Seconds
	execDoneFn     func(uint64, units.Seconds, units.Seconds)
	returnDurFn    func(uint64, units.Seconds) units.Seconds
	returnDoneFn   func(uint64, units.Seconds, units.Seconds)

	// Timer table (see AfterFunc): one slot per armed timer, reused
	// through a free list, and the one callback every timer event fires
	// through, built once in New.
	timers      []gridTimer
	timerFree   []int32
	timerFireFn func(uint64)
}

// gridTimer is one armed engine.Timer: its callback and the event that
// fires it. gen fences ids: it moves on each time the slot is taken, so
// the id of a fired or cancelled timer never matches a later one.
type gridTimer struct {
	fn  func(uint64)
	h   sim.Handle
	gen uint32
}

// New validates the models and returns a backend positioned at time zero.
func New(p *model.Platform, a *model.Application, cfg Config) (*Backend, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	eng := sim.New()
	b := &Backend{
		eng:      eng,
		platform: p,
		downlink: sim.NewFCFSQueue(eng),
	}
	b.transferFireFn = b.transferFire
	b.execDurFn = b.execDur
	b.execDoneFn = b.execDone
	b.returnDurFn = b.returnDur
	b.returnDoneFn = b.returnDone
	b.timerFireFn = b.timerFire
	if p.Topology != nil {
		b.links = newLinkNet(b)
	}
	for i := range p.Workers {
		b.compute = append(b.compute, sim.NewFCFSQueue(eng))
		b.compRNG = append(b.compRNG, rng.New(0))
		w := p.Workers[i]
		if w.Background != nil {
			b.bg = append(b.bg, &bgProcess{cfg: w.Background, src: rng.New(0)})
		} else {
			b.bg = append(b.bg, nil)
		}
		if w.Batch != nil {
			b.batch = append(b.batch, &batchState{cfg: w.Batch, src: rng.New(0)})
		} else {
			b.batch = append(b.batch, nil)
		}
	}
	if err := b.Reset(a, cfg); err != nil {
		return nil, err
	}
	return b, nil
}

// Reset rewinds the backend to time zero for a fresh run of app under
// cfg on the same platform, reusing every structure New built: the event
// arena, FCFS queues, rng streams (reseeded in place), and the op and
// timer tables. A reset backend produces output bit-identical to a
// freshly constructed one with the same arguments — stream seeds are
// derived from the same labels, the clock and event sequence restart
// from zero, and every stochastic process re-initializes exactly as in
// New. Call it only between runs (never while the engine is mid-drain).
func (b *Backend) Reset(a *model.Application, cfg Config) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if cfg.ProbeBias == 0 {
		cfg.ProbeBias = 1
	}
	if cfg.ProbeBias < 0 {
		return fmt.Errorf("grid: negative probe bias %g", cfg.ProbeBias)
	}
	if err := cfg.Faults.validate(len(b.platform.Workers)); err != nil {
		return err
	}
	b.app = a
	b.cfg = cfg
	b.eng.Reset()
	b.timerFree = b.timerFree[:0]
	for i := range b.timers {
		b.timers[i].fn, b.timers[i].h = nil, sim.Handle{}
		b.timerFree = append(b.timerFree, int32(i))
	}
	b.downlink.Reset()
	for i := range b.platform.Workers {
		b.compute[i].Reset()
		b.compRNG[i].Seed(rng.IndexedStreamSeed(cfg.Seed, "comp/", i))
		if b.bg[i] != nil {
			b.bg[i].src.Seed(rng.IndexedStreamSeed(cfg.Seed, "bg/", i))
			b.bg[i].reset()
		}
		if b.batch[i] != nil {
			b.batch[i].src.Seed(rng.IndexedStreamSeed(cfg.Seed, "batch/", i))
			b.batch[i].reset()
		}
	}
	b.faults = compileFaults(b.faultBuf, cfg.Faults, len(b.platform.Workers))
	if b.faults != nil {
		b.faultBuf = b.faults
	}
	b.ops = b.ops[:0]
	b.opFree = b.opFree[:0]
	if b.links != nil {
		b.links.reset()
	}
	return nil
}

// issue reserves an op-table slot for an op on worker w, issued now.
func (b *Backend) issue(w int, op uint64, done func(op uint64, start, end float64, err error)) int32 {
	var slot int32
	if n := len(b.opFree); n > 0 {
		slot = b.opFree[n-1]
		b.opFree = b.opFree[:n-1]
	} else {
		b.ops = append(b.ops, gridOp{})
		slot = int32(len(b.ops) - 1)
	}
	o := &b.ops[slot]
	o.w, o.op, o.done, o.start = int32(w), op, done, b.eng.Now()
	return slot
}

// freeOp returns a slot to the table, dropping callback references.
func (b *Backend) freeOp(slot int32) {
	b.ops[slot] = gridOp{}
	b.opFree = append(b.opFree, slot)
}

// cut is the one crash rule: an op on worker w that starts at start and
// would take d seconds fails at once when w is already down, fails at
// the crash instant when w dies before it ends, and otherwise takes d.
func (b *Backend) cut(w int, start units.Seconds, d float64) (units.Seconds, error) {
	if b.faults == nil {
		return units.Seconds(d), nil
	}
	crashAt := b.faults[w].crashAt
	if float64(start) >= crashAt {
		return 0, b.crashErr(w)
	}
	if float64(start)+d > crashAt {
		return units.Seconds(crashAt - float64(start)), b.crashErr(w)
	}
	return units.Seconds(d), nil
}

// fireAfter completes a star-model transfer d seconds after its issue,
// or earlier when its worker's crash cuts it.
func (b *Backend) fireAfter(slot int32, d float64) {
	o := &b.ops[slot]
	delay, err := b.cut(int(o.w), o.start, d)
	o.err = err
	b.eng.AfterArg(delay, b.transferFireFn, uint64(slot))
}

// Now implements engine.Backend.
func (b *Backend) Now() float64 { return float64(b.eng.Now()) }

// Workers implements engine.Backend.
func (b *Backend) Workers() int { return len(b.platform.Workers) }

// Run implements engine.Backend: process events until quiescent.
func (b *Backend) Run() { b.eng.Run() }

// AfterFunc implements engine.Timer on the virtual clock, so engine
// stage deadlines are as deterministic as everything else in the
// simulation. A timer is one plain event at now + d, fired through one
// long-lived callback by a slot of the timer table: arming and
// cancelling allocate nothing once the table has grown, and the engine
// holds at most one timer per run. The id packs the slot's generation
// (high half, never 0) and the slot (low half).
func (b *Backend) AfterFunc(d float64, fn func(uint64)) uint64 {
	var slot int32
	if n := len(b.timerFree); n > 0 {
		slot = b.timerFree[n-1]
		b.timerFree = b.timerFree[:n-1]
	} else {
		b.timers = append(b.timers, gridTimer{})
		slot = int32(len(b.timers) - 1)
	}
	t := &b.timers[slot]
	if t.gen++; t.gen == 0 {
		t.gen = 1 // wrapped: 0 would make id 0, "no timer"
	}
	id := uint64(t.gen)<<32 | uint64(slot)
	t.fn = fn
	t.h = b.eng.AfterArg(units.Seconds(d), b.timerFireFn, id)
	return id
}

// CancelTimer implements engine.Timer: the timer's event leaves the
// schedule at once, so a cancelled timer leaves no trace in the event
// stream. A zero, fired, cancelled or pre-Reset id is a no-op.
func (b *Backend) CancelTimer(id uint64) {
	slot := int(uint32(id))
	if slot >= len(b.timers) {
		return
	}
	if t := &b.timers[slot]; t.fn != nil && t.gen == uint32(id>>32) {
		t.h.Cancel()
		b.freeTimer(int32(slot))
	}
}

// timerFire is every timer event's callback. Its timer is armed: a
// cancel or a Reset takes the event off the schedule with it. The slot
// is freed first, so fn may arm the next timer into it.
func (b *Backend) timerFire(id uint64) {
	slot := int32(uint32(id))
	fn := b.timers[slot].fn
	b.freeTimer(slot)
	fn(id)
}

// freeTimer returns a timer slot to the free list.
func (b *Backend) freeTimer(slot int32) {
	b.timers[slot].fn, b.timers[slot].h = nil, sim.Handle{}
	b.timerFree = append(b.timerFree, slot)
}

// TransferOp moves bytes to worker w over the master uplink, reporting
// completion as done(op, start, end, err) through a long-lived callback
// — the closure-free form of Transfer the engine's hot dispatch path
// uses (engine.OpBackend). The engine issues at most one outstanding
// transfer, which is how the model realizes the serialized uplink. A
// transfer to a crashed worker fails — immediately when the worker is
// already down, at the crash instant when it dies mid-transfer.
//
// When the platform carries a Topology the transfer instead becomes a
// fluid flow over the worker's link route (see links.go): concurrent
// transfers share link capacity fairly rather than serializing, so the
// engine should normally lift its one-transfer rule (ParallelUplink) to
// let the contention model do the serializing.
func (b *Backend) TransferOp(w int, bytes float64, op uint64, done func(op uint64, start, end float64, err error)) {
	slot := b.issue(w, op, done)
	if b.links != nil {
		b.links.start(slot, bytes, -1)
		return
	}
	wk := &b.platform.Workers[w]
	b.fireAfter(slot, float64(wk.CommLatency)+bytes/float64(wk.Bandwidth))
}

// transferFire completes a transfer-style op: every TransferOp and
// PeerTransferOp, star or link flow, and the zero-byte ReturnOutputOp
// fast path fire through this one callback.
func (b *Backend) transferFire(arg uint64) {
	slot := int32(arg)
	o := &b.ops[slot]
	done, op, start, err := o.done, o.op, o.start, o.err
	b.freeOp(slot)
	done(op, float64(start), float64(b.eng.Now()), err)
}

// Transfer implements engine.Backend: the closure form of TransferOp.
// The engine never calls it — a Backend is an engine.OpBackend, so
// work chunks and measurements alike go through TransferOp — and it
// stays only because engine.Backend still requires it.
func (b *Backend) Transfer(w int, bytes float64, done func(start, end float64, err error)) {
	b.TransferOp(w, bytes, 0, func(_ uint64, start, end float64, err error) {
		done(start, end, err)
	})
}

// ExecuteOp runs size load units on worker w's CPU (FIFO behind whatever
// the worker is already doing), reporting completion as
// done(op, start, end, err) through a long-lived callback — the
// closure-free form of Execute (engine.OpBackend). size 0 models a no-op
// calibration job that costs only the computation start-up latency.
// Probe work computes a fixed, representative input (the user's probe
// file), so it sees the host's time-varying background load but not the
// application's data-dependent cost variability.
func (b *Backend) ExecuteOp(w int, size float64, probe bool, op uint64, done func(op uint64, start, end float64, err error)) {
	b.cfg.Metrics.EnqueueCompute(b.compute[w].QueueLength())
	slot := b.issue(w, op, done)
	o := &b.ops[slot]
	o.probe = probe
	o.size = size
	b.compute[w].EnqueueArg(uint64(slot), b.execDurFn, b.execDoneFn)
}

// execDur is every compute service's duration callback: the cost model
// evaluated at service start, with crash windows truncating the job.
func (b *Backend) execDur(arg uint64, start units.Seconds) units.Seconds {
	o := &b.ops[int32(arg)]
	w := int(o.w)
	wk := &b.platform.Workers[w]
	base := o.size * float64(b.app.UnitCost) / wk.Speed
	if o.probe {
		base *= b.cfg.ProbeBias
	} else {
		base *= b.noise(w, o.size)
	}
	hold := 0.0
	if b.batch[w] != nil {
		hold = b.batch[w].startDelay(float64(start))
		b.cfg.Metrics.BatchHold(hold)
	}
	stretched := base
	if b.bg[w] != nil && base > 0 {
		stretched = b.bg[w].finish(float64(start)+hold, base)
	}
	lat := float64(wk.CompLatency)
	if b.faults != nil {
		// Stall/slowdown windows stretch the computation after its launch.
		stretched = b.faults[w].stretch(float64(start)+hold+lat, stretched)
	}
	d, err := b.cut(w, start, hold+lat+stretched)
	o.err = err
	return d
}

// execDone is every compute service's completion callback.
func (b *Backend) execDone(arg uint64, start, end units.Seconds) {
	slot := int32(arg)
	o := &b.ops[slot]
	done, op, err := o.done, o.op, o.err
	b.freeOp(slot)
	done(op, float64(start), float64(end), err)
}

// Execute implements engine.Backend: the closure form of ExecuteOp,
// never called by the engine (see Transfer).
func (b *Backend) Execute(w int, size float64, probe bool, done func(start, end float64, err error)) {
	b.ExecuteOp(w, size, probe, 0, func(_ uint64, start, end float64, err error) {
		done(start, end, err)
	})
}

// noise returns the multiplicative compute-time perturbation for a chunk
// of the given size, per the application's uncertainty model.
func (b *Backend) noise(w int, size float64) float64 {
	g := b.app.Gamma
	if g <= 0 || size <= 0 {
		return 1
	}
	cv := g
	if b.app.Uncertainty == model.PerUnit {
		// Independent unit costs: the chunk-level CV shrinks with the
		// square root of the number of units.
		cv = g / math.Sqrt(size)
	}
	return b.compRNG[w].TruncNormal(1, cv, 0.1)
}

// ReturnOutputOp moves output bytes from worker w back to the master
// over the downlink (FIFO, parallel to the uplink), reporting completion
// as done(op, start, end, err) through a long-lived callback — the
// closure-free form of ReturnOutput (engine.OpBackend). Zero bytes
// complete immediately without occupying the downlink.
func (b *Backend) ReturnOutputOp(w int, bytes float64, op uint64, done func(op uint64, start, end float64, err error)) {
	slot := b.issue(w, op, done)
	if bytes <= 0 {
		// Transfer-style fire, never cut: done(now, now, nil).
		b.eng.AfterArg(0, b.transferFireFn, uint64(slot))
		return
	}
	b.ops[slot].size = bytes
	b.downlink.EnqueueArg(uint64(slot), b.returnDurFn, b.returnDoneFn)
}

// returnDur is every downlink service's duration callback.
func (b *Backend) returnDur(arg uint64, start units.Seconds) units.Seconds {
	o := &b.ops[int32(arg)]
	wk := &b.platform.Workers[o.w]
	d, err := b.cut(int(o.w), start, float64(wk.CommLatency)+o.size/float64(wk.Bandwidth))
	o.err = err
	return d
}

// returnDone is every downlink service's completion callback.
func (b *Backend) returnDone(arg uint64, start, end units.Seconds) {
	slot := int32(arg)
	o := &b.ops[slot]
	done, op, err := o.done, o.op, o.err
	b.freeOp(slot)
	b.cfg.Metrics.DownlinkBusy(float64(end - start))
	done(op, float64(start), float64(end), err)
}

// ReturnOutput implements engine.Backend: the closure form of
// ReturnOutputOp, never called by the engine (see Transfer).
func (b *Backend) ReturnOutput(w int, bytes float64, done func(start, end float64, err error)) {
	b.ReturnOutputOp(w, bytes, 0, func(_ uint64, start, end float64, err error) {
		done(start, end, err)
	})
}

// bgProcess is the two-state Markov-modulated CPU thief of non-dedicated
// hosts. Queries must come with non-decreasing start times, which holds
// because each worker's compute queue is FIFO.
type bgProcess struct {
	cfg        *model.BackgroundLoad
	src        *rng.Source
	t          float64 // timeline position up to which state is decided
	on         bool
	nextSwitch float64
}

func newBGProcess(cfg *model.BackgroundLoad, src *rng.Source) *bgProcess {
	p := &bgProcess{cfg: cfg, src: src}
	p.reset()
	return p
}

// reset re-derives the process's initial state from its (re-seeded)
// source, drawing exactly as construction does.
func (p *bgProcess) reset() {
	p.t = 0
	// Start in the stationary distribution so early chunks see the same
	// load climate as late ones.
	pOn := float64(p.cfg.MeanOn) / float64(p.cfg.MeanOn+p.cfg.MeanOff)
	p.on = p.src.Float64() < pOn
	p.nextSwitch = p.src.Exp(p.meanSojourn())
}

func (p *bgProcess) meanSojourn() float64 {
	if p.on {
		return float64(p.cfg.MeanOn)
	}
	return float64(p.cfg.MeanOff)
}

// finish returns the wall time needed to complete `work` seconds of CPU
// demand starting at time start, given the host's time-varying available
// CPU share.
func (p *bgProcess) finish(start, work float64) float64 {
	if start < p.t {
		// FIFO guarantees monotonicity; tolerate exact ties.
		start = p.t
	}
	p.advanceTo(start)
	t := start
	for work > 1e-12 {
		rate := 1.0
		if p.on {
			rate = 1 - p.cfg.Share
		}
		span := p.nextSwitch - t
		if need := work / rate; need <= span {
			t += need
			work = 0
		} else {
			work -= span * rate
			t = p.nextSwitch
			p.toggle()
		}
	}
	p.t = t
	return t - start
}

func (p *bgProcess) advanceTo(t float64) {
	for p.nextSwitch <= t {
		p.toggle()
	}
	p.t = t
}

func (p *bgProcess) toggle() {
	p.on = !p.on
	p.nextSwitch += p.src.Exp(p.meanSojourn())
}
