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
// models specify.
type Config struct {
	// Seed drives all stochastic processes; runs with equal seeds are
	// bit-identical.
	Seed uint64
	// CommJitter is a coefficient of variation applied to transfer
	// durations. The paper's testbed had a stable network; the default 0
	// matches it, and the uncertainty ablation raises it.
	CommJitter float64
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
	// Shares models concurrent occupancy of the workers: entry w is the
	// fraction of worker w's CPU this job actually gets, in (0, 1].
	// Compute times stretch by 1/share — a worker at share 0.5 runs this
	// job's chunks at half its nominal Speed. nil means dedicated
	// workers; the scheduling path is then byte-identical to a backend
	// that predates shares (not a single extra float op).
	Shares []float64
	// UplinkShare models concurrent occupancy of the master's serialized
	// uplink: the fraction of its bandwidth this job gets, in (0, 1].
	// Transfer (and output-return) bandwidth scales by it; the per-link
	// access latency does not. 0 means dedicated (1.0). Under a topology
	// it scales every link capacity instead (see linkNet.reset).
	UplinkShare float64
	// Events, when non-nil, receives backend-level link busy/idle events
	// (obs.LinkBusy / obs.LinkIdle) from the link-graph network model,
	// on its own dense sequence. Only topology-carrying platforms ever
	// emit; legacy flat platforms never touch this sink, so their
	// engine-level streams stay byte-identical.
	Events obs.Sink
	// LinkMetrics, when non-nil, records per-link bytes carried and busy
	// fractions. Purely observational, like Metrics.
	LinkMetrics *obs.LinkMetrics
}

// opKind distinguishes the three operation flavours tracked in the
// backend's op table.
type opKind uint8

const (
	opTransfer opKind = iota
	opExecute
	opReturn
)

// gridOp is one in-flight backend operation: the state its duration and
// completion callbacks need, held in a reusable table slot so issuing an
// operation allocates nothing. Slots are freed exactly when the
// operation completes (every op completes — the simulation drains), so
// no generation fencing is needed.
type gridOp struct {
	kind  opKind
	w     int32
	probe bool
	// size is load units for opExecute, bytes for opReturn.
	size float64
	// op is the caller's opaque token, handed back through done.
	op   uint64
	done func(op uint64, start, end float64, err error)
	// err is set by the duration callback (crash truncation) and
	// consumed by the completion callback.
	err error
	// start is the transfer's start time (opTransfer only; queue-served
	// kinds get their window from the queue).
	start units.Seconds
}

// Backend simulates a Platform executing an Application.
type Backend struct {
	eng      *sim.Engine
	timers   *sim.Timers
	platform *model.Platform
	app      *model.Application
	cfg      Config

	compute  []*sim.FCFSQueue // one per worker CPU
	downlink *sim.FCFSQueue   // output return path, parallel to the uplink

	compRNG []*rng.Source // per-worker compute noise
	commRNG *rng.Source
	bg      []*bgProcess
	batch   []*batchState
	faults  []faultState // nil when no faults are injected
	links   *linkNet     // nil unless the platform carries a Topology

	// Op table (see gridOp) and the long-lived callbacks all operations
	// dispatch through, built once in New.
	ops            []gridOp
	opFree         []int32
	transferFireFn func(uint64)
	execDurFn      func(uint64, units.Seconds) units.Seconds
	execDoneFn     func(uint64, units.Seconds, units.Seconds)
	returnDurFn    func(uint64, units.Seconds) units.Seconds
	returnDoneFn   func(uint64, units.Seconds, units.Seconds)
}

// New validates the models and returns a backend positioned at time zero.
func New(p *model.Platform, a *model.Application, cfg Config) (*Backend, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	eng := sim.New()
	b := &Backend{
		eng:      eng,
		timers:   sim.NewTimers(eng, 0),
		platform: p,
		downlink: sim.NewFCFSQueue(eng),
		commRNG:  rng.New(0),
	}
	b.transferFireFn = b.transferFire
	b.execDurFn = b.execDur
	b.execDoneFn = b.execDone
	b.returnDurFn = b.returnDur
	b.returnDoneFn = b.returnDone
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
// arena, timer wheel, FCFS queues, rng streams (reseeded in place), and
// the op table. A reset backend produces output bit-identical to a
// freshly constructed one with the same arguments — stream seeds are
// derived from the same labels, the clock and event sequence restart
// from zero, and every stochastic process re-initializes exactly as in
// New. Call it only between runs (never while the engine is mid-drain).
func (b *Backend) Reset(a *model.Application, cfg Config) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if cfg.CommJitter < 0 {
		return fmt.Errorf("grid: negative comm jitter %g", cfg.CommJitter)
	}
	if cfg.ProbeBias == 0 {
		cfg.ProbeBias = 1
	}
	if cfg.ProbeBias < 0 {
		return fmt.Errorf("grid: negative probe bias %g", cfg.ProbeBias)
	}
	if cfg.Shares != nil {
		if len(cfg.Shares) != len(b.platform.Workers) {
			return fmt.Errorf("grid: %d shares for %d workers", len(cfg.Shares), len(b.platform.Workers))
		}
		for w, s := range cfg.Shares {
			if s <= 0 || s > 1 {
				return fmt.Errorf("grid: share %g for worker %d outside (0, 1]", s, w)
			}
		}
	}
	if cfg.UplinkShare < 0 || cfg.UplinkShare > 1 {
		return fmt.Errorf("grid: uplink share %g outside (0, 1]", cfg.UplinkShare)
	}
	b.app = a
	b.cfg = cfg
	b.eng.Reset()
	b.timers.Reset()
	b.downlink.Reset()
	b.commRNG.Seed(rng.StreamSeed(cfg.Seed, "comm"))
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
	b.faults = compileFaults(cfg.Faults, len(b.platform.Workers))
	b.ops = b.ops[:0]
	b.opFree = b.opFree[:0]
	if b.links != nil {
		b.links.reset()
	}
	return nil
}

// allocOp reserves an op-table slot.
func (b *Backend) allocOp() int32 {
	if n := len(b.opFree); n > 0 {
		slot := b.opFree[n-1]
		b.opFree = b.opFree[:n-1]
		return slot
	}
	b.ops = append(b.ops, gridOp{})
	return int32(len(b.ops) - 1)
}

// freeOp returns a slot to the table, dropping callback references.
func (b *Backend) freeOp(slot int32) {
	b.ops[slot] = gridOp{}
	b.opFree = append(b.opFree, slot)
}

// Now implements engine.Backend.
func (b *Backend) Now() float64 { return float64(b.eng.Now()) }

// Workers implements engine.Backend.
func (b *Backend) Workers() int { return len(b.platform.Workers) }

// Run implements engine.Backend: process events until quiescent.
func (b *Backend) Run() { b.eng.Run() }

// AfterFunc implements engine.Timer on the virtual clock, so engine
// stage deadlines are as deterministic as everything else in the
// simulation. Timers go through the hierarchical timer wheel
// (sim.Timers): a deadline armed and then cancelled on normal stage
// completion — the overwhelmingly common case — costs O(1) and
// allocates nothing, instead of churning the event heap.
func (b *Backend) AfterFunc(d float64, fn func(uint64)) uint64 {
	return b.timers.After(units.Seconds(d), fn)
}

// CancelTimer implements engine.Timer. Cancelled timers leave no trace
// in the event stream.
func (b *Backend) CancelTimer(id uint64) {
	b.timers.Cancel(id)
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
	if b.links != nil {
		slot := b.allocOp()
		o := &b.ops[slot]
		o.kind = opTransfer
		o.w = int32(w)
		o.op = op
		o.done = done
		o.start = b.eng.Now()
		b.links.start(b.platform.Topology.Route(w), w, bytes, slot)
		return
	}
	wk := b.platform.Workers[w]
	bw := float64(wk.Bandwidth)
	if b.cfg.UplinkShare > 0 {
		bw *= b.cfg.UplinkShare
	}
	d := float64(wk.CommLatency) + bytes/bw
	if b.cfg.CommJitter > 0 {
		d *= b.commRNG.TruncNormal(1, b.cfg.CommJitter, 0.1)
	}
	start := b.eng.Now()
	slot := b.allocOp()
	o := &b.ops[slot]
	o.kind = opTransfer
	o.w = int32(w)
	o.op = op
	o.done = done
	o.start = start
	delay := units.Seconds(d)
	if b.faults != nil {
		crashAt := b.faults[w].crashAt
		if float64(start) >= crashAt {
			o.err = crashErr(w, crashAt)
			delay = 0
		} else if float64(start)+d > crashAt {
			o.err = crashErr(w, crashAt)
			delay = units.Seconds(crashAt - float64(start))
		}
	}
	b.eng.AfterArg(delay, b.transferFireFn, uint64(slot))
}

// transferFire completes a transfer-style op: every TransferOp (and the
// zero-byte ReturnOutputOp fast path) fires through this one callback.
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
	slot := b.allocOp()
	o := &b.ops[slot]
	o.kind = opExecute
	o.w = int32(w)
	o.probe = probe
	o.size = size
	o.op = op
	o.done = done
	b.compute[w].EnqueueArg(uint64(slot), b.execDurFn, b.execDoneFn)
}

// execDur is every compute service's duration callback: the cost model
// evaluated at service start, with crash windows truncating the job.
func (b *Backend) execDur(arg uint64, start units.Seconds) units.Seconds {
	o := &b.ops[int32(arg)]
	w := int(o.w)
	wk := b.platform.Workers[w]
	base := o.size * float64(b.app.UnitCost) / wk.Speed
	if b.cfg.Shares != nil {
		base /= b.cfg.Shares[w]
	}
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
	dur := hold + float64(wk.CompLatency) + stretched
	if b.faults != nil {
		fs := &b.faults[w]
		if fs.crashAt <= float64(start) {
			o.err = crashErr(w, fs.crashAt)
			return 0
		}
		// Stall/slowdown windows stretch the computation; a crash
		// mid-job truncates it into a failure at the crash instant.
		dur = hold + float64(wk.CompLatency) + fs.stretch(float64(start)+hold+float64(wk.CompLatency), stretched)
		if float64(start)+dur > fs.crashAt {
			o.err = crashErr(w, fs.crashAt)
			return units.Seconds(fs.crashAt - float64(start))
		}
	}
	return units.Seconds(dur)
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
	slot := b.allocOp()
	o := &b.ops[slot]
	o.w = int32(w)
	o.op = op
	o.done = done
	if bytes <= 0 {
		o.kind = opTransfer // transfer-style fire: done(now, now, nil)
		o.start = b.eng.Now()
		b.eng.AfterArg(0, b.transferFireFn, uint64(slot))
		return
	}
	o.kind = opReturn
	o.size = bytes
	b.downlink.EnqueueArg(uint64(slot), b.returnDurFn, b.returnDoneFn)
}

// returnDur is every downlink service's duration callback.
func (b *Backend) returnDur(arg uint64, start units.Seconds) units.Seconds {
	o := &b.ops[int32(arg)]
	w := int(o.w)
	wk := b.platform.Workers[w]
	bw := float64(wk.Bandwidth)
	if b.cfg.UplinkShare > 0 {
		bw *= b.cfg.UplinkShare
	}
	d := float64(wk.CommLatency) + o.size/bw
	if b.cfg.CommJitter > 0 {
		d *= b.commRNG.TruncNormal(1, b.cfg.CommJitter, 0.1)
	}
	if b.faults != nil {
		fs := &b.faults[w]
		if fs.crashAt <= float64(start) {
			o.err = crashErr(w, fs.crashAt)
			return 0
		}
		if float64(start)+d > fs.crashAt {
			o.err = crashErr(w, fs.crashAt)
			return units.Seconds(fs.crashAt - float64(start))
		}
	}
	return units.Seconds(d)
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
