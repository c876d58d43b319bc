package dls

import (
	"math"

	"apstdv/internal/stats"
)

// maxBuffered is how many outstanding chunks a worker may hold before a
// demand-driven policy stops serving it: one computing, one buffered —
// enough to overlap communication with computation without giving up
// the late binding that load-balances.
const maxBuffered = 2

// demandPool is the state the demand-driven self-scheduling policies
// (weighted factoring, GSS, plain factoring, TSS) share: per-worker
// speed estimates, the chunk-size floor, and the choice of whom to serve
// next. Its Dispatched and Observe are those of a policy that neither
// tracks dispatches nor adapts; the policies that do override them.
type demandPool struct {
	minChunk float64
	ests     []workerSpeed
}

type workerSpeed struct {
	probeUnitComp float64 // the probing round's estimate, kept fixed
	unitComp      float64 // current estimate, refined when adaptive
	compLatency   float64
	observed      stats.RunningStats // observed per-unit compute times
	lost          bool               // removed from service by the engine
}

// Plan implements Algorithm.
func (d *demandPool) Plan(p Plan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	d.minChunk = minFactoringChunk(p)
	d.ests = make([]workerSpeed, len(p.Workers))
	for i, e := range p.Workers {
		d.ests[i] = workerSpeed{probeUnitComp: e.UnitComp, unitComp: e.UnitComp, compLatency: e.CompLatency}
	}
	return nil
}

// pick returns the eligible worker that will exhaust its buffered work
// soonest — an approximation of "the next worker to request work" under
// the serialized uplink. Workers already holding maxBuffered outstanding
// chunks are ineligible; there is deliberately no one-chunk-per-round
// constraint, so an early-finishing worker grabs extra chunks and the
// pool self-balances (the self-scheduling behaviour factoring inherits
// from GSS).
func (d *demandPool) pick(st State) (int, bool) {
	best, bestDrain := -1, math.Inf(1)
	for w := range d.ests {
		if d.ests[w].lost {
			continue
		}
		if len(st.PendingChunks) > w && st.PendingChunks[w] >= maxBuffered {
			continue
		}
		drain := st.Pending[w] * d.ests[w].unitComp
		if drain < bestDrain {
			best, bestDrain = w, drain
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// weight returns worker w's share of a batch: its speed relative to the
// total speed of the surviving workers.
func (d *demandPool) weight(w int) float64 {
	if d.ests[w].lost {
		return 0
	}
	total := 0.0
	for i := range d.ests {
		if d.ests[i].lost {
			continue
		}
		total += 1 / d.ests[i].unitComp
	}
	if total == 0 {
		return 0
	}
	return (1 / d.ests[w].unitComp) / total
}

// Dispatched implements Algorithm.
func (d *demandPool) Dispatched(worker int, requested, actual float64) {}

// Observe implements Algorithm.
func (d *demandPool) Observe(Observation) {}

// WorkerLost implements WorkerLossAware: the worker drops out of the
// weight denominator and the eligibility scan, so subsequent chunks go
// to the survivors only. The returned load is already back in
// State.Remaining and folds into the next chunks naturally.
func (d *demandPool) WorkerLost(worker int, returnedLoad float64) {
	if worker >= 0 && worker < len(d.ests) {
		d.ests[worker].lost = true
	}
}

// blendSpeed is the refined per-unit compute estimate: the probe's
// estimate counts as one pseudo-observation next to the observed ones,
// so a single noisy chunk cannot swing it wildly.
func blendSpeed(probe float64, observed *stats.RunningStats) float64 {
	n := float64(observed.N())
	return (probe + n*observed.Mean()) / (1 + n)
}

// minFactoringChunk returns the "minimal chunk size" factoring halves
// down to. Besides the division granularity, the floor must respect the
// serialized master uplink: with N workers each needing a transfer of
// nLat + c·s per chunk of compute time p·s, chunks below
//
//	s* = N·nLat / (p − N·c)
//
// saturate the link and starve the workers — each end-of-run round would
// cost more in serialized start-ups than it computes. This is why the
// paper sees factoring lose ~10% on high-latency DAS-2 (coarse floor,
// coarse final balancing) while matching the best algorithms on
// low-latency Meteor (fine floor, fine balancing). The floor is capped
// at 1/(8N) of the load so several halving rounds always remain.
func minFactoringChunk(p Plan) float64 {
	n := float64(len(p.Workers))
	var nl, c, pc float64
	for _, e := range p.Workers {
		nl += e.CommLatency
		c += e.UnitComm
		pc += e.UnitComp
	}
	nl /= n
	c /= n
	pc /= n

	capFloor := p.TotalLoad / (8 * n)
	floor := capFloor
	if denom := pc - n*c; denom > 0 {
		if s := n * nl / denom; s < capFloor {
			floor = s
		}
	}
	if floor < p.MinChunk {
		floor = p.MinChunk
	}
	if floor <= 0 {
		floor = p.TotalLoad / n * 1e-3
	}
	return floor
}

// factoringBatch is factoring's schedule over a demandPool: the load is
// dispatched in batches of half the load remaining when the batch opens,
// so chunk sizes halve between batches down to the pool's floor, where
// the tail drains in minimum-size chunks. Weighted factoring splits a
// batch in proportion to speed, plain factoring into N equal chunks.
type factoringBatch struct {
	demandPool
	// equal splits every batch into N equal chunks (plain factoring).
	equal bool
	// total is the current batch (half the load remaining when it was
	// opened); left is how much of it is still to dispatch.
	total, left float64
}

// Plan implements Algorithm.
func (b *factoringBatch) Plan(p Plan) error {
	b.total, b.left = 0, 0
	return b.demandPool.Plan(p)
}

// Next implements Algorithm.
func (b *factoringBatch) Next(st State) (Decision, bool) {
	if st.Remaining <= 0 {
		return Decision{}, false
	}
	if b.left <= b.minChunk/2 {
		b.total = st.Remaining / 2
		if st.Remaining <= float64(len(b.ests))*b.minChunk || b.total < b.minChunk {
			// Terminal regime: stop halving, drain the tail in
			// minimum-size chunks.
			b.total = st.Remaining
		}
		b.left = b.total
	}
	w, ok := b.pick(st)
	if !ok {
		return Decision{}, false
	}
	var size float64
	if b.equal {
		size = b.total / float64(len(b.ests))
	} else {
		size = b.weight(w) * b.total
	}
	if size > b.left {
		size = b.left
	}
	if size < b.minChunk {
		size = b.minChunk
	}
	if size > st.Remaining {
		size = st.Remaining
	}
	return Decision{Worker: w, Size: size}, true
}

// Dispatched implements Algorithm.
func (b *factoringBatch) Dispatched(worker int, requested, actual float64) {
	b.left -= actual
	if b.left < 0 {
		b.left = 0
	}
}

// WeightedFactoring implements the Weighted Factoring algorithm [23]
// (Hummel, Schmidt, Uma, Wein 1996) as deployed in APST-DV (§3.6):
//
//   - The load is dispatched in rounds; each round's batch is half the
//     remaining load, so chunk sizes decrease by 2 between rounds, down
//     to a minimal chunk size. Ending with small chunks is what makes
//     factoring robust to uncertainty: a mispredicted small chunk causes
//     a small imbalance.
//   - "Weighted": the chunk a worker receives is proportional to the
//     worker's estimated speed.
//   - Chunks are sent out greedily: the master serves the worker that
//     will run out of buffered work soonest, and only workers holding
//     fewer than two outstanding chunks are eligible.
//   - Adaptive: observed chunk execution times continuously refine the
//     per-worker speed estimates (§3.6: "It also observes chunk execution
//     times throughout application execution to refine its estimates of
//     worker speeds").
//
// Factoring was not designed to maximize communication/computation
// overlap: the first batch is half the load and its serialized transfers
// stagger the workers' start times, which is exactly the ~10% loss the
// paper measures against UMR on DAS-2 at γ=0.
type WeightedFactoring struct {
	// Adaptive controls online speed refinement (on in the paper; the
	// ablation benchmark turns it off).
	Adaptive bool

	factoringBatch
}

// NewWeightedFactoring returns the paper's adaptive weighted factoring
// policy.
func NewWeightedFactoring() *WeightedFactoring {
	return &WeightedFactoring{Adaptive: true}
}

// Name implements Algorithm.
func (wf *WeightedFactoring) Name() string {
	if !wf.Adaptive {
		return "wf-static"
	}
	return "wf"
}

// UsesProbing implements Algorithm.
func (wf *WeightedFactoring) UsesProbing() bool { return true }

// Observe implements Algorithm: refine the worker's per-unit compute time
// estimate from the observed chunk execution time.
func (wf *WeightedFactoring) Observe(o Observation) {
	if !wf.Adaptive || o.Probe || o.Size <= 0 || o.Worker >= len(wf.ests) {
		// Probe chunks already produced the baseline estimate; feeding
		// them back in would double-count the probe sample.
		return
	}
	ws := &wf.ests[o.Worker]
	perUnit := (o.ComputeTime() - ws.compLatency) / o.Size
	if perUnit <= 0 {
		return
	}
	ws.observed.Add(perUnit)
	ws.unitComp = blendSpeed(ws.probeUnitComp, &ws.observed)
}
