package dls

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"apstdv/internal/model"
)

// UMR implements the Uniform Multi-Round algorithm [39] (Yang & Casanova,
// IPDPS 2003): multiple rounds with geometrically increasing chunk sizes,
// affine communication and computation costs, heterogeneous workers, and a
// near-optimal number of rounds.
//
// The schedule is "uniform" in the sense that within one round every
// worker computes for the same duration T_j:
//
//	chunk_{j,i} = (T_j − compLat_i) / unitComp_i
//
// and successive round durations follow the pipelining recurrence that
// keeps the serialized master uplink busy exactly while the workers
// compute the previous round:
//
//	Σ_i (commLat_i + unitComm_i·chunk_{j+1,i}) = T_j
//	⇒  T_{j+1} = (T_j − L + B) / A
//	    A = Σ unitComm_i/unitComp_i      (aggregate comm/comp ratio)
//	    B = Σ unitComm_i·compLat_i/unitComp_i
//	    L = Σ commLat_i
//
// For A < 1 the durations grow geometrically with ratio 1/A, which is
// what overlaps communication and computation; start-up costs bound the
// useful number of rounds from above. Rather than using the continuous
// approximation of [39] for the optimal M, Plan evaluates the exact
// predicted makespan of every candidate M (the plan is cheap to simulate
// against the estimated cost model) and keeps the best — "computes a
// near-optimal number of rounds".
type UMR struct {
	sequencePlayer

	// Rounds is the number of rounds the plan chose (set by Plan).
	Rounds int
	// PredictedMakespan is the model-predicted makespan of the chosen
	// plan (set by Plan).
	PredictedMakespan float64
}

// NewUMR returns a UMR policy.
func NewUMR() *UMR { return &UMR{} }

// Name implements Algorithm.
func (u *UMR) Name() string { return "umr" }

// UsesProbing implements Algorithm.
func (u *UMR) UsesProbing() bool { return true }

// Plan implements Algorithm.
func (u *UMR) Plan(p Plan) error {
	seq, roundLen, pred, err := PlanUMRRounds(p, p.TotalLoad)
	if err != nil {
		return err
	}
	u.Rounds = len(seq) / roundLen
	u.PredictedMakespan = pred
	u.reset(seq)
	return nil
}

// maxUMRRounds bounds the search for the number of rounds. Round start-up
// costs grow linearly in M, so the predicted-makespan minimum is far below
// this for any sane platform. Feasibility is not: on the paper's platforms
// 74 of the 128 round counts are feasible for the average plan, so the
// search cannot lean on infeasibility to cut itself short.
const maxUMRRounds = 128

// PlanUMRRounds computes the UMR schedule for the given amount of load
// under the plan's cost estimates. It returns the dispatch decisions
// round after round in one freshly allocated slice, every round roundLen
// decisions long (workers in fastest-first order within each round), and
// the predicted makespan of the schedule. RUMR and Fixed-RUMR reuse it
// for their first phase, planning only a fraction of the total load.
//
// The round count is found by trying every M = 1…maxUMRRounds and keeping
// the smallest predicted makespan (the first such M on a tie). There is
// deliberately no rule that stops once the prediction has passed a
// minimum: it is not unimodal in M (TestUMRPredictionIsNotUnimodal).
func PlanUMRRounds(p Plan, load float64) (seq []Decision, roundLen int, pred float64, err error) {
	if err := p.Validate(); err != nil {
		return nil, 0, 0, err
	}
	if load <= 0 || load > p.TotalLoad*(1+1e-9) {
		return nil, 0, 0, fmt.Errorf("umr: load %g outside (0, total %g]", load, p.TotalLoad)
	}

	sc := umrScratchPool.Get().(*umrScratch)
	seq, roundLen, pred, err = sc.plan(p, load)
	umrScratchPool.Put(sc)
	return seq, roundLen, pred, err
}

// plan is PlanUMRRounds on validated input.
func (sc *umrScratch) plan(p Plan, load float64) ([]Decision, int, float64, error) {
	// Probes are noise-free, so the runs of a sweep cell plan the very
	// same input one after another; a scratch that still holds this
	// input's tables also holds the answer of the search over them.
	if !sc.holds(p, load) {
		sc.prepare(p, load)
		sc.rounds = sc.search()
	}
	m, w := sc.rounds, len(sc.workers)
	if m == 0 {
		return oneWeightedRound(p, load)
	}
	// Materialize the winner through the same arithmetic the search ran,
	// so decisions and prediction are bit-identical to the search pass,
	// into the one allocation of a plan: nothing is shared with sc.
	seq := make([]Decision, m*w)
	pred, _ := sc.candidate(m, seq)
	return seq, w, pred, nil
}

// oneWeightedRound is the plan for an input no round count fits: some
// worker's start-up latency outlasts every round the others would run,
// which is what a wall-clock probe on a busy host measures. UMR's own
// resource selection applies. The load goes out in one equal-finish
// round, fastest-first, without the slowest workers whose share would
// not be positive; a single worker always takes the whole of a finite
// load, so only input that is not finite (which Plan.Validate does not
// catch) is refused. It returns the round, its length and its predicted
// makespan on the estimated cost model.
func oneWeightedRound(p Plan, load float64) ([]Decision, int, float64, error) {
	p.TotalLoad = load
	order := model.BySpeed(p.Workers)
	sizes, ok := solveOneRound(p, order)
	for !ok && len(order) > 1 {
		order = order[:len(order)-1]
		sizes, ok = solveOneRound(p, order)
	}
	if !ok {
		return nil, 0, 0, fmt.Errorf("umr: no finite schedule for load %g on %d workers", load, len(p.Workers))
	}
	// Absorb floating-point drift in proportion, as candidate does for a
	// last round.
	total := 0.0
	for _, size := range sizes {
		total += size
	}
	if math.Abs(load-total) > load*1e-12 {
		for i := range sizes {
			sizes[i] *= load / total
		}
	}
	round := make([]Decision, len(order))
	linkFree, makespan := 0.0, 0.0
	for i, id := range order {
		round[i] = Decision{Worker: id, Size: sizes[i]}
		e := &p.Workers[id]
		linkFree += e.CommLatency + sizes[i]*e.UnitComm
		makespan = math.Max(makespan, linkFree+e.CompLatency+sizes[i]*e.UnitComp)
	}
	return round, len(round), makespan, nil
}

// umrWorker is one worker's estimate together with the search's state for
// it. The scratch keeps them fastest-first, the order chunks are sent in,
// so the inner loop walks one array front to back.
type umrWorker struct {
	id                                   int
	commLat, unitComm, compLat, unitComp float64
	// last is the worker's chunk in the candidate's final round, kept
	// aside because drift is absorbed there before the round is replayed.
	last float64
	// compFree is when the worker's CPU frees up in the replay.
	compFree float64
}

// receive replays one chunk on the estimated cost model (serialized
// master uplink, per-worker FIFO compute, both affine) and returns when
// its transfer and its computation end.
func (w *umrWorker) receive(linkFree, size float64) (sendEnd, end float64) {
	sendEnd = linkFree + w.commLat + size*w.unitComm
	start := sendEnd
	if w.compFree > start {
		start = w.compFree
	}
	end = start + w.compLat + size*w.unitComp
	w.compFree = end
	return sendEnd, end
}

// The three shapes the round-duration recurrence T_{j+1} = (T_j − L + B)/A
// takes, by the aggregate comm/comp ratio A.
const (
	umrSingleRound = iota // A ≤ 0: free communication, only M = 1 means anything
	umrArithmetic         // A = 1: T_j = T0 + j·step
	umrGeometric          // otherwise: T_j = ratio^j·(T0 − fixed) + fixed
)

// umrScratch is the working state of one round search. The pool carries
// it across plans, so the steady-state search allocates nothing, and a
// plan over the input the scratch was last prepared for skips the search
// (the input is compared by bit pattern, so −0/+0 and NaNs cannot alias).
type umrScratch struct {
	// The input the rest of the scratch was derived from.
	load, minChunk float64
	ests           []model.Estimate
	// rounds is the search's answer for that input: the chosen M, or 0
	// when no round count is feasible (plan then falls back to
	// oneWeightedRound).
	rounds int

	workers    []umrWorker // fastest-first
	sumP, sumC float64     // Σ 1/unitComp, Σ compLat/unitComp
	shape      int
	step       float64 // umrArithmetic: B − L
	fixed      float64 // umrGeometric: the recurrence's fixed point F
	// umrGeometric: pow[j] = ratio^j and geom[m] = Σ_{j<m} ratio^j,
	// multiplied and summed in that order once per plan (every candidate
	// used to rebuild the same floats from j = 0).
	pow, geom [maxUMRRounds + 1]float64
	// limit is one past the largest M worth trying.
	limit     int
	durations [maxUMRRounds]float64
}

var umrScratchPool = sync.Pool{New: func() any { return new(umrScratch) }}

// holds reports whether the scratch was prepared for exactly this input.
func (sc *umrScratch) holds(p Plan, load float64) bool {
	if len(sc.ests) != len(p.Workers) || !sameBits(sc.load, load) || !sameBits(sc.minChunk, p.MinChunk) {
		return false
	}
	for i, e := range p.Workers {
		k := &sc.ests[i]
		if k.Worker != e.Worker ||
			!sameBits(k.UnitComm, e.UnitComm) || !sameBits(k.CommLatency, e.CommLatency) ||
			!sameBits(k.UnitComp, e.UnitComp) || !sameBits(k.CompLatency, e.CompLatency) {
			return false
		}
	}
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// prepare derives everything that does not depend on M: the aggregate
// cost-model constants, the fastest-first worker array (sorted stably in
// place, so ties keep index order, as model.BySpeed has them) and the
// geometric tables.
func (sc *umrScratch) prepare(p Plan, load float64) {
	sc.load, sc.minChunk = load, p.MinChunk
	sc.ests = append(sc.ests[:0], p.Workers...)

	var sumA, sumB, sumL, sumP, sumC float64
	for _, e := range p.Workers {
		sumA += e.UnitComm / e.UnitComp
		sumB += e.UnitComm * e.CompLatency / e.UnitComp
		sumL += e.CommLatency
		sumP += 1 / e.UnitComp
		sumC += e.CompLatency / e.UnitComp
	}
	sc.sumP, sc.sumC = sumP, sumC
	sc.workers = sc.workers[:0]
	for i, e := range p.Workers {
		sc.workers = append(sc.workers, umrWorker{
			id: i, commLat: e.CommLatency, unitComm: e.UnitComm, compLat: e.CompLatency, unitComp: e.UnitComp,
		})
	}
	slices.SortStableFunc(sc.workers, func(a, b umrWorker) int { return cmp.Compare(a.unitComp, b.unitComp) })

	sc.limit = maxUMRRounds + 1
	switch {
	case sumA <= 0:
		// Free communication: the recurrence degenerates; a pipelined
		// multi-round schedule has no structure to exploit, so only the
		// single-round candidate is meaningful.
		sc.shape, sc.limit = umrSingleRound, 2
	case math.Abs(sumA-1) < 1e-12:
		// T_{j+1} = T_j − L + B: arithmetic progression with d = B − L.
		sc.shape, sc.step = umrArithmetic, sumB-sumL
	default:
		sc.shape, sc.fixed = umrGeometric, (sumL-sumB)/(1-sumA)
		// g = Σ_{j<M} r^j, summed iteratively so extreme ratios stay
		// finite for small M instead of producing Inf/Inf. Both sequences
		// are monotone, so the first M at which either overflows is the
		// end of the search: every larger M overflows too.
		r := 1 / sumA
		g, pow := 0.0, 1.0
		sc.pow[0] = pow
		for m := 1; m <= maxUMRRounds; m++ {
			g += pow
			pow *= r
			if math.IsInf(g, 0) || math.IsInf(pow, 0) {
				sc.limit = m
				break
			}
			sc.geom[m], sc.pow[m] = g, pow
		}
	}
}

// search tries every round count and returns the one with the smallest
// predicted makespan (the first on a tie), or 0 when none is feasible.
// It stops at the first M whose lower bound reaches the best prediction
// so far: the bound never decreases in M, so no later M can win.
func (sc *umrScratch) search() int {
	bestM, bestPred := 0, math.Inf(1)
	for m := 1; m < sc.limit; m++ {
		if sc.lowerBound(m) >= bestPred {
			break
		}
		if pred, ok := sc.candidate(m, nil); ok && pred < bestPred {
			bestM, bestPred = m, pred
		}
	}
	return bestM
}

// lowerBound is a lower bound on the predicted makespan of every
// feasible M-round candidate, less a relative slack of umrBoundSlack for
// rounding. A feasible replay dispatches the load (to 1e-12 of it) and
// runs each worker's M chunks back to back from time 0, so worker i is
// busy for M·compLat_i + S_i·unitComp_i ≤ makespan, where S_i is its
// share; summing S_i ≤ (makespan − M·compLat_i)/unitComp_i over the
// workers gives makespan ≥ (load + M·sumC)/sumP. Validated estimates
// have sumC ≥ 0 and sumP > 0, so the bound never decreases in M.
func (sc *umrScratch) lowerBound(m int) float64 {
	return (sc.load + float64(m)*sc.sumC) / sc.sumP * (1 - umrBoundSlack)
}

// roundDurations fills sc.durations[:m] with the M-round schedule's round
// durations and returns them with their sum. The total-load constraint
// sumP·ΣT_j − M·sumC = load fixes T0.
func (sc *umrScratch) roundDurations(m int) (durations []float64, total float64) {
	durations = sc.durations[:m]
	load, sumP, sumC := sc.load, sc.sumP, sc.sumC
	switch sc.shape {
	case umrSingleRound:
		durations[0] = (load + sumC) / sumP
	case umrArithmetic:
		d := sc.step
		// sumP·Σ(T0 + j·d) − M·sumC = load
		t0 := (load + float64(m)*sumC - sumP*d*float64(m*(m-1))/2) / (sumP * float64(m))
		for j := range durations {
			durations[j] = t0 + float64(j)*d
		}
	default:
		f := sc.fixed
		// sumP·[(T0−F)·g + M·F] − M·sumC = load
		t0 := f + (load+float64(m)*sumC-sumP*float64(m)*f)/(sumP*sc.geom[m])
		for j := range durations {
			durations[j] = sc.pow[j]*(t0-f) + f
		}
	}
	for _, tj := range durations {
		total += tj
	}
	return durations, total
}

// umrBoundSlack is the relative slack of candidate's lower bound on the
// dispatched load. The quantities it covers are accurate to about
// M·W·2⁻⁵³ ≤ 2.3e-13, three orders of magnitude less.
const umrBoundSlack = 1e-9

// candidate evaluates the M-round schedule: it reports ok=false when M is
// infeasible (some round would need negative chunks, chunks fall below the
// division granularity, or the last round cannot absorb the drift) and
// otherwise returns the schedule's predicted makespan. With a non-nil out
// (M·W entries) it also writes the schedule there, round j in entries
// [j·W, (j+1)·W), workers fastest-first. The search passes nil: it needs
// one number per candidate, and only the winner's decisions are ever read.
func (sc *umrScratch) candidate(m int, out []Decision) (float64, bool) {
	durations, sumT := sc.roundDurations(m)
	load, ws := sc.load, sc.workers

	// Feasibility, from the two end rounds alone. A round passes when its
	// duration t is positive and finite and every chunk (t − compLat)/unitComp
	// is neither negative nor below the granularity floor. Subtracting and
	// dividing by positive constants round monotonically, so a chunk's
	// size is non-decreasing in t (or NaN for every finite t, which passes
	// every time): a round that passes at t passes at any larger finite t.
	// The durations are monotone in j in floating point: ratio^j is
	// (each step multiplies by the same positive constant), hence so are
	// pow·(T0−F) and pow·(T0−F)+F; likewise j·step and T0+j·step. Every
	// middle duration therefore lies between the end two, is positive and
	// finite when they are, and passes when the smaller of them does. A
	// non-finite T0−F, F, T0 or step makes round 0 itself non-finite.
	first, last := durations[0], durations[m-1]
	if !(first > 0) || math.IsInf(first, 0) || !(last > 0) || math.IsInf(last, 0) {
		return 0, false
	}
	// Chunks below the division granularity could not be materialized;
	// a single-round plan is always allowed as a fallback.
	floor := 0.0
	if m > 1 && sc.minChunk > 0 {
		floor = sc.minChunk
	}
	lastTotal := 0.0
	for k := range ws {
		w := &ws[k]
		if (first-w.compLat)/w.unitComp < floor {
			return 0, false
		}
		w.last = (last - w.compLat) / w.unitComp
		if w.last < floor {
			return 0, false
		}
		lastTotal += w.last
	}

	// Past the round count where fixed-size rounds already cover the load
	// the schedule is garbage: T0 − F has collapsed to 0, every round is
	// the fixed point, and M of them dispatch far more than the load, more
	// than the last round can give back. That verdict does not need the
	// M·W-term sum. The sum is of non-negative sizes, so in floating point
	// it is at least its exact value sumP·ΣT_j − M·sumC less rounding;
	// all of that rounding (in the sizes, their sum, and the two products)
	// is relative to the products, and umrBoundSlack of them covers it
	// provided the slack itself is a normal number, so that underflow in
	// a quotient is covered too. A NaN anywhere makes the comparisons
	// false. When the bound is not decisive the exact sum below decides;
	// the bound only ever rejects what the exact check rejects.
	whole, latency := sc.sumP*sumT, float64(m)*sc.sumC
	if slack := umrBoundSlack * (whole + latency); slack >= 0x1p-1022 {
		most := load - ((whole - latency) - slack) // no less than the exact drift
		if most < -load*1e-12 && lastTotal+most < 0 {
			return 0, false
		}
	}

	for k := range ws {
		ws[k].compFree = 0
	}
	linkFree, makespan, dispatched, n := 0.0, 0.0, 0.0, 0
	for _, tj := range durations[:m-1] {
		for k := range ws {
			w := &ws[k]
			size := (tj - w.compLat) / w.unitComp
			dispatched += size
			if out != nil {
				out[n] = Decision{Worker: w.id, Size: size}
				n++
			}
			var end float64
			linkFree, end = w.receive(linkFree, size)
			if end > makespan {
				makespan = end
			}
		}
	}

	// Absorb floating-point drift into the last round, spread across all
	// workers in proportion to their chunk so the equal-finish property
	// is preserved. A last round that dwarfs the load cannot give it
	// back: scaled, it rounds to nothing or drops the load's low digits,
	// so the scaled plan must still add up to the load.
	before := dispatched
	for k := range ws {
		dispatched += ws[k].last
	}
	drift := load - dispatched
	if math.Abs(drift) > load*1e-12 {
		if lastTotal <= 0 || lastTotal+drift < 0 {
			return 0, false
		}
		scale := (lastTotal + drift) / lastTotal
		dispatched = before
		for k := range ws {
			ws[k].last *= scale
			dispatched += ws[k].last
		}
		if math.Abs(load-dispatched) > load*1e-12 {
			return 0, false
		}
	}
	for k := range ws {
		w := &ws[k]
		if out != nil {
			out[n] = Decision{Worker: w.id, Size: w.last}
			n++
		}
		var end float64
		linkFree, end = w.receive(linkFree, w.last)
		if end > makespan {
			makespan = end
		}
	}
	return makespan, true
}
