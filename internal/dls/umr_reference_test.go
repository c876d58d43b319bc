package dls

import (
	"fmt"
	"math"

	"apstdv/internal/model"
)

// This file is the reference the production round search (umr.go) is
// compared against: the full scan PlanUMRRounds ran before the search was
// rewritten. It builds every candidate M = 1…maxUMRRounds decision by
// decision, sums it, and replays it through predictMakespan, with no
// table, no end-round shortcut, no lower bound and no memo. The
// arithmetic is kept verbatim; TestUMRSearchMatchesReference and
// FuzzUMRSearchMatchesReference require the production search to agree
// with it bit for bit.

// refScratch holds the buffers the reference reuses across candidates,
// so that thousands of differential cases do not spend their time in
// the allocator. The zero value is ready to use.
type refScratch struct {
	durations []float64
	flat      []Decision
	compFree  []float64
	// landscape[m] is the last scan's predicted makespan for M = m, NaN
	// where M is infeasible (index 0 is unused and NaN).
	landscape [maxUMRRounds + 1]float64
}

// umrAggregates are the cost-model constants every candidate shares.
type umrAggregates struct {
	sumA, sumB, sumL, sumP, sumC float64
	order                        []int // fastest-first
}

func aggregate(p Plan) umrAggregates {
	var a umrAggregates
	for _, e := range p.Workers {
		a.sumA += e.UnitComm / e.UnitComp
		a.sumB += e.UnitComm * e.CompLatency / e.UnitComp
		a.sumL += e.CommLatency
		a.sumP += 1 / e.UnitComp
		a.sumC += e.CompLatency / e.UnitComp
	}
	a.order = model.BySpeed(p.Workers)
	return a
}

// referencePlanUMRRounds is PlanUMRRounds as a full scan.
func (sc *refScratch) referencePlanUMRRounds(p Plan, load float64) ([]Decision, int, float64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, 0, err
	}
	if load <= 0 || load > p.TotalLoad*(1+1e-9) {
		return nil, 0, 0, fmt.Errorf("umr: load %g outside (0, total %g]", load, p.TotalLoad)
	}
	agg := aggregate(p)
	sc.scan(p, load, agg)
	bestM, bestPred := 0, math.Inf(1)
	for m, pred := range sc.landscape {
		if pred < bestPred { // never true of an infeasible M's NaN
			bestM, bestPred = m, pred
		}
	}
	if bestM == 0 {
		return nil, 0, 0, fmt.Errorf("umr: no feasible round count for load %g on %d workers", load, len(p.Workers))
	}
	flat, _ := sc.umrCandidate(p, load, bestM, agg)
	return append([]Decision(nil), flat...), len(p.Workers), bestPred, nil
}

// scan fills sc.landscape: every round count M = 1…maxUMRRounds is built
// and replayed, whatever its neighbours did.
func (sc *refScratch) scan(p Plan, load float64, agg umrAggregates) {
	sc.landscape[0] = math.NaN()
	for m := 1; m <= maxUMRRounds; m++ {
		sc.landscape[m] = math.NaN()
		if flat, ok := sc.umrCandidate(p, load, m, agg); ok {
			sc.landscape[m] = sc.predictMakespan(p.Workers, flat)
		}
	}
}

// umrCandidate builds the M-round schedule (round j occupies entries
// [j·W, (j+1)·W), workers fastest-first), or reports ok=false when M is
// infeasible (some round duration would require negative chunks, or
// chunks fall below the division granularity). The returned slice
// aliases sc and is only valid until the next call.
func (sc *refScratch) umrCandidate(p Plan, load float64, m int, agg umrAggregates) ([]Decision, bool) {
	sumA, sumB, sumL, sumP, sumC, order := agg.sumA, agg.sumB, agg.sumL, agg.sumP, agg.sumC, agg.order
	// Round durations: T_j = r^j·(T0 − F) + F with r = 1/A.
	// Total load constraint: sumP·ΣT_j − M·sumC = load.
	durations := growFloats(&sc.durations, m)
	switch {
	case sumA <= 0:
		// Free communication: the recurrence degenerates; a pipelined
		// multi-round schedule has no structure to exploit, so only the
		// single-round candidate is meaningful.
		if m != 1 {
			return nil, false
		}
		durations[0] = (load + sumC) / sumP
	case math.Abs(sumA-1) < 1e-12:
		// T_{j+1} = T_j − L + B: arithmetic progression with d = B − L.
		d := sumB - sumL
		// sumP·Σ(T0 + j·d) − M·sumC = load
		t0 := (load + float64(m)*sumC - sumP*d*float64(m*(m-1))/2) / (sumP * float64(m))
		for j := 0; j < m; j++ {
			durations[j] = t0 + float64(j)*d
		}
	default:
		r := 1 / sumA
		f := (sumL - sumB) / (1 - sumA)
		// g = Σ_{j<M} r^j, summed iteratively so extreme ratios stay
		// finite for small M instead of producing Inf/Inf.
		g, pow := 0.0, 1.0
		for j := 0; j < m; j++ {
			g += pow
			pow *= r
			if math.IsInf(g, 0) || math.IsInf(pow, 0) {
				return nil, false
			}
		}
		// sumP·[(T0−F)·g + M·F] − M·sumC = load
		t0 := f + (load+float64(m)*sumC-sumP*float64(m)*f)/(sumP*g)
		pow = 1.0
		for j := 0; j < m; j++ {
			durations[j] = pow*(t0-f) + f
			pow *= r
		}
	}

	if cap(sc.flat) < m*len(order) {
		sc.flat = make([]Decision, m*len(order))
	}
	flat := sc.flat[:m*len(order)]
	dispatched := 0.0
	n := 0
	for j := 0; j < m; j++ {
		tj := durations[j]
		if !(tj > 0) || math.IsInf(tj, 0) || math.IsNaN(tj) {
			return nil, false
		}
		for _, w := range order {
			e := p.Workers[w]
			size := (tj - e.CompLatency) / e.UnitComp
			if size < 0 {
				return nil, false
			}
			// Reject candidates whose chunks are below the division
			// granularity (they could not be materialized), except that
			// a single-round plan is always allowed as a fallback.
			if m > 1 && p.MinChunk > 0 && size < p.MinChunk {
				return nil, false
			}
			flat[n] = Decision{Worker: w, Size: size}
			n++
			dispatched += size
		}
	}

	// Absorb floating-point drift into the last round, spread across all
	// workers in proportion to their chunk so the equal-finish property
	// is preserved.
	drift := load - dispatched
	if math.Abs(drift) > load*1e-12 {
		last := flat[(m-1)*len(order):]
		lastTotal := sumSizes(last)
		if lastTotal <= 0 || lastTotal+drift < 0 {
			return nil, false
		}
		scale := (lastTotal + drift) / lastTotal
		for i := range last {
			last[i].Size *= scale
		}
		if math.Abs(load-sumSizes(flat)) > load*1e-12 {
			return nil, false
		}
	}
	return flat, true
}

// predictMakespan simulates a planned dispatch sequence against the
// estimated cost model: a serialized master uplink and per-worker FIFO
// compute, both affine. It is exact for the plan (no approximation).
func (sc *refScratch) predictMakespan(ests []model.Estimate, seq []Decision) float64 {
	linkFree := 0.0
	compFree := growFloats(&sc.compFree, len(ests))
	for i := range compFree {
		compFree[i] = 0
	}
	makespan := 0.0
	for _, d := range seq {
		e := ests[d.Worker]
		sendEnd := linkFree + e.CommLatency + d.Size*e.UnitComm
		linkFree = sendEnd
		start := sendEnd
		if compFree[d.Worker] > start {
			start = compFree[d.Worker]
		}
		end := start + e.CompLatency + d.Size*e.UnitComp
		compFree[d.Worker] = end
		if end > makespan {
			makespan = end
		}
	}
	return makespan
}

// growFloats returns (*buf)[:n], reallocating only when capacity is short.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
