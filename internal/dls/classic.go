package dls

import (
	"fmt"
	"math"
)

// This file implements the classical self-scheduling and multi-round
// algorithms the paper's §2.2 survey builds on. They are not part of the
// paper's evaluated set, but they are the intellectual ancestors of
// Weighted Factoring and UMR and make instructive baselines:
//
//   - GSS — Guided Self-Scheduling [20]: each work request receives
//     remaining/N, giving a geometrically *decreasing* chunk sequence.
//   - Factoring [22] (plain, unweighted): halving batches of N equal
//     chunks; the precursor of Weighted Factoring.
//   - Multi-Installment [8] (Bharadwaj, Ghose, Mani): a fixed number of
//     installments under purely linear costs on a homogeneous platform —
//     the algorithm whose limitations ("the number of rounds is magically
//     fixed", no start-up costs, homogeneous only) UMR was designed to
//     remove.

// GSS implements Guided Self-Scheduling: the k-th dispatched chunk is
// 1/N of the load remaining at dispatch time. Like factoring it ends
// with small chunks (uncertainty tolerance), but its first chunk is W/N
// — so large that one slow worker holding it ruins the schedule, the
// weakness factoring fixed.
type GSS struct {
	demandPool
}

// NewGSS returns a GSS policy.
func NewGSS() *GSS { return &GSS{} }

// Name implements Algorithm.
func (g *GSS) Name() string { return "gss" }

// UsesProbing implements Algorithm: GSS needs worker speeds only for its
// starvation ordering, but probing keeps the comparison fair.
func (g *GSS) UsesProbing() bool { return true }

// Next implements Algorithm.
func (g *GSS) Next(st State) (Decision, bool) {
	if st.Remaining <= 0 {
		return Decision{}, false
	}
	w, ok := g.pick(st)
	if !ok {
		return Decision{}, false
	}
	size := st.Remaining / float64(len(g.ests))
	if size < g.minChunk {
		size = g.minChunk
	}
	if size > st.Remaining {
		size = st.Remaining
	}
	return Decision{Worker: w, Size: size}, true
}

// PlainFactoring is Factoring [22] without weights or adaptation: each
// round's batch is half the remaining load divided into N *equal*
// chunks. On heterogeneous platforms the equal chunks mis-serve slow
// workers — which is exactly why [23] added weights.
type PlainFactoring struct {
	factoringBatch
}

// NewPlainFactoring returns an unweighted factoring policy.
func NewPlainFactoring() *PlainFactoring {
	return &PlainFactoring{factoringBatch{equal: true}}
}

// Name implements Algorithm. The name is "factoring-plain" (not
// "factoring", which the registry reserves as an alias of the paper's
// weighted variant).
func (pf *PlainFactoring) Name() string { return "factoring-plain" }

// UsesProbing implements Algorithm: plain factoring is oblivious to
// speeds, so it skips the probing round entirely (like SIMPLE-n).
func (pf *PlainFactoring) UsesProbing() bool { return false }

// MultiInstallment implements the fixed-round multi-installment
// algorithm of [8] under its own assumptions: purely *linear* costs (no
// start-up latencies in the plan) and a homogeneous platform (mean
// estimates are used when workers differ). Installment sizes follow the
// linear-cost pipelining recurrence chunk_{j+1} = (p/(N·c))·chunk_j; the
// number of installments M is fixed by the user, not optimized — the two
// limitations the paper credits UMR with removing.
type MultiInstallment struct {
	sequencePlayer

	// M is the fixed number of installments (the paper: "assume that the
	// number of rounds is magically fixed").
	M int
}

// NewMultiInstallment returns the policy with m installments.
func NewMultiInstallment(m int) *MultiInstallment { return &MultiInstallment{M: m} }

// Name implements Algorithm.
func (mi *MultiInstallment) Name() string { return fmt.Sprintf("mi-%d", mi.M) }

// UsesProbing implements Algorithm.
func (mi *MultiInstallment) UsesProbing() bool { return true }

// Plan implements Algorithm.
func (mi *MultiInstallment) Plan(p Plan) error {
	if mi.M < 1 {
		return fmt.Errorf("multi-installment: M must be >= 1, got %d", mi.M)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	n := float64(len(p.Workers))
	var cMean, pMean float64
	for _, e := range p.Workers {
		cMean += e.UnitComm
		pMean += e.UnitComp
	}
	cMean /= n
	pMean /= n

	// Linear-cost growth ratio; for p ≤ N·c (communication-bound) the
	// ratio collapses the rounds toward equal sizes.
	ratio := 1.0
	if cMean > 0 {
		ratio = pMean / (n * cMean)
	}
	if ratio <= 0 || math.IsInf(ratio, 0) || math.IsNaN(ratio) {
		ratio = 1
	}
	// chunk_j = chunk_0·ratio^j per worker; N·chunk_0·Σ ratio^j = W.
	geo := 0.0
	pow := 1.0
	for j := 0; j < mi.M; j++ {
		geo += pow
		pow *= ratio
	}
	chunk0 := p.TotalLoad / (n * geo)

	seq := make([]Decision, 0, len(p.Workers)*mi.M)
	size := chunk0
	for j := 0; j < mi.M; j++ {
		for w := 0; w < len(p.Workers); w++ {
			seq = append(seq, Decision{Worker: w, Size: size})
		}
		size *= ratio
	}
	mi.reset(seq)
	return nil
}

// TSS implements Trapezoid Self-Scheduling (Tzen & Ni, 1993), the other
// classical decreasing-chunk policy in the GSS/Factoring lineage: chunk
// sizes decrease *linearly* from first = W/(2N) down to the minimum
// chunk, rather than geometrically. The linear decay yields far fewer
// chunks than GSS for the same final granularity, trading some
// end-of-run balancing resolution for less dispatch overhead.
type TSS struct {
	demandPool

	next float64 // next chunk size
	dec  float64 // per-chunk decrement
	min  float64
}

// NewTSS returns a trapezoid self-scheduling policy.
func NewTSS() *TSS { return &TSS{} }

// Name implements Algorithm.
func (ts *TSS) Name() string { return "tss" }

// UsesProbing implements Algorithm.
func (ts *TSS) UsesProbing() bool { return true }

// Plan implements Algorithm: with first chunk f = W/(2N) and last chunk
// l = the pool's floor, the classic TSS parameters are C = ⌈2W/(f+l)⌉
// chunks and decrement d = (f−l)/(C−1).
func (ts *TSS) Plan(p Plan) error {
	if err := ts.demandPool.Plan(p); err != nil {
		return err
	}
	first := p.TotalLoad / (2 * float64(len(p.Workers)))
	last := ts.minChunk
	if last >= first {
		// Degenerate geometry (tiny load or huge floor): single flat size.
		ts.next = first
		ts.dec = 0
		ts.min = first
		return nil
	}
	c := math.Ceil(2 * p.TotalLoad / (first + last))
	ts.dec = 0
	if c > 1 {
		ts.dec = (first - last) / (c - 1)
	}
	ts.next = first
	ts.min = last
	return nil
}

// Next implements Algorithm.
func (ts *TSS) Next(st State) (Decision, bool) {
	if st.Remaining <= 0 {
		return Decision{}, false
	}
	w, ok := ts.pick(st)
	if !ok {
		return Decision{}, false
	}
	size := ts.next
	if size < ts.min {
		size = ts.min
	}
	if size > st.Remaining {
		size = st.Remaining
	}
	return Decision{Worker: w, Size: size}, true
}

// Dispatched implements Algorithm: step the trapezoid.
func (ts *TSS) Dispatched(worker int, requested, actual float64) {
	ts.next -= ts.dec
	if ts.next < ts.min {
		ts.next = ts.min
	}
}
