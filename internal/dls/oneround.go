package dls

import (
	"fmt"
	"math"

	"apstdv/internal/model"
)

// OneRound implements the classical one-installment divisible load
// schedule with affine communication and computation costs on a
// single-level tree (star) with a serialized master link — the family of
// algorithms §2.2 surveys as the historical starting point of DLS theory.
// It is included as a related-work baseline and is not one of the paper's
// evaluated algorithms.
//
// Each worker receives exactly one chunk. Workers are served
// fastest-first, and chunk sizes are chosen so that every participating
// worker finishes computing at the same instant — the optimality
// condition for one-round schedules. Writing α_i for worker i's chunk
// (in dispatch order), the equal-finish constraint between consecutive
// workers gives the recurrence
//
//	(p_{i+1}+c_{i+1})·α_{i+1} = p_i·α_i + clat_i − clat_{i+1} − nlat_{i+1}
//
// which makes every α_i affine in α_0; the normalization Σα_i = W then
// fixes α_0. Workers whose α would be negative (too slow/far to help
// within the schedule) are dropped and the system re-solved, as the
// theory prescribes.
type OneRound struct {
	sequencePlayer

	// Participants is the number of workers actually used (set by Plan).
	Participants int
}

// NewOneRound returns a one-round policy.
func NewOneRound() *OneRound { return &OneRound{} }

// Name implements Algorithm.
func (o *OneRound) Name() string { return "one-round" }

// UsesProbing implements Algorithm.
func (o *OneRound) UsesProbing() bool { return true }

// Plan implements Algorithm.
func (o *OneRound) Plan(p Plan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	order := model.BySpeed(p.Workers)
	for len(order) > 0 {
		alphas, ok := solveOneRound(p, order)
		if ok {
			seq := make([]Decision, 0, len(order))
			for i, w := range order {
				seq = append(seq, Decision{Worker: w, Size: alphas[i]})
			}
			o.reset(seq)
			o.Participants = len(order)
			return nil
		}
		// Drop the slowest remaining worker and retry.
		order = order[:len(order)-1]
	}
	return fmt.Errorf("one-round: no feasible schedule for %d workers", len(p.Workers))
}

// solveOneRound returns the chunk sizes for the given dispatch order, or
// ok=false if any size would be non-positive.
func solveOneRound(p Plan, order []int) ([]float64, bool) {
	n := len(order)
	// α_i = a_i·α_0 + b_i.
	a := make([]float64, n)
	b := make([]float64, n)
	a[0], b[0] = 1, 0
	for i := 0; i+1 < n; i++ {
		ei := p.Workers[order[i]]
		ej := p.Workers[order[i+1]]
		den := ej.UnitComp + ej.UnitComm
		k := ei.UnitComp / den
		c := (ei.CompLatency - ej.CompLatency - ej.CommLatency) / den
		a[i+1] = k * a[i]
		b[i+1] = k*b[i] + c
	}
	var sumA, sumB float64
	for i := 0; i < n; i++ {
		sumA += a[i]
		sumB += b[i]
	}
	if sumA <= 0 {
		return nil, false
	}
	alpha0 := (p.TotalLoad - sumB) / sumA
	alphas := make([]float64, n)
	for i := 0; i < n; i++ {
		alphas[i] = a[i]*alpha0 + b[i]
		// Not "<= 0": costs many orders of magnitude apart overflow to a
		// NaN or infinite share, which must count as infeasible too.
		if !(alphas[i] > 0) || math.IsInf(alphas[i], 1) {
			return nil, false
		}
	}
	return alphas, true
}
