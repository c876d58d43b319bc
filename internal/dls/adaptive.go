package dls

import (
	"fmt"

	"apstdv/internal/model"
)

// AdaptiveRUMR implements the paper's §6 future-work proposal: "an
// adaptive version of RUMR that updates its view of the platform after
// each sub-task completes". At every UMR round boundary it
//
//  1. refreshes each worker's per-unit compute estimate from the chunks
//     observed so far (blended with the probe estimate, like Weighted
//     Factoring's adaptation),
//  2. re-plans the remaining load's UMR rounds against the refreshed
//     estimates, and
//  3. evaluates RUMR's switch condition with the online γ estimate —
//     but, because each re-plan covers only the *remaining* load, the
//     geometric tail shrinks as execution progresses and the switch
//     condition becomes satisfiable far earlier than in plain RUMR,
//     repairing the late-switch pathology §4.2 uncovered.
type AdaptiveRUMR struct {
	twoPhase

	// probeUnitComp holds the probe's per-unit compute estimates, which
	// the refined ones in plan blend with observations.
	probeUnitComp []float64
	// dirty marks that new observations arrived since the last re-plan.
	dirty bool
}

// NewAdaptiveRUMR returns the adaptive RUMR extension.
func NewAdaptiveRUMR() *AdaptiveRUMR { return &AdaptiveRUMR{} }

// Name implements Algorithm.
func (a *AdaptiveRUMR) Name() string { return "adaptive-rumr" }

// UsesProbing implements Algorithm.
func (a *AdaptiveRUMR) UsesProbing() bool { return true }

// Plan implements Algorithm. Observe and Recalibrate refine the
// estimates in place, so it plans with a copy: the caller's stay as
// they were.
func (a *AdaptiveRUMR) Plan(p Plan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	p.Workers = append([]model.Estimate(nil), p.Workers...)
	a.start(p)
	a.probeUnitComp = make([]float64, len(p.Workers))
	for w, e := range p.Workers {
		a.probeUnitComp[w] = e.UnitComp
	}
	return a.replan(p.TotalLoad)
}

// replan rebuilds the UMR rounds for the remaining load against the
// refined estimates.
func (a *AdaptiveRUMR) replan(load float64) error {
	if err := a.playRounds(min(load, a.plan.TotalLoad)); err != nil {
		return fmt.Errorf("adaptive-rumr: %w", err)
	}
	a.dirty = false
	return nil
}

// Next implements Algorithm: from the second round boundary on, it
// evaluates the switch condition, with the factoring phase planned over
// the load left from the refined estimates, and otherwise folds fresh
// observations into a re-plan of the remaining rounds.
func (a *AdaptiveRUMR) Next(st State) (Decision, bool) {
	if !a.switched && a.player.pos > 0 && a.atBoundary() {
		// The condition is plain RUMR's; the repair is its reachability:
		// every re-plan covers only the remaining load, so the boundaries
		// recur at geometrically shrinking remainders — 57%, 32%, 19%,
		// ... of the total instead of stopping at the first plan's last
		// round — and the condition is eventually met.
		if !a.trySwitch(st) && a.dirty && st.Remaining > 0 {
			if err := a.replan(st.Remaining); err != nil {
				// Keep the existing plan on re-plan failure.
				a.dirty = false
			}
		}
	}
	return a.twoPhase.Next(st)
}

// Observe implements Algorithm: an observation the γ estimate takes also
// refines the worker's per-unit compute estimate.
func (a *AdaptiveRUMR) Observe(o Observation) {
	if !a.observe(o) {
		return
	}
	w := o.Worker
	a.plan.Workers[w].UnitComp = blendSpeed(a.probeUnitComp[w], &a.gamma.perWorker[w])
	a.dirty = true
}

// Recalibrate implements Recalibrator: fold refreshed start-up cost
// measurements into the platform view the next re-plan uses.
func (a *AdaptiveRUMR) Recalibrate(worker int, commLatency, compLatency float64) {
	if worker < 0 || worker >= len(a.plan.Workers) {
		return
	}
	// Blend 50/50 with the current view: single no-op samples are noisy.
	w := &a.plan.Workers[worker]
	if commLatency >= 0 {
		w.CommLatency = (w.CommLatency + commLatency) / 2
	}
	if compLatency >= 0 {
		w.CompLatency = (w.CompLatency + compLatency) / 2
	}
	a.dirty = true
}
