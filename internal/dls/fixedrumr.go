package dls

import "fmt"

// phase1Fraction is the share of the load Fixed-RUMR schedules with UMR
// (the paper's 80/20 split).
const phase1Fraction = 0.8

// FixedRUMR is the Fixed-RUMR variant of [38] the paper recommends to
// APST-DV users (§4.3): instead of deciding at runtime when to switch
// phases, it always schedules a fixed fraction of the load (80% in the
// paper) with UMR and the rest with Weighted Factoring. Because the split
// is baked into the plan — the UMR phase is *planned over 80% of the
// load*, not truncated mid-flight — the factoring phase always runs,
// sidestepping RUMR's late-switch pathology while keeping the two-phase
// structure that handles both start-up costs and uncertainty. It never
// estimates γ, so its one logged switch carries γ̂ = -1.
type FixedRUMR struct {
	twoPhase
	// phase2 is the factoring phase, held by value: Plan plans it in
	// place and points the core's factoring at it.
	phase2 WeightedFactoring
}

// NewFixedRUMR returns Fixed-RUMR with the paper's 80/20 split.
func NewFixedRUMR() *FixedRUMR { return &FixedRUMR{} }

// Name implements Algorithm.
func (f *FixedRUMR) Name() string { return "fixed-rumr" }

// UsesProbing implements Algorithm.
func (f *FixedRUMR) UsesProbing() bool { return true }

// Plan implements Algorithm: both phases are planned up front, the
// factoring phase over the whole load, and it takes over when the UMR
// rounds run out.
func (f *FixedRUMR) Plan(p Plan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	f.start(p)
	if err := f.playRounds(p.TotalLoad * phase1Fraction); err != nil {
		return fmt.Errorf("fixed-rumr: %w", err)
	}
	f.phase2 = WeightedFactoring{Adaptive: true}
	if err := f.phase2.Plan(p); err != nil {
		return fmt.Errorf("fixed-rumr: %w", err)
	}
	f.factoring = &f.phase2
	return nil
}

// Observe implements Algorithm: every non-probe completion feeds the
// factoring phase's speed adaptation throughout execution, so by the
// time phase 2 starts its weights already reflect observed performance.
// Probe chunks complete before Plan, when there is no phase to feed.
func (f *FixedRUMR) Observe(o Observation) {
	if !o.Probe {
		f.factoring.Observe(o)
	}
}
