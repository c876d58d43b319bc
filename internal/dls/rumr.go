package dls

import "fmt"

// RUMR implements the Robust UMR algorithm [38] (Yang & Casanova,
// HPDC 2003) as deployed in APST-DV: execution is split into two phases —
// a UMR phase with geometrically growing chunks for pipelining, then a
// Weighted Factoring phase with shrinking chunks to tolerate uncertainty.
//
// The original algorithm assumes γ (the uncertainty on chunk compute
// times) is known in advance and pre-computes the phase split from it.
// APST-DV has no such oracle: γ is discovered during execution from the
// deviation between predicted and observed chunk compute times, and the
// switch can only happen at a UMR round boundary (a round, once started,
// is dispatched in full).
//
// This reproduces the paper's central negative finding (§4.2): UMR round
// sizes grow geometrically, so the last round alone holds most of the
// load; at moderate γ the desired factoring phase is smaller than the
// last round, the switch condition is never satisfiable at any round
// boundary, and factoring never runs. At the case study's γ≈20% the
// desired phase-2 share is large enough that an earlier boundary
// qualifies, and the switch succeeds — exactly as the paper observed.
//
// Oracle mode (KnownGamma ≥ 0) restores the original algorithm's
// assumption for the ablation benchmark: the phase split is fixed at plan
// time from the known γ, which the paper suggests as future work ("the
// magnitude of the uncertainty could be learned from past application
// executions").
type RUMR struct {
	// KnownGamma, when ≥ 0, fixes the phase-2 fraction at plan time from
	// this γ instead of discovering it online (oracle ablation).
	KnownGamma float64

	twoPhase
}

// NewRUMR returns the online-discovery RUMR the paper evaluates.
func NewRUMR() *RUMR { return &RUMR{KnownGamma: -1} }

// NewOracleRUMR returns RUMR with γ known in advance, the original
// algorithm's assumption.
func NewOracleRUMR(gamma float64) *RUMR { return &RUMR{KnownGamma: gamma} }

// Name implements Algorithm.
func (r *RUMR) Name() string {
	if r.KnownGamma >= 0 {
		return "rumr-oracle"
	}
	return "rumr"
}

// UsesProbing implements Algorithm.
func (r *RUMR) UsesProbing() bool { return true }

// Phase2Fraction returns the desired share of the total load to schedule
// with factoring, given an uncertainty estimate. The heuristic follows
// the RUMR design intent — the factoring phase must be large enough to
// absorb the imbalance uncertainty creates — with the share growing
// linearly in γ and saturating below 1 so a UMR phase always remains.
func Phase2Fraction(gamma float64) float64 {
	const slope = 3.0
	f := slope * gamma
	if f > 0.9 {
		f = 0.9
	}
	if f < 0 {
		f = 0
	}
	return f
}

// Plan implements Algorithm. Online RUMR plans the whole load with UMR
// and decides the split at run time; the oracle fixes it here, and with
// no UMR phase left it switches straight away.
func (r *RUMR) Plan(p Plan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	r.start(p)
	phase1 := p.TotalLoad
	if r.KnownGamma >= 0 {
		phase1 = p.TotalLoad * (1 - Phase2Fraction(r.KnownGamma))
		if phase1 <= 0 {
			r.decisions = append(r.decisions, SwitchDecision{
				Gamma: r.KnownGamma, Want: p.TotalLoad, Remaining: p.TotalLoad, Switched: true,
			})
			return r.handOff(p.TotalLoad)
		}
	}
	if err := r.playRounds(phase1); err != nil {
		return fmt.Errorf("rumr: %w", err)
	}
	return nil
}

// Next implements Algorithm: online RUMR evaluates its switch condition
// at every round boundary, with the factoring phase planned over the
// load left from the probe estimates.
func (r *RUMR) Next(st State) (Decision, bool) {
	if !r.switched && r.KnownGamma < 0 && r.atBoundary() {
		r.trySwitch(st)
	}
	return r.twoPhase.Next(st)
}
