package dls

import (
	"math"
	"testing"
)

func TestPhase2Fraction(t *testing.T) {
	if Phase2Fraction(0) != 0 {
		t.Error("f2(0) should be 0")
	}
	if got := Phase2Fraction(0.1); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("f2(0.1) = %g, want 0.3", got)
	}
	if got := Phase2Fraction(0.5); got != 0.9 {
		t.Errorf("f2(0.5) = %g, want saturation at 0.9", got)
	}
	if Phase2Fraction(-1) != 0 {
		t.Error("negative γ should clamp to 0")
	}
}

func TestRUMRNoNoiseNeverSwitches(t *testing.T) {
	// With γ=0 the observed per-unit times are identical; γ̂ = 0 and the
	// factoring phase never runs — RUMR degenerates to pure UMR (§4.2).
	r := NewRUMR()
	f := newFakeEngine(das2Estimates(16), 240000, 10)
	if err := f.run(r); err != nil {
		t.Fatal(err)
	}
	if r.Switched() {
		t.Error("RUMR switched with zero uncertainty")
	}
	u := NewUMR()
	fu := newFakeEngine(das2Estimates(16), 240000, 10)
	if err := fu.run(u); err != nil {
		t.Fatal(err)
	}
	if !nearly(f.makespan, fu.makespan, 1e-9) {
		t.Errorf("unswitched RUMR makespan %.2f != UMR %.2f", f.makespan, fu.makespan)
	}
}

func TestRUMREstimatedGammaConverges(t *testing.T) {
	r := NewRUMR()
	if err := r.Plan(Plan{TotalLoad: 240000, MinChunk: 10, Workers: das2Estimates(4)}); err != nil {
		t.Fatal(err)
	}
	if r.gamma.estimate() >= 0 {
		t.Error("γ̂ available before any observation")
	}
	// Alternate per-unit times 0.36 and 0.44 around mean 0.40 → CV ≈ 10%.
	// The alternation must vary *within* each worker (index i/4), not
	// correlate with the worker id.
	for i := 0; i < 40; i++ {
		perUnit := 0.36
		if (i/4)%2 == 1 {
			perUnit = 0.44
		}
		r.Observe(Observation{
			Worker: i % 4, Size: 100,
			CompStart: 0, CompEnd: 0.7 + 100*perUnit,
		})
	}
	g := r.gamma.estimate()
	if g < 0.05 || g > 0.15 {
		t.Errorf("γ̂ = %.3f, want ≈0.10", g)
	}
}

func TestRUMRGammaEstimateIgnoresProbes(t *testing.T) {
	r := NewRUMR()
	if err := r.Plan(Plan{TotalLoad: 240000, MinChunk: 10, Workers: das2Estimates(4)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r.Observe(Observation{Worker: i % 4, Size: 100, Probe: true, CompStart: 0, CompEnd: float64(40 + i)})
	}
	if r.gamma.estimate() >= 0 {
		t.Error("probe observations fed the γ estimator")
	}
}

func TestRUMRGammaEstimateIsolatesWorkerSpeed(t *testing.T) {
	// Two workers with very different speeds but zero dispersion must
	// yield γ̂ ≈ 0: per-worker normalization keeps heterogeneity from
	// masquerading as uncertainty.
	r := NewRUMR()
	ests := das2Estimates(2)
	if err := r.Plan(Plan{TotalLoad: 240000, MinChunk: 10, Workers: ests}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r.Observe(Observation{Worker: 0, Size: 100, CompStart: 0, CompEnd: 0.7 + 100*0.4})
		r.Observe(Observation{Worker: 1, Size: 100, CompStart: 0, CompEnd: 0.7 + 100*1.2})
	}
	if g := r.gamma.estimate(); g > 0.01 {
		t.Errorf("γ̂ = %.3f for deterministic heterogeneous workers, want ≈0", g)
	}
}

func TestOracleRUMRSwitchesByConstruction(t *testing.T) {
	// The oracle variant bakes the split into the plan: with γ=0.2 the
	// last 60% of the load is factored, and the switch always happens.
	r := NewOracleRUMR(0.2)
	f := newFakeEngine(das2Estimates(16), 240000, 10)
	if err := f.run(r); err != nil {
		t.Fatal(err)
	}
	if !r.Switched() {
		t.Error("oracle RUMR never entered its factoring phase")
	}
	if !nearly(f.totalDispatched(), 240000, 1e-6) {
		t.Errorf("dispatched %.1f", f.totalDispatched())
	}
}

func TestOracleRUMRZeroGammaIsPureUMR(t *testing.T) {
	r := NewOracleRUMR(0)
	f := newFakeEngine(das2Estimates(16), 240000, 10)
	if err := f.run(r); err != nil {
		t.Fatal(err)
	}
	if r.Switched() {
		t.Error("oracle RUMR with γ=0 should never factor")
	}
}

func TestRUMRNames(t *testing.T) {
	if NewRUMR().Name() != "rumr" {
		t.Error("rumr name")
	}
	if NewOracleRUMR(0.1).Name() != "rumr-oracle" {
		t.Error("oracle name")
	}
}

// TestRUMRLateSwitchPathology reproduces the paper's central finding in
// miniature: feed RUMR a γ̂ signal that only becomes available after most
// rounds are dispatched, and verify the switch condition is never
// satisfiable because the undispatched remainder is always larger than
// the desired factoring share.
func TestRUMRLateSwitchPathology(t *testing.T) {
	r := NewRUMR()
	ests := das2Estimates(16)
	if err := r.Plan(Plan{TotalLoad: 240000, MinChunk: 10, Workers: ests}); err != nil {
		t.Fatal(err)
	}
	// Dispatch everything except the last round while feeding γ=10%
	// observations — the estimator crosses its confidence threshold
	// early, yet remaining > f2(0.1)·W at every boundary.
	st := State{Remaining: 240000, Pending: make([]float64, 16), PendingChunks: make([]int, 16)}
	obs := 0
	for {
		d, ok := r.Next(st)
		if !ok {
			break
		}
		size := d.Size
		if size > st.Remaining {
			size = st.Remaining
		}
		r.Dispatched(d.Worker, d.Size, size)
		st.Remaining -= size
		// Two noisy completions per dispatch keeps γ̂ fed well before
		// the tail rounds go out.
		for k := 0; k < 2; k++ {
			perUnit := 0.36
			if (obs/16)%2 == 1 {
				perUnit = 0.44
			}
			r.Observe(Observation{Worker: obs % 16, Size: 100, CompStart: 0, CompEnd: 0.7 + 100*perUnit})
			obs++
		}
		if st.Remaining <= 0 {
			break
		}
	}
	if r.Switched() {
		t.Error("RUMR switched at γ̂≈10% despite the geometric tail — the paper's pathology should prevent it")
	}
	if g := r.gamma.estimate(); g < 0.05 {
		t.Errorf("γ̂ = %.3f; the estimator should have converged (the point is it converges but cannot act)", g)
	}
}

// TestRUMRSwitchesAtHighGamma is the case-study counterpart: at γ̂≈25%
// the desired factoring share is large enough that a round boundary
// qualifies, and the switch happens.
func TestRUMRSwitchesAtHighGamma(t *testing.T) {
	r := NewRUMR()
	// GRAIL-shaped estimates: 7 workers, r≈13.5.
	ests := homogeneousEstimates(7, 0.202, 1.0, 2.5, 0.5)
	if err := r.Plan(Plan{TotalLoad: 1830, MinChunk: 1, Workers: ests}); err != nil {
		t.Fatal(err)
	}
	st := State{Remaining: 1830, Pending: make([]float64, 7), PendingChunks: make([]int, 7)}
	obs := 0
	for {
		d, ok := r.Next(st)
		if !ok {
			break
		}
		size := math.Min(d.Size, st.Remaining)
		r.Dispatched(d.Worker, d.Size, size)
		st.Remaining -= size
		for k := 0; k < 2; k++ {
			perUnit := 1.9 // alternate 1.9 / 3.1 around 2.5 → CV ≈ 24%
			if obs%2 == 1 {
				perUnit = 3.1
			}
			r.Observe(Observation{Worker: obs % 7, Size: 20, CompStart: 0, CompEnd: 0.5 + 20*perUnit})
			obs++
		}
		if st.Remaining <= 0 || r.Switched() {
			break
		}
	}
	if !r.Switched() {
		t.Error("RUMR did not switch at γ̂≈24% — the case study shows it must")
	}
}
