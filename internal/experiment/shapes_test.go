package experiment

import (
	"math"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/model"
	"apstdv/internal/workload"
)

// runFast runs a spec with fewer repetitions for test latency; the shape
// assertions hold at 4 runs with the fixed seeds.
func runFast(t *testing.T, s *Spec) *Result {
	t.Helper()
	s.Runs = 4
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// cell fetches a cell or fails.
func cellOf(t *testing.T, r *Result, alg string, gamma float64) Cell {
	t.Helper()
	c, ok := r.Cell(alg, gamma)
	if !ok {
		t.Fatalf("no cell for %s at γ=%g", alg, gamma)
	}
	return c
}

// TestFigure2Shapes asserts the DAS-2 findings of §4.2.
func TestFigure2Shapes(t *testing.T) {
	res := runFast(t, Figure2())

	// γ=0: UMR and RUMR identical (RUMR degenerates to pure UMR), both
	// near the best; SIMPLE-1 at least 20% slower; WF ~10% slower.
	umr0 := cellOf(t, res, "umr", 0)
	rumr0 := cellOf(t, res, "rumr", 0)
	if math.Abs(umr0.Summary.Mean-rumr0.Summary.Mean) > 1e-6 {
		t.Errorf("γ=0: RUMR (%.1f) must degenerate to UMR (%.1f)", rumr0.Summary.Mean, umr0.Summary.Mean)
	}
	if umr0.SlowdownPct > 2 {
		t.Errorf("γ=0: UMR is %.1f%% off the best; should be at/near it", umr0.SlowdownPct)
	}
	s1 := cellOf(t, res, "simple-1", 0)
	if s1.SlowdownPct < 20 {
		t.Errorf("γ=0: SIMPLE-1 only %.1f%% slower; paper shows ≈26%%", s1.SlowdownPct)
	}
	wf0 := cellOf(t, res, "wf", 0)
	if wf0.SlowdownPct < 5 || wf0.SlowdownPct > 18 {
		t.Errorf("γ=0: WF %.1f%% slower; paper shows ≈10%%", wf0.SlowdownPct)
	}
	s5 := cellOf(t, res, "simple-5", 0)
	if s5.SlowdownPct > 10 {
		t.Errorf("γ=0: SIMPLE-5 %.1f%% slower; paper shows ≈5%%", s5.SlowdownPct)
	}

	// γ=10%: RUMR never switches (the late-switch pathology) and the
	// robust two-phase Fixed-RUMR is the best algorithm.
	rumr10 := cellOf(t, res, "rumr", 0.10)
	if rumr10.RUMRSwitched != 0 {
		t.Errorf("γ=10%%: RUMR switched in %d/%d runs; the paper's pathology says 0", rumr10.RUMRSwitched, res.Spec.Runs)
	}
	if best := res.Best(0.10); best != "fixed-rumr" {
		t.Errorf("γ=10%%: best algorithm %s, want fixed-rumr", best)
	}
	umr10 := cellOf(t, res, "umr", 0.10)
	if umr10.Summary.Mean <= umr0.Summary.Mean {
		t.Error("γ=10%: UMR did not degrade under uncertainty")
	}
}

// TestFigure3Shapes asserts the Meteor findings: low start-up costs, so
// the UMR advantage evaporates while the SIMPLEs still pay for
// serialization and non-adaptivity.
func TestFigure3Shapes(t *testing.T) {
	res := runFast(t, Figure3())
	for _, alg := range []string{"umr", "rumr", "fixed-rumr"} {
		c := cellOf(t, res, alg, 0)
		if c.SlowdownPct > 3 {
			t.Errorf("γ=0: %s is %.1f%% off; the informed algorithms should be comparable on Meteor", alg, c.SlowdownPct)
		}
	}
	s1 := cellOf(t, res, "simple-1", 0)
	if s1.SlowdownPct < 18 {
		t.Errorf("γ=0: SIMPLE-1 only %.1f%% slower; paper shows ≈21%%", s1.SlowdownPct)
	}
	// γ=10%: Fixed-RUMR ≈ WF ("roughly the same performance"), both
	// clearly ahead of UMR/RUMR.
	wf := cellOf(t, res, "wf", 0.10)
	fixed := cellOf(t, res, "fixed-rumr", 0.10)
	umr := cellOf(t, res, "umr", 0.10)
	if fixed.Summary.Mean > umr.Summary.Mean {
		t.Errorf("γ=10%%: Fixed-RUMR (%.0f) should beat UMR (%.0f)", fixed.Summary.Mean, umr.Summary.Mean)
	}
	if wf.Summary.Mean > umr.Summary.Mean*1.05 {
		t.Errorf("γ=10%%: WF (%.0f) should be at worst comparable to UMR (%.0f)", wf.Summary.Mean, umr.Summary.Mean)
	}
}

// TestFigure4Shapes asserts the mixed-Grid findings.
func TestFigure4Shapes(t *testing.T) {
	res := runFast(t, Figure4())
	umr0 := cellOf(t, res, "umr", 0)
	if umr0.SlowdownPct > 2 {
		t.Errorf("γ=0: UMR %.1f%% off the best on the mixed grid", umr0.SlowdownPct)
	}
	s1 := cellOf(t, res, "simple-1", 0)
	s5 := cellOf(t, res, "simple-5", 0)
	if s1.SlowdownPct < 15 || s5.SlowdownPct < 1 {
		t.Errorf("γ=0: SIMPLE-1/5 slowdowns %.1f%%/%.1f%%; paper shows 25%%/17%%", s1.SlowdownPct, s5.SlowdownPct)
	}
	if s1.Summary.Mean <= s5.Summary.Mean {
		t.Error("SIMPLE-1 should be worse than SIMPLE-5")
	}
	if best := res.Best(0.10); best != "fixed-rumr" && best != "wf" {
		t.Errorf("γ=10%%: best = %s, want a robust algorithm (fixed-rumr or wf)", best)
	}
}

// TestCaseStudyShapes asserts §5.2: on the non-dedicated GRAIL LAN the
// adaptive algorithms win, RUMR's switch SUCCEEDS at the higher measured
// γ, and the SIMPLEs collapse (uniform shares ignore the slow machine).
func TestCaseStudyShapes(t *testing.T) {
	res := runFast(t, CaseStudy())
	gamma := 0.10 // application-intrinsic; platform noise raises measured γ
	rumr := cellOf(t, res, "rumr", gamma)
	if rumr.RUMRSwitched != res.Spec.Runs {
		t.Errorf("RUMR switched in %d/%d runs; the case study shows it always switches at γ≈20%%",
			rumr.RUMRSwitched, res.Spec.Runs)
	}
	if rumr.MeasuredGamma < 0.15 || rumr.MeasuredGamma > 0.35 {
		t.Errorf("measured γ = %.2f, want ≈0.20 (the paper's measured value)", rumr.MeasuredGamma)
	}
	// Adaptive algorithms (WF, RUMR) at or near the best.
	best := res.Best(gamma)
	if best != "rumr" && best != "wf" {
		t.Errorf("best = %s, want an adaptive algorithm", best)
	}
	s1 := cellOf(t, res, "simple-1", gamma)
	s5 := cellOf(t, res, "simple-5", gamma)
	if s1.SlowdownPct < 30 {
		t.Errorf("SIMPLE-1 only %.0f%% slower; paper shows ≈52%%", s1.SlowdownPct)
	}
	if s5.SlowdownPct < 20 {
		t.Errorf("SIMPLE-5 only %.0f%% slower; paper shows ≈38%%", s5.SlowdownPct)
	}
}

// TestDiscussionAverages asserts the §4.3 cross-experiment summary
// directionally: SIMPLE-1 worst, SIMPLE-5 clearly bad, UMR hurt by
// uncertainty.
func TestDiscussionAverages(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregates three figures")
	}
	var figs []*Result
	for _, s := range []*Spec{Figure2(), Figure3(), Figure4()} {
		figs = append(figs, runFast(t, s))
	}
	d := Discussion(figs)
	if d.AvgSimple1Pct < 20 {
		t.Errorf("SIMPLE-1 average %.1f%%, paper ≈28%%", d.AvgSimple1Pct)
	}
	if d.AvgSimple5Pct < 2 {
		t.Errorf("SIMPLE-5 average %.1f%%, paper ≈18%%", d.AvgSimple5Pct)
	}
	if d.AvgUMRPct < 3 {
		t.Errorf("UMR-under-uncertainty average %.1f%%, paper ≈17%%", d.AvgUMRPct)
	}
	if d.AvgSimple1Pct <= d.AvgSimple5Pct {
		t.Error("SIMPLE-1 should average worse than SIMPLE-5")
	}
}

func TestTable1Regeneration(t *testing.T) {
	res := Table1()
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if math.Abs(row.RunTimeSec-row.PaperRunTimeSec)/row.PaperRunTimeSec > 0.03 {
			t.Errorf("%s: runtime %.0f vs paper %.0f", row.Name, row.RunTimeSec, row.PaperRunTimeSec)
		}
		if math.Abs(row.R-row.PaperR)/row.PaperR > 0.03 {
			t.Errorf("%s: r %.1f vs paper %.1f", row.Name, row.R, row.PaperR)
		}
		if row.PaperGammaPct >= 0 && math.Abs(row.GammaPct-row.PaperGammaPct) > 2 {
			t.Errorf("%s: γ %.1f%% vs paper %.0f%%", row.Name, row.GammaPct, row.PaperGammaPct)
		}
		if row.PaperSpreadPct >= 0 {
			tol := 0.3*row.PaperSpreadPct + 2
			if math.Abs(row.SpreadPct-row.PaperSpreadPct) > tol {
				t.Errorf("%s: spread %.0f%% vs paper %.0f%%", row.Name, row.SpreadPct, row.PaperSpreadPct)
			}
		}
	}
	if out := res.Render(); len(out) == 0 {
		t.Error("empty render")
	}
}

func TestMeasureGammaOnDedicatedNoiselessRun(t *testing.T) {
	spec := Figure2()
	spec.Runs = 1
	spec.Gammas = []float64{0}
	spec.Algorithms = func() []dls.Algorithm { return []dls.Algorithm{dls.NewUMR()} }
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if g := res.Cells[0].MeasuredGamma; g > 0.01 {
		t.Errorf("measured γ = %.3f on a noiseless run, want ≈0", g)
	}
}

func TestSpecSeedsDeterministic(t *testing.T) {
	run := func() float64 {
		s := Figure3()
		s.Runs = 2
		s.Algorithms = func() []dls.Algorithm { return []dls.Algorithm{dls.NewWeightedFactoring()} }
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cells[1].Summary.Mean // γ=10% cell
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same spec diverged: %.3f vs %.3f", a, b)
	}
}

func TestCellsAtAndBest(t *testing.T) {
	s := Figure2()
	s.Runs = 1
	s.Gammas = []float64{0}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	cells := res.CellsAt(0)
	if len(cells) != 6 {
		t.Errorf("%d cells at γ=0, want 6", len(cells))
	}
	if res.Best(0) == "" {
		t.Error("no best at γ=0")
	}
	if res.Best(0.5) != "" {
		t.Error("best at unknown γ should be empty")
	}
	if _, ok := res.Cell("nope", 0); ok {
		t.Error("unknown algorithm cell found")
	}
}

func TestPlatformRatiosInSpecs(t *testing.T) {
	// The specs must carry the paper's r values.
	app := workload.Synthetic(0)
	if r := modelRatio(app, Figure2().Platform); math.Abs(r-37) > 1.5 {
		t.Errorf("fig2 r = %.1f", r)
	}
	if r := modelRatio(app, Figure3().Platform); math.Abs(r-46) > 1.5 {
		t.Errorf("fig3 r = %.1f", r)
	}
	cs := workload.CaseStudy()
	if r := modelRatio(cs, CaseStudy().Platform); math.Abs(r-13.5) > 1.5 {
		t.Errorf("case study r = %.1f", r)
	}
}

// modelRatio is a local alias to keep the assertions readable.
func modelRatio(app *model.Application, p *model.Platform) float64 {
	return model.PlatformRatio(app, p)
}

// Best returns the fastest algorithm name at γ.
func (r *Result) Best(gamma float64) string {
	cells := r.CellsAt(gamma)
	if len(cells) == 0 {
		return ""
	}
	best := cells[0]
	for _, c := range cells[1:] {
		if c.Summary.Mean < best.Summary.Mean {
			best = c
		}
	}
	return best.Algorithm
}
