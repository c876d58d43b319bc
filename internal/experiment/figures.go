package experiment

import (
	"apstdv/internal/dls"
	"apstdv/internal/model"
	"apstdv/internal/stats"
	"apstdv/internal/workload"
)

// paperAlgorithms returns the six variants the evaluation compares.
func paperAlgorithms() []dls.Algorithm { return dls.PaperSet() }

// sectionFourProbeLoad is the probe chunk size for the §4 experiments:
// 200 units ≈ 0.08% of the load, a "relatively small chunk of the
// overall load" whose probing round costs a few hundred seconds against
// makespans of 6000+.
const sectionFourProbeLoad = 200

// Figure2 is the DAS-2-only experiment: 16 nodes, r = 37, γ ∈ {0, 10%}.
func Figure2() *Spec {
	return &Spec{
		ID:         "fig2",
		Title:      "DAS-2, 16 nodes, r=37",
		Platform:   workload.DAS2(16),
		App:        workload.Synthetic,
		Gammas:     []float64{0, 0.10},
		Algorithms: paperAlgorithms,
		Runs:       10,
		ProbeLoad:  sectionFourProbeLoad,
		Seed:       2,
	}
}

// Figure3 is the Meteor-only experiment: 16 nodes, r = 46, γ ∈ {0, 10%}.
func Figure3() *Spec {
	return &Spec{
		ID:         "fig3",
		Title:      "Meteor, 16 nodes, r=46",
		Platform:   workload.Meteor(16),
		App:        workload.Synthetic,
		Gammas:     []float64{0, 0.10},
		Algorithms: paperAlgorithms,
		Runs:       10,
		ProbeLoad:  sectionFourProbeLoad,
		Seed:       3,
	}
}

// Figure4 is the mixed-Grid experiment: 8 DAS-2 + 8 Meteor nodes.
func Figure4() *Spec {
	return &Spec{
		ID:         "fig4",
		Title:      "DAS-2 (8 nodes) + Meteor (8 nodes)",
		Platform:   workload.Mixed(8, 8),
		App:        workload.Synthetic,
		Gammas:     []float64{0, 0.10},
		Algorithms: paperAlgorithms,
		Runs:       10,
		ProbeLoad:  sectionFourProbeLoad,
		Seed:       4,
	}
}

// CaseStudy is the §5 experiment: MPEG-4 encoding on the non-dedicated
// GRAIL workstations. The application's intrinsic γ is MPEG's ~10%; the
// platform's background load pushes the *measured* γ to ≈20%, and r is
// ≈13.5. The Gammas slice holds the application-intrinsic value; the
// measured value is reported per cell.
func CaseStudy() *Spec {
	return &Spec{
		ID:       "casestudy",
		Title:    "MPEG-4 encoding on GRAIL (7 CPUs, non-dedicated)",
		Platform: workload.GRAIL(),
		App: func(gamma float64) *model.Application {
			a := workload.CaseStudy()
			a.Gamma = gamma
			return a
		},
		Gammas:     []float64{0.10},
		Algorithms: paperAlgorithms,
		Runs:       10,
		ProbeLoad:  workload.CaseStudyProbeLoad,
		Seed:       5,
	}
}

// All returns every engine-driven experiment in paper order.
func All() []*Spec {
	return []*Spec{Figure2(), Figure3(), Figure4(), CaseStudy()}
}

// DiscussionSummary is §4.3's cross-experiment summary: the average
// slowdown of SIMPLE-1, SIMPLE-5 (all cells) and UMR (under
// uncertainty) versus the best algorithm, across Figures 2–4.
type DiscussionSummary struct {
	AvgSimple1Pct float64 // paper: ~28%
	AvgSimple5Pct float64 // paper: ~18%
	AvgUMRPct     float64 // paper: ~17% (γ=10% cells)
}

// Discussion aggregates figure results into the §4.3 averages.
func Discussion(figs []*Result) DiscussionSummary {
	var s1, s5, umr stats.RunningStats
	for _, r := range figs {
		for _, c := range r.Cells {
			switch {
			case c.Algorithm == "simple-1":
				s1.Add(c.SlowdownPct)
			case c.Algorithm == "simple-5":
				s5.Add(c.SlowdownPct)
			case c.Algorithm == "umr" && c.Gamma > 0:
				umr.Add(c.SlowdownPct)
			}
		}
	}
	return DiscussionSummary{
		AvgSimple1Pct: s1.Mean(),
		AvgSimple5Pct: s5.Mean(),
		AvgUMRPct:     umr.Mean(),
	}
}
