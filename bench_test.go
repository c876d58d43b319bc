// Package apstdv's root benchmark harness regenerates every table and
// figure of the paper's evaluation and the ablations DESIGN.md calls out.
// Benchmarks report model makespans as custom metrics (makespan-s), so
// `go test -bench=. -benchmem` prints the paper's series next to the
// usual Go timing columns:
//
//	BenchmarkFigure2DAS2/umr/γ=10%-8    ...   6970 makespan-s
//
// The model results the paper reports are the makespan-s / slowdown-pct
// metrics. Nothing here measures performance: that is bench/ (`bash
// bench/run.sh`, declared in BENCHMARK.json).
package main

import (
	"fmt"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/experiment"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	otrace "apstdv/internal/obs/trace"
	"apstdv/internal/stats"
	"apstdv/internal/trace"
	"apstdv/internal/units"
	"apstdv/internal/workload"
)

// benchRuns trades statistical precision for benchmark latency; the
// published experiment uses 10 (cmd/experiments -runs 10).
const benchRuns = 5

// runCells executes a figure spec once per benchmark iteration and
// reports per-(algorithm, γ) makespans and slowdowns as sub-benchmarks.
func runCells(b *testing.B, mk func() *experiment.Spec) {
	proto := mk()
	for _, gamma := range proto.Gammas {
		for ai := range proto.Algorithms() {
			name := proto.Algorithms()[ai].Name()
			gamma := gamma
			ai := ai
			b.Run(fmt.Sprintf("%s/γ=%g%%", name, gamma*100), func(b *testing.B) {
				var mean, slow float64
				for i := 0; i < b.N; i++ {
					s := mk()
					s.Runs = benchRuns
					s.Gammas = []float64{gamma}
					res, err := s.Run()
					if err != nil {
						b.Fatal(err)
					}
					cells := res.CellsAt(gamma)
					mean = cells[ai].Summary.Mean
					slow = cells[ai].SlowdownPct
				}
				b.ReportMetric(mean, "makespan-s")
				b.ReportMetric(slow, "slowdown-pct")
				b.ReportMetric(0, "ns/op") // model results, not wall time, are the product
			})
		}
	}
}

// BenchmarkTable1AppCharacteristics regenerates Table 1: per-application
// runtime, r, γ and spread.
func BenchmarkTable1AppCharacteristics(b *testing.B) {
	rows := experiment.Table1().Rows
	for ri := range rows {
		row := rows[ri]
		b.Run(row.Name, func(b *testing.B) {
			var r, gamma float64
			for i := 0; i < b.N; i++ {
				res := experiment.Table1()
				r = res.Rows[ri].R
				gamma = res.Rows[ri].GammaPct
			}
			b.ReportMetric(r, "r")
			if gamma >= 0 {
				b.ReportMetric(gamma, "gamma-pct")
			}
			b.ReportMetric(row.RunTimeSec, "runtime-s")
		})
	}
}

// BenchmarkFigure2DAS2 regenerates Figure 2 (DAS-2, 16 nodes, r=37).
func BenchmarkFigure2DAS2(b *testing.B) { runCells(b, experiment.Figure2) }

// BenchmarkFigure3Meteor regenerates Figure 3 (Meteor, 16 nodes, r=46).
func BenchmarkFigure3Meteor(b *testing.B) { runCells(b, experiment.Figure3) }

// BenchmarkFigure4Mixed regenerates Figure 4 (8 DAS-2 + 8 Meteor nodes).
func BenchmarkFigure4Mixed(b *testing.B) { runCells(b, experiment.Figure4) }

// BenchmarkCaseStudyMPEG regenerates the §5.2 case study (GRAIL, 7 CPUs,
// non-dedicated, γ≈20%, r=13.5).
func BenchmarkCaseStudyMPEG(b *testing.B) { runCells(b, experiment.CaseStudy) }

// --- Ablations -----------------------------------------------------------

// ablationRun executes one algorithm on one platform/app multiple times
// — fanned across the worker pool, collected in run order — and returns
// the mean makespan.
func ablationRun(b *testing.B, platform *model.Platform, app *model.Application,
	mk func() dls.Algorithm, gcfg func(seed uint64) grid.Config, ecfg engine.Config) float64 {
	b.Helper()
	spans := make([]float64, benchRuns)
	err := experiment.RunAll(benchRuns, 0, func(run int, r *experiment.Run) {
		seed := uint64(7000 + run*37)
		*r = experiment.Run{Platform: platform, App: app, Algorithm: mk(),
			Grid: grid.Config{Seed: seed}, Engine: ecfg}
		if gcfg != nil {
			r.Grid = gcfg(seed)
		}
	}, func(run int, _ *experiment.Run, tr *trace.Trace, err error) error {
		if err == nil {
			spans[run] = tr.Makespan()
		}
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	return stats.Mean(spans)
}

// BenchmarkAblationRUMRSwitch compares RUMR's switch policies at the two
// γ regimes: online discovery (the paper's failing variant at moderate
// γ), the fixed 80/20 split, and the oracle split the paper proposes as
// future work ("the magnitude of the uncertainty could be learned from
// past application executions").
func BenchmarkAblationRUMRSwitch(b *testing.B) {
	platform := workload.DAS2(16)
	for _, gamma := range []float64{0.10, 0.25} {
		app := workload.Synthetic(gamma)
		variants := map[string]func() dls.Algorithm{
			"online":   func() dls.Algorithm { return dls.NewRUMR() },
			"fixed":    func() dls.Algorithm { return dls.NewFixedRUMR() },
			"oracle":   func() dls.Algorithm { return dls.NewOracleRUMR(gamma) },
			"adaptive": func() dls.Algorithm { return dls.NewAdaptiveRUMR() },
		}
		for _, name := range []string{"online", "fixed", "oracle", "adaptive"} {
			mk := variants[name]
			b.Run(fmt.Sprintf("%s/γ=%g%%", name, gamma*100), func(b *testing.B) {
				var mean float64
				for i := 0; i < b.N; i++ {
					mean = ablationRun(b, platform, app, mk, nil, engine.Config{ProbeLoad: 200})
				}
				b.ReportMetric(mean, "makespan-s")
			})
		}
	}
}

// BenchmarkAblationProbe quantifies what resource information is worth:
// UMR with the in-band probing round, with oracle estimates (free,
// perfect information), with probing disabled (blind equal-speed
// estimates), and with a biased probe file (+20% unrepresentative cost,
// §3.5's "representative may mean close to the average case").
func BenchmarkAblationProbe(b *testing.B) {
	platform := workload.Mixed(8, 8)
	app := workload.Synthetic(0)
	cases := []struct {
		name string
		gcfg func(seed uint64) grid.Config
		ecfg engine.Config
	}{
		{"probing", nil, engine.Config{ProbeLoad: 200}},
		{"oracle", nil, engine.Config{Oracle: true}},
		{"blind", nil, engine.Config{DisableProbing: true}},
		{"biased+20%", func(seed uint64) grid.Config {
			return grid.Config{Seed: seed, ProbeBias: 1.2}
		}, engine.Config{ProbeLoad: 200}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				mean = ablationRun(b, platform, app,
					func() dls.Algorithm { return dls.NewUMR() }, c.gcfg, c.ecfg)
			}
			b.ReportMetric(mean, "makespan-s")
		})
	}
}

// BenchmarkAblationUncertainty contrasts the two γ aggregation models
// (DESIGN.md "Uncertainty model"): per-chunk correlated noise (default,
// matches the paper's observations) versus independent per-unit noise
// whose chunk-level CV vanishes as γ/√k.
func BenchmarkAblationUncertainty(b *testing.B) {
	platform := workload.DAS2(16)
	for _, mode := range []model.UncertaintyMode{model.PerChunk, model.PerUnit} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			app := workload.Synthetic(0.10)
			app.Uncertainty = mode
			var mean float64
			for i := 0; i < b.N; i++ {
				mean = ablationRun(b, platform, app,
					func() dls.Algorithm { return dls.NewUMR() }, nil, engine.Config{ProbeLoad: 200})
			}
			b.ReportMetric(mean, "makespan-s")
		})
	}
}

// BenchmarkAblationSerialization quantifies §4.2's observation that the
// serialized master uplink is why communication matters even at r ≫ 1:
// with an idealized parallel uplink, SIMPLE-1's penalty nearly vanishes.
func BenchmarkAblationSerialization(b *testing.B) {
	platform := workload.DAS2(16)
	app := workload.Synthetic(0)
	for _, c := range []struct {
		name     string
		parallel bool
	}{{"serialized", false}, {"parallel", true}} {
		c := c
		for _, algName := range []string{"simple-1", "umr"} {
			algName := algName
			b.Run(c.name+"/"+algName, func(b *testing.B) {
				var mean float64
				for i := 0; i < b.N; i++ {
					mean = ablationRun(b, platform, app,
						func() dls.Algorithm { a, _ := dls.New(algName); return a },
						nil, engine.Config{ProbeLoad: 200, ParallelUplink: c.parallel})
				}
				b.ReportMetric(mean, "makespan-s")
			})
		}
	}
}

// BenchmarkAblationWFAdaptation isolates the value of §3.6's online
// speed refinement by running weighted factoring with and without it on
// the noisy case-study platform.
func BenchmarkAblationWFAdaptation(b *testing.B) {
	platform := workload.GRAIL()
	app := workload.CaseStudy()
	for _, c := range []struct {
		name     string
		adaptive bool
	}{{"adaptive", true}, {"static", false}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				mean = ablationRun(b, platform, app, func() dls.Algorithm {
					wf := dls.NewWeightedFactoring()
					wf.Adaptive = c.adaptive
					return wf
				}, nil, engine.Config{ProbeLoad: workload.CaseStudyProbeLoad})
			}
			b.ReportMetric(mean, "makespan-s")
		})
	}
}

// BenchmarkAblationBatchQueue studies what the paper's node dedication
// hid: with batch-scheduler cycle quantization on every chunk launch,
// many-round schedules pay the cycle once per chunk, shifting the
// UMR-vs-SIMPLE trade-off.
func BenchmarkAblationBatchQueue(b *testing.B) {
	for _, cycle := range []float64{0, 15, 60} {
		cycle := cycle
		platform := workload.DAS2(16)
		if cycle > 0 {
			for i := range platform.Workers {
				platform.Workers[i].Batch = &model.BatchQueue{CycleInterval: units.Seconds(cycle)}
			}
		}
		app := workload.Synthetic(0)
		for _, algName := range []string{"umr", "simple-1", "fixed-rumr"} {
			algName := algName
			b.Run(fmt.Sprintf("cycle=%.0fs/%s", cycle, algName), func(b *testing.B) {
				var mean float64
				for i := 0; i < b.N; i++ {
					mean = ablationRun(b, platform, app,
						func() dls.Algorithm { a, _ := dls.New(algName); return a },
						nil, engine.Config{ProbeLoad: 200})
				}
				b.ReportMetric(mean, "makespan-s")
			})
		}
	}
}

// BenchmarkAblationOutputTransfers exercises the output path ([37]'s
// "affine costs and output data transfers" extension): the application
// returns output proportional to its input, moved on the downlink.
// Return transfers extend the tail — the last chunks' outputs arrive
// after their computation — so factoring's small final chunks pay less
// than UMR's large ones.
func BenchmarkAblationOutputTransfers(b *testing.B) {
	platform := workload.DAS2(16)
	for _, outFrac := range []float64{0, 0.5} {
		outFrac := outFrac
		for _, algName := range []string{"umr", "wf", "fixed-rumr"} {
			algName := algName
			b.Run(fmt.Sprintf("output=%.0f%%/%s", outFrac*100, algName), func(b *testing.B) {
				app := workload.Synthetic(0)
				app.OutputBytesPerUnit = units.Bytes(outFrac * float64(app.BytesPerUnit))
				var mean float64
				for i := 0; i < b.N; i++ {
					mean = ablationRun(b, platform, app,
						func() dls.Algorithm { a, _ := dls.New(algName); return a },
						nil, engine.Config{ProbeLoad: 200})
				}
				b.ReportMetric(mean, "makespan-s")
			})
		}
	}
}

// TestTraceDisabledAllocFree pins the disabled configuration at zero
// allocations: every span operation against a nil collector, and every
// operation under a zero trace id, must be an inert value path.
func TestTraceDisabledAllocFree(t *testing.T) {
	var nilCol *otrace.Collector
	col := otrace.New(64)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := nilCol.Begin(1, 0, "x")
		sp.End(nil)
		nilCol.RecordSince(1, 0, "x", 0, nil)
		nilCol.RecordSpan(1, 2, 0, "x", 0, 1, true, "")
		zsp := col.Begin(0, 0, "y")
		zsp.End(nil)
		col.RecordSince(0, 0, "y", 0, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f times per op, want 0", allocs)
	}
}
