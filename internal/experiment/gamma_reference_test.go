package experiment

// MeasureGamma as it stood before it was rewritten to carve its
// per-worker buckets out of one array, kept verbatim (renamed) as the
// reference TestMeasureGammaMatchesReference holds the new one to, bit
// for bit.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/stats"
	"apstdv/internal/trace"
	"apstdv/internal/workload"
)

// refMeasureGamma estimates the paper's γ from one run's trace: the CV of
// per-unit compute times, normalized per worker (so heterogeneity does
// not masquerade as uncertainty). This is the quantity the case study
// reports as "the average value for γ that was measured ... is 20%".
//
// One pass over the records buckets per-unit costs by worker while the
// per-worker means accumulate; normalization then walks the compact
// buckets instead of rescanning the full trace once per worker.
func refMeasureGamma(tr *trace.Trace, p *model.Platform) float64 {
	perWorker := make([]stats.RunningStats, len(p.Workers))
	costs := make([][]float64, len(p.Workers))
	total := 0
	for _, r := range tr.Records() {
		if r.Probe || r.Size <= 0 || r.Worker < 0 || r.Worker >= len(perWorker) {
			continue
		}
		v := r.ComputeTime() / r.Size
		perWorker[r.Worker].Add(v)
		costs[r.Worker] = append(costs[r.Worker], v)
		total++
	}
	ratios := make([]float64, 0, total)
	for w, rs := range perWorker {
		if rs.N() < 2 || rs.Mean() <= 0 {
			continue
		}
		mean := rs.Mean()
		for _, v := range costs[w] {
			ratios = append(ratios, v/mean)
		}
	}
	return stats.CV(ratios)
}

func sameGamma(t *testing.T, what string, tr *trace.Trace, p *model.Platform) {
	t.Helper()
	got, want := MeasureGamma(tr, p), refMeasureGamma(tr, p)
	// Bit for bit, except that a NaN is a NaN: which operand's payload a
	// NaN/NaN division keeps is the compiler's choice, and nothing reads it.
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("%s (%d records, %d workers): MeasureGamma = %v (%#x), reference %v (%#x)",
			what, tr.Len(), len(p.Workers), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestMeasureGammaMatchesReference holds MeasureGamma to its reference
// bit for bit: on every (γ, algorithm, run) cell of the paper's four
// experiments, which is what Spec.Run measures, and on seeded traces
// with what no run produces — workers outside the platform or with a
// single chunk, zero, negative, NaN and infinite sizes and durations —
// and on either side of MeasureGamma's stack storage: 63 to 65 and 100
// workers, 511 to 513 and 1 000 measured records.
func TestMeasureGammaMatchesReference(t *testing.T) {
	cells := 0
	for _, s := range All() {
		for _, gamma := range s.Gammas {
			app := s.App(gamma)
			for ai := range s.Algorithms() {
				for run := 0; run < s.Runs; run++ {
					backend, err := grid.New(s.Platform, app, grid.Config{Seed: s.Seed + uint64(run)*1000003})
					if err != nil {
						t.Fatal(err)
					}
					tr, err := engine.Execute(context.Background(), engine.Request{
						Backend: backend, Algorithm: s.Algorithms()[ai], App: app, Platform: s.Platform,
						Config: engine.Config{ProbeLoad: s.ProbeLoad},
					})
					if err != nil {
						t.Fatal(err)
					}
					sameGamma(t, s.ID, tr, s.Platform)
					cells++
				}
			}
		}
	}
	if cells != 420 {
		t.Errorf("%d cells; the paper's evaluation has 420", cells)
	}

	rnd := rand.New(rand.NewSource(23))
	odd := []float64{0, math.Copysign(0, -1), -3, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 1e-300}
	draw := func() float64 {
		if rnd.Intn(8) == 0 {
			return odd[rnd.Intn(len(odd))]
		}
		return float64(1+rnd.Intn(400)) / 8
	}
	for i := 0; i < 20000; i++ {
		p := workload.Meteor(1 + rnd.Intn(9))
		tr := trace.New("random", p.Name)
		for n := rnd.Intn(40); n > 0; n-- {
			start := draw()
			tr.Add(trace.Record{
				Worker: rnd.Intn(len(p.Workers)+2) - 1, Probe: rnd.Intn(6) == 0, Failed: rnd.Intn(9) == 0,
				Size: draw(), CompStart: start, CompEnd: start + draw(),
			})
		}
		sameGamma(t, "random", tr, p)
	}

	// Exactly `measured` records count (positive size, not a probe, a
	// worker of the platform), among probes and strays that do not.
	for _, workers := range []int{63, 64, 65, 100} {
		p := workload.DAS2(workers)
		for _, measured := range []int{511, gammaCosts, 513, 1000} {
			tr := trace.New("limits", p.Name)
			for n := 0; n < measured; {
				start := float64(rnd.Intn(4000)) / 8
				r := trace.Record{Worker: rnd.Intn(workers), Size: float64(1+rnd.Intn(400)) / 8,
					CompStart: start, CompEnd: start + float64(1+rnd.Intn(400))/8}
				switch rnd.Intn(10) {
				case 0:
					r.Probe = true
				case 1:
					r.Worker = workers + rnd.Intn(3)
				default:
					n++
				}
				tr.Add(r)
			}
			sameGamma(t, "limits", tr, p)
		}
	}
}
