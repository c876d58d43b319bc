package grid

import (
	"math"
	"testing"

	"apstdv/internal/model"
	"apstdv/internal/rng"
	"apstdv/internal/stats"
)

func testPlatform(n int) *model.Platform {
	p := &model.Platform{Name: "test"}
	for i := 0; i < n; i++ {
		p.Workers = append(p.Workers, model.Worker{
			ID: i, Name: "w", Cluster: "c",
			Speed: 1, CompLatency: 0.5,
			Bandwidth: 1e6, CommLatency: 2,
		})
	}
	return p
}

func testApp(gamma float64) *model.Application {
	return &model.Application{
		Name: "app", TotalLoad: 1000, BytesPerUnit: 1000,
		UnitCost: 0.1, Gamma: gamma, MinChunk: 1,
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(&model.Platform{}, testApp(0), Config{}); err == nil {
		t.Error("empty platform accepted")
	}
	bad := testApp(0)
	bad.UnitCost = 0
	if _, err := New(testPlatform(1), bad, Config{}); err == nil {
		t.Error("invalid app accepted")
	}
	if _, err := New(testPlatform(1), testApp(0), Config{ProbeBias: -1}); err == nil {
		t.Error("negative probe bias accepted")
	}
}

func TestTransferDurationExact(t *testing.T) {
	b, err := New(testPlatform(1), testApp(0), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var start, end float64
	b.Transfer(0, 500000, func(s, e float64, _ error) { start, end = s, e })
	b.Run()
	// 2 s latency + 500000/1e6 = 0.5 s.
	if start != 0 || math.Abs(end-2.5) > 1e-12 {
		t.Errorf("transfer = [%g, %g], want [0, 2.5]", start, end)
	}
}

func TestEmptyTransferMeasuresLatency(t *testing.T) {
	b, _ := New(testPlatform(1), testApp(0), Config{Seed: 1})
	var dur float64
	b.Transfer(0, 0, func(s, e float64, _ error) { dur = e - s })
	b.Run()
	if math.Abs(dur-2) > 1e-12 {
		t.Errorf("empty transfer = %g, want the 2 s latency", dur)
	}
}

func TestExecuteDurationExact(t *testing.T) {
	b, _ := New(testPlatform(1), testApp(0), Config{Seed: 1})
	var dur float64
	b.Execute(0, 100, false, func(s, e float64, _ error) { dur = e - s })
	b.Run()
	// 0.5 s latency + 100 × 0.1 s = 10.5 s, no noise at γ=0.
	if math.Abs(dur-10.5) > 1e-12 {
		t.Errorf("execute = %g, want 10.5", dur)
	}
}

func TestNoopExecuteMeasuresLatency(t *testing.T) {
	b, _ := New(testPlatform(1), testApp(0.5), Config{Seed: 1})
	var dur float64
	b.Execute(0, 0, true, func(s, e float64, _ error) { dur = e - s })
	b.Run()
	if math.Abs(dur-0.5) > 1e-12 {
		t.Errorf("no-op = %g, want the 0.5 s latency", dur)
	}
}

func TestSpeedScalesCompute(t *testing.T) {
	p := testPlatform(2)
	p.Workers[1].Speed = 2
	b, _ := New(p, testApp(0), Config{Seed: 1})
	var d0, d1 float64
	b.Execute(0, 100, false, func(s, e float64, _ error) { d0 = e - s })
	b.Execute(1, 100, false, func(s, e float64, _ error) { d1 = e - s })
	b.Run()
	if math.Abs((d0-0.5)/(d1-0.5)-2) > 1e-9 {
		t.Errorf("2x speed worker: durations %g vs %g", d0, d1)
	}
}

func TestWorkerQueueFIFO(t *testing.T) {
	b, _ := New(testPlatform(1), testApp(0), Config{Seed: 1})
	var ends []float64
	for i := 0; i < 3; i++ {
		b.Execute(0, 100, false, func(s, e float64, _ error) { ends = append(ends, e) })
	}
	b.Run()
	want := []float64{10.5, 21, 31.5}
	for i, e := range ends {
		if math.Abs(e-want[i]) > 1e-9 {
			t.Errorf("chunk %d ends at %g, want %g", i, e, want[i])
		}
	}
}

func TestComputeNoiseStatistics(t *testing.T) {
	app := testApp(0.10)
	b, _ := New(testPlatform(1), app, Config{Seed: 7})
	var durs []float64
	for i := 0; i < 2000; i++ {
		b.Execute(0, 100, false, func(s, e float64, _ error) { durs = append(durs, e-s-0.5) })
	}
	b.Run()
	cv := stats.CV(durs)
	if math.Abs(cv-0.10) > 0.01 {
		t.Errorf("per-chunk compute CV = %.3f, want ≈0.10", cv)
	}
	mean := stats.Mean(durs)
	if math.Abs(mean-10)/10 > 0.02 {
		t.Errorf("mean compute = %.3f, want ≈10", mean)
	}
}

func TestPerUnitUncertaintyShrinksWithChunkSize(t *testing.T) {
	app := testApp(0.10)
	app.Uncertainty = model.PerUnit
	b, _ := New(testPlatform(1), app, Config{Seed: 8})
	var durs []float64
	for i := 0; i < 1000; i++ {
		b.Execute(0, 100, false, func(s, e float64, _ error) { durs = append(durs, e-s-0.5) })
	}
	b.Run()
	cv := stats.CV(durs)
	want := 0.10 / math.Sqrt(100)
	if math.Abs(cv-want) > 0.005 {
		t.Errorf("per-unit CV for 100-unit chunks = %.4f, want ≈%.3f", cv, want)
	}
}

func TestProbeExecutionsAreNoiseFree(t *testing.T) {
	app := testApp(0.25)
	b, _ := New(testPlatform(1), app, Config{Seed: 9})
	var durs []float64
	for i := 0; i < 50; i++ {
		b.Execute(0, 100, true, func(s, e float64, _ error) { durs = append(durs, e-s) })
	}
	b.Run()
	for _, d := range durs {
		if math.Abs(d-10.5) > 1e-9 {
			t.Fatalf("probe execute = %g, want exactly 10.5 (fixed probe file)", d)
		}
	}
}

func TestProbeBias(t *testing.T) {
	app := testApp(0)
	b, _ := New(testPlatform(1), app, Config{Seed: 1, ProbeBias: 1.2})
	var probe, real float64
	b.Execute(0, 100, true, func(s, e float64, _ error) { probe = e - s })
	b.Execute(0, 100, false, func(s, e float64, _ error) { real = e - s })
	b.Run()
	if math.Abs((probe-0.5)/(real-0.5)-1.2) > 1e-9 {
		t.Errorf("probe bias not applied: probe %g vs real %g", probe, real)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		b, _ := New(testPlatform(2), testApp(0.15), Config{Seed: 42})
		var out []float64
		for i := 0; i < 20; i++ {
			b.Execute(i%2, 50, false, func(s, e float64, _ error) { out = append(out, e) })
		}
		b.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestSeedChangesNoise(t *testing.T) {
	run := func(seed uint64) float64 {
		b, _ := New(testPlatform(1), testApp(0.15), Config{Seed: seed})
		var end float64
		b.Execute(0, 50, false, func(s, e float64, _ error) { end = e })
		b.Run()
		return end
	}
	if run(1) == run(2) {
		t.Error("different seeds produced identical noise")
	}
}

func TestReturnOutputZeroBytesImmediate(t *testing.T) {
	b, _ := New(testPlatform(1), testApp(0), Config{Seed: 1})
	var called bool
	b.ReturnOutput(0, 0, func(s, e float64, _ error) {
		called = true
		if s != e {
			t.Errorf("zero output took [%g, %g]", s, e)
		}
	})
	b.Run()
	if !called {
		t.Error("zero-output callback never fired")
	}
}

func TestReturnOutputSerializesOnDownlink(t *testing.T) {
	b, _ := New(testPlatform(2), testApp(0), Config{Seed: 1})
	var ends []float64
	b.ReturnOutput(0, 1e6, func(s, e float64, _ error) { ends = append(ends, e) })
	b.ReturnOutput(1, 1e6, func(s, e float64, _ error) { ends = append(ends, e) })
	b.Run()
	// Each output: 2 s latency + 1 s transfer; serialized: 3 then 6.
	if len(ends) != 2 || math.Abs(ends[0]-3) > 1e-9 || math.Abs(ends[1]-6) > 1e-9 {
		t.Errorf("downlink ends = %v, want [3 6]", ends)
	}
}

func TestBackgroundLoadStretchesCompute(t *testing.T) {
	p := testPlatform(1)
	p.Workers[0].Background = &model.BackgroundLoad{MeanOn: 50, MeanOff: 50, Share: 0.5}
	b, _ := New(p, testApp(0), Config{Seed: 11})
	total := 0.0
	n := 200
	done := 0
	for i := 0; i < n; i++ {
		b.Execute(0, 100, false, func(s, e float64, _ error) {
			total += e - s - 0.5
			done++
		})
	}
	b.Run()
	if done != n {
		t.Fatalf("only %d/%d executions completed", done, n)
	}
	mean := total / float64(n)
	// Stationary available CPU = 1 − 0.5·0.5 = 0.75 → mean stretch ≈ 1/0.75.
	want := 10 / 0.75
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("mean stretched compute = %.2f, want ≈%.2f", mean, want)
	}
}

func TestBackgroundLoadConservesWork(t *testing.T) {
	// Stretched durations must never be shorter than the base compute.
	p := testPlatform(1)
	p.Workers[0].Background = &model.BackgroundLoad{MeanOn: 10, MeanOff: 30, Share: 0.9}
	b, _ := New(p, testApp(0), Config{Seed: 12})
	for i := 0; i < 100; i++ {
		b.Execute(0, 100, false, func(s, e float64, _ error) {
			if e-s < 10.5-1e-9 {
				t.Errorf("stretched duration %g below base 10.5", e-s)
			}
		})
	}
	b.Run()
}

// newBGProcess builds a worker's background process the way
// Backend.Reset derives it from its source.
func newBGProcess(cfg *model.BackgroundLoad, src *rng.Source) *bgProcess {
	p := &bgProcess{cfg: cfg, src: src}
	p.reset()
	return p
}

func TestBGProcessMonotonicTimeline(t *testing.T) {
	cfg := &model.BackgroundLoad{MeanOn: 5, MeanOff: 5, Share: 0.5}
	bp := newBGProcess(cfg, rngStream(13))
	t1 := bp.finish(0, 10)
	t2 := bp.finish(t1, 10)
	if t2 <= 0 {
		t.Error("second query returned non-positive duration")
	}
	if t1 < 10 || t2 < 10 {
		t.Errorf("durations %g, %g below base work 10", t1, t2)
	}
}

func TestWorkersAndNow(t *testing.T) {
	b, _ := New(testPlatform(3), testApp(0), Config{Seed: 1})
	if b.Workers() != 3 {
		t.Errorf("Workers = %d", b.Workers())
	}
	if b.Now() != 0 {
		t.Errorf("initial Now = %g", b.Now())
	}
	b.Transfer(0, 1e6, func(s, e float64, _ error) {})
	b.Run()
	if b.Now() <= 0 {
		t.Error("clock did not advance")
	}
}

func rngStream(seed uint64) *rng.Source { return rng.New(seed) }
