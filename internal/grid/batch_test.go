package grid

import (
	"math"
	"testing"

	"apstdv/internal/model"
	"apstdv/internal/rng"
	"apstdv/internal/stats"
)

// newBatchState builds a worker's batch state the way Backend.Reset
// derives it from its source.
func newBatchState(cfg *model.BatchQueue, src *rng.Source) *batchState {
	b := &batchState{cfg: cfg, src: src}
	b.reset()
	return b
}

func TestBatchCycleQuantization(t *testing.T) {
	cfg := &model.BatchQueue{CycleInterval: 10}
	bs := newBatchState(cfg, rng.New(1))
	// Jobs start exactly on cycle boundaries: submission + delay must be
	// ≡ cycleOffset (mod 10).
	for _, submit := range []float64{0, 3, 9.9, 10, 27.5, 100} {
		delay := bs.startDelay(submit)
		if delay < 0 || delay > 10+1e-9 {
			t.Fatalf("submit %.1f: delay %.3f outside [0, 10]", submit, delay)
		}
		start := submit + delay
		phase := math.Mod(start-bs.cycleOffset, 10)
		if phase > 1e-9 && phase < 10-1e-9 {
			t.Errorf("submit %.1f starts at %.3f, not on a cycle boundary", submit, start)
		}
	}
}

func TestBatchNoConfigMeansNoDelay(t *testing.T) {
	cfg := &model.BatchQueue{}
	bs := newBatchState(cfg, rng.New(2))
	for _, submit := range []float64{0, 5, 100} {
		if d := bs.startDelay(submit); d != 0 {
			t.Errorf("empty batch config delayed by %g", d)
		}
	}
}

func TestBatchExternalContentionDelays(t *testing.T) {
	// 40% external utilization: delays must be frequent and positive on
	// average.
	cfg := &model.BatchQueue{ExternalRate: 0.02, ExternalMeanHold: 20} // ρ = 0.4
	bs := newBatchState(cfg, rng.New(3))
	delayed := 0
	var total float64
	const n = 2000
	for i := 0; i < n; i++ {
		d := bs.startDelay(float64(i) * 50)
		if d < 0 {
			t.Fatalf("negative delay %g", d)
		}
		if d > 0 {
			delayed++
		}
		total += d
	}
	if delayed == 0 {
		t.Error("no submission ever waited behind external jobs")
	}
	if total/n < 1 {
		t.Errorf("mean external wait %.2f s implausibly low at ρ=0.4", total/n)
	}
}

func TestBatchDispatchJitterStatistics(t *testing.T) {
	cfg := &model.BatchQueue{DispatchJitterCV: 0.5}
	bs := newBatchState(cfg, rng.New(4))
	var delays []float64
	for i := 0; i < 5000; i++ {
		delays = append(delays, bs.startDelay(float64(i)))
	}
	// |Normal(0, 0.5)| has mean 0.5·√(2/π) ≈ 0.399.
	mean := stats.Mean(delays)
	if math.Abs(mean-0.399) > 0.03 {
		t.Errorf("jitter mean %.3f, want ≈0.40", mean)
	}
}

func TestBatchValidation(t *testing.T) {
	bad := []*model.BatchQueue{
		{CycleInterval: -1},
		{DispatchJitterCV: -0.1},
		{ExternalRate: -1},
		{ExternalRate: 0.1, ExternalMeanHold: 0},
		{ExternalRate: 0.1, ExternalMeanHold: 20}, // utilization 2 ≥ 1
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, b)
		}
	}
	good := &model.BatchQueue{CycleInterval: 15, DispatchJitterCV: 0.2, ExternalRate: 0.01, ExternalMeanHold: 30}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestBatchQueueEndToEndSlowsExecution(t *testing.T) {
	// A cluster behind a coarse scheduler cycle must run the same
	// schedule slower than a dedicated one.
	mk := func(batch *model.BatchQueue) float64 {
		p := testPlatform(4)
		for i := range p.Workers {
			p.Workers[i].Batch = batch
		}
		b, err := New(p, testApp(0), Config{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var last float64
		for i := 0; i < 12; i++ {
			b.Execute(i%4, 50, false, func(s, e float64, _ error) {
				if e > last {
					last = e
				}
			})
		}
		b.Run()
		return last
	}
	dedicated := mk(nil)
	batched := mk(&model.BatchQueue{CycleInterval: 15})
	if batched <= dedicated {
		t.Errorf("batch cycles did not slow execution: %.1f vs %.1f", batched, dedicated)
	}
}

func TestBatchDeterminism(t *testing.T) {
	run := func() []float64 {
		cfg := &model.BatchQueue{CycleInterval: 7, ExternalRate: 0.05, ExternalMeanHold: 5, DispatchJitterCV: 0.3}
		bs := newBatchState(cfg, rng.New(9))
		var out []float64
		for i := 0; i < 50; i++ {
			out = append(out, bs.startDelay(float64(i)*13))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("batch state diverged at query %d", i)
		}
	}
}
