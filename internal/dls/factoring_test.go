package dls

import (
	"math"
	"testing"
)

func TestWFChunkSizesHalveAcrossRounds(t *testing.T) {
	// Drive WF and verify the dispatched sizes fall in (roughly) halving
	// plateaus: each round's chunks are near half the previous round's.
	ests := homogeneousEstimates(4, 0.001, 0.01, 0.4, 0.01)
	f := newFakeEngine(ests, 16000, 1)
	wf := NewWeightedFactoring()
	if err := f.run(wf); err != nil {
		t.Fatal(err)
	}
	// First four chunks: W/(2N) = 2000 each.
	for i := 0; i < 4; i++ {
		if !nearly(f.dispatches[i].Size, 2000, 1e-9) {
			t.Errorf("round 0 chunk %d = %.1f, want 2000", i, f.dispatches[i].Size)
		}
	}
	// Next round: remaining 8000 → batch 4000 → chunks 1000.
	for i := 4; i < 8; i++ {
		if !nearly(f.dispatches[i].Size, 1000, 1e-9) {
			t.Errorf("round 1 chunk %d = %.1f, want 1000", i, f.dispatches[i].Size)
		}
	}
}

func TestWFWeightsProportionalToSpeed(t *testing.T) {
	// A worker twice as fast receives twice the chunk.
	ests := homogeneousEstimates(2, 0.001, 0.01, 0.4, 0.01)
	ests[1].UnitComp = 0.2 // 2x faster
	wf := NewWeightedFactoring()
	if err := wf.Plan(Plan{TotalLoad: 3000, MinChunk: 1, Workers: ests}); err != nil {
		t.Fatal(err)
	}
	st := State{Remaining: 3000, Pending: make([]float64, 2), PendingChunks: make([]int, 2)}
	d0, ok := wf.Next(st)
	if !ok {
		t.Fatal("no first decision")
	}
	wf.Dispatched(d0.Worker, d0.Size, d0.Size)
	st.Pending[d0.Worker] += d0.Size
	st.PendingChunks[d0.Worker]++
	st.Remaining -= d0.Size
	d1, ok := wf.Next(st)
	if !ok {
		t.Fatal("no second decision")
	}
	sizes := map[int]float64{d0.Worker: d0.Size, d1.Worker: d1.Size}
	if math.Abs(sizes[1]/sizes[0]-2) > 1e-9 {
		t.Errorf("fast worker chunk %.1f vs slow %.1f, want 2:1", sizes[1], sizes[0])
	}
	// Batch = 1500 split 1:2 → 500 and 1000.
	if !nearly(sizes[0], 500, 1e-9) || !nearly(sizes[1], 1000, 1e-9) {
		t.Errorf("sizes %v, want 500/1000", sizes)
	}
}

func TestWFRespectsBufferLimit(t *testing.T) {
	ests := homogeneousEstimates(2, 0.001, 0.01, 0.4, 0.01)
	wf := NewWeightedFactoring()
	if err := wf.Plan(Plan{TotalLoad: 10000, MinChunk: 1, Workers: ests}); err != nil {
		t.Fatal(err)
	}
	st := State{
		Remaining:     5000,
		Pending:       []float64{100, 100},
		PendingChunks: []int{2, 2}, // both saturated
	}
	if _, ok := wf.Next(st); ok {
		t.Error("WF dispatched to a saturated worker")
	}
	st.PendingChunks[1] = 1
	d, ok := wf.Next(st)
	if !ok || d.Worker != 1 {
		t.Errorf("WF should serve the only eligible worker 1, got %v ok=%v", d, ok)
	}
}

func TestWFPicksStarvingWorkerFirst(t *testing.T) {
	ests := homogeneousEstimates(3, 0.001, 0.01, 0.4, 0.01)
	wf := NewWeightedFactoring()
	if err := wf.Plan(Plan{TotalLoad: 10000, MinChunk: 1, Workers: ests}); err != nil {
		t.Fatal(err)
	}
	st := State{
		Remaining:     5000,
		Pending:       []float64{300, 50, 200},
		PendingChunks: []int{1, 1, 1},
	}
	d, ok := wf.Next(st)
	if !ok || d.Worker != 1 {
		t.Errorf("want worker 1 (least buffered work), got %v", d)
	}
}

func TestWFAdaptationShiftsWeights(t *testing.T) {
	// Feed observations showing worker 0 is twice as slow as probed;
	// its weight must shrink.
	ests := homogeneousEstimates(2, 0.001, 0.01, 0.4, 0.01)
	wf := NewWeightedFactoring()
	if err := wf.Plan(Plan{TotalLoad: 10000, MinChunk: 1, Workers: ests}); err != nil {
		t.Fatal(err)
	}
	before := wf.weight(0)
	for i := 0; i < 20; i++ {
		wf.Observe(Observation{
			Worker: 0, Size: 100,
			CompStart: 0, CompEnd: 0.01 + 100*0.8, // 0.8 s/unit observed
		})
	}
	after := wf.weight(0)
	if after >= before {
		t.Errorf("weight did not shrink after slow observations: %.3f → %.3f", before, after)
	}
	if math.Abs(after-1.0/3) > 0.05 {
		t.Errorf("weight should approach 1/3 for a 2x-slower worker, got %.3f", after)
	}
}

func TestWFStaticIgnoresObservations(t *testing.T) {
	ests := homogeneousEstimates(2, 0.001, 0.01, 0.4, 0.01)
	wf := NewWeightedFactoring()
	wf.Adaptive = false
	if err := wf.Plan(Plan{TotalLoad: 10000, MinChunk: 1, Workers: ests}); err != nil {
		t.Fatal(err)
	}
	before := wf.weight(0)
	wf.Observe(Observation{Worker: 0, Size: 100, CompStart: 0, CompEnd: 100})
	if wf.weight(0) != before {
		t.Error("static WF adapted")
	}
	if wf.Name() != "wf-static" {
		t.Errorf("name = %q", wf.Name())
	}
}

func TestWFIgnoresProbeObservations(t *testing.T) {
	ests := homogeneousEstimates(2, 0.001, 0.01, 0.4, 0.01)
	wf := NewWeightedFactoring()
	if err := wf.Plan(Plan{TotalLoad: 10000, MinChunk: 1, Workers: ests}); err != nil {
		t.Fatal(err)
	}
	before := wf.weight(0)
	wf.Observe(Observation{Worker: 0, Size: 100, Probe: true, CompStart: 0, CompEnd: 1000})
	if wf.weight(0) != before {
		t.Error("probe observation changed the weights")
	}
}

func TestMinFactoringChunkLinkFloor(t *testing.T) {
	// DAS-2 numbers: floor = N·nl/(p − N·c) = 16·6.4/(0.402−16·0.010870)
	ests := das2Estimates(16)
	p := Plan{TotalLoad: 240000, MinChunk: 10, Workers: ests}
	got := minFactoringChunk(p)
	c := 1000.0 / 92e3
	want := 16 * 6.4 / (0.402 - 16*c)
	if !nearly(got, want, 1e-9) {
		t.Errorf("floor = %.1f, want %.1f", got, want)
	}
}

func TestMinFactoringChunkCapped(t *testing.T) {
	// Communication-bound platform: denominator ≤ 0 → cap at W/(8N).
	ests := homogeneousEstimates(8, 0.5, 1, 0.4, 0.1)
	p := Plan{TotalLoad: 8000, MinChunk: 1, Workers: ests}
	got := minFactoringChunk(p)
	if !nearly(got, 8000.0/(8*8), 1e-9) {
		t.Errorf("floor = %.2f, want cap %.2f", got, 8000.0/64)
	}
}

func TestMinFactoringChunkRespectsUserMinimum(t *testing.T) {
	ests := homogeneousEstimates(4, 0.0001, 0.001, 0.4, 0.001)
	p := Plan{TotalLoad: 10000, MinChunk: 50, Workers: ests}
	if got := minFactoringChunk(p); got < 50 {
		t.Errorf("floor %.2f below the division granularity 50", got)
	}
}

func TestWFTerminalDrainsEverything(t *testing.T) {
	// A load barely above the floor must still fully dispatch.
	ests := homogeneousEstimates(4, 0.001, 0.01, 0.4, 0.01)
	f := newFakeEngine(ests, 13, 1)
	if err := f.run(NewWeightedFactoring()); err != nil {
		t.Fatal(err)
	}
	if !nearly(f.totalDispatched(), 13, 1e-9) {
		t.Errorf("dispatched %.3f of 13", f.totalDispatched())
	}
}
