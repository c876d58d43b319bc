package dls

import "testing"

func TestFixedRUMRAlwaysReachesPhase2(t *testing.T) {
	f := NewFixedRUMR()
	eng := newFakeEngine(das2Estimates(16), 240000, 10)
	if err := eng.run(f); err != nil {
		t.Fatal(err)
	}
	if !f.Switched() {
		t.Error("Fixed-RUMR never entered its factoring phase")
	}
	if !nearly(eng.totalDispatched(), 240000, 1e-6) {
		t.Errorf("dispatched %.1f", eng.totalDispatched())
	}
}

func TestFixedRUMRPhase1CoversEightyPercent(t *testing.T) {
	f := NewFixedRUMR()
	if err := f.Plan(Plan{TotalLoad: 240000, MinChunk: 10, Workers: das2Estimates(16)}); err != nil {
		t.Fatal(err)
	}
	if got := sumSizes(f.player.seq); !nearly(got, 192000, 1e-9) {
		t.Errorf("phase 1 plans %.1f, want 192000 (80%%)", got)
	}
}

func TestFixedRUMRPhase2EndsWithSmallChunks(t *testing.T) {
	// The whole point of the factoring phase: the final chunks must be
	// much smaller than the UMR phase's largest.
	eng := newFakeEngine(das2Estimates(16), 240000, 10)
	f := NewFixedRUMR()
	if err := eng.run(f); err != nil {
		t.Fatal(err)
	}
	n := len(eng.dispatches)
	largest := 0.0
	for _, d := range eng.dispatches {
		if d.Size > largest {
			largest = d.Size
		}
	}
	lastFew := eng.dispatches[n-8:]
	for _, d := range lastFew {
		if d.Size > largest/4 {
			t.Errorf("tail chunk of %.0f is not small versus the largest %.0f", d.Size, largest)
		}
	}
}

func TestFixedRUMRObservationsFeedPhase2Weights(t *testing.T) {
	f := NewFixedRUMR()
	if err := f.Plan(Plan{TotalLoad: 10000, MinChunk: 1, Workers: das2Estimates(2)}); err != nil {
		t.Fatal(err)
	}
	before := f.factoring.weight(0)
	for i := 0; i < 20; i++ {
		f.Observe(Observation{Worker: 0, Size: 100, CompStart: 0, CompEnd: 0.7 + 100*0.8})
	}
	if f.factoring.weight(0) >= before {
		t.Error("phase-1 observations did not adapt the phase-2 weights")
	}
}

func TestFixedRUMRName(t *testing.T) {
	if NewFixedRUMR().Name() != "fixed-rumr" {
		t.Errorf("name = %q", NewFixedRUMR().Name())
	}
}
