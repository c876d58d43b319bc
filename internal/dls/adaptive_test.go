package dls

import (
	"testing"

	"apstdv/internal/model"
)

func TestAdaptiveRUMRCoversLoad(t *testing.T) {
	a := NewAdaptiveRUMR()
	f := newFakeEngine(das2Estimates(16), 240000, 10)
	if err := f.run(a); err != nil {
		t.Fatal(err)
	}
	if !nearly(f.totalDispatched(), 240000, 1e-6) {
		t.Errorf("dispatched %.1f of 240000", f.totalDispatched())
	}
}

func TestAdaptiveRUMRNoNoiseStaysUMRLike(t *testing.T) {
	// With deterministic observations γ̂ = 0 and the re-plans reproduce
	// the same cost model, so no factoring phase is entered and the
	// makespan stays at UMR's level.
	a := NewAdaptiveRUMR()
	fa := newFakeEngine(das2Estimates(16), 240000, 10)
	if err := fa.run(a); err != nil {
		t.Fatal(err)
	}
	if a.Switched() {
		t.Error("adaptive RUMR factored with zero noise")
	}
	u := NewUMR()
	fu := newFakeEngine(das2Estimates(16), 240000, 10)
	if err := fu.run(u); err != nil {
		t.Fatal(err)
	}
	if fa.makespan > fu.makespan*1.05 {
		t.Errorf("adaptive RUMR %.0f much worse than UMR %.0f at γ=0", fa.makespan, fu.makespan)
	}
}

func TestAdaptiveRUMRRepairsLateSwitch(t *testing.T) {
	// The same γ̂≈10% signal that plain RUMR cannot act on (the committed
	// geometric tail) must trigger the adaptive variant's switch, because
	// its re-plans measure the factoring share against the remaining
	// load. This is the §6 future-work claim made testable.
	drive := func(alg Algorithm) (switched func() bool) {
		if err := alg.Plan(Plan{TotalLoad: 240000, MinChunk: 10, Workers: das2Estimates(16)}); err != nil {
			t.Fatal(err)
		}
		st := State{Remaining: 240000, Pending: make([]float64, 16), PendingChunks: make([]int, 16)}
		obs := 0
		for {
			d, ok := alg.Next(st)
			if !ok {
				break
			}
			size := d.Size
			if size > st.Remaining {
				size = st.Remaining
			}
			alg.Dispatched(d.Worker, d.Size, size)
			st.Remaining -= size
			for k := 0; k < 2; k++ {
				perUnit := 0.355
				if (obs/16)%2 == 1 {
					perUnit = 0.445
				}
				alg.Observe(Observation{Worker: obs % 16, Size: 100, CompStart: 0, CompEnd: 0.7 + 100*perUnit})
				obs++
			}
			if st.Remaining <= 0 {
				break
			}
		}
		switch v := alg.(type) {
		case *RUMR:
			return v.Switched
		case *AdaptiveRUMR:
			return v.Switched
		}
		t.Fatal("unknown algorithm type")
		return nil
	}
	plain := drive(NewRUMR())
	if plain() {
		t.Error("plain RUMR switched — the pathology should prevent it")
	}
	adaptive := drive(NewAdaptiveRUMR())
	if !adaptive() {
		t.Error("adaptive RUMR failed to switch — re-planning should make the switch reachable")
	}
}

func TestAdaptiveRUMRRePlansWithObservedSpeeds(t *testing.T) {
	a := NewAdaptiveRUMR()
	if err := a.Plan(Plan{TotalLoad: 240000, MinChunk: 10, Workers: das2Estimates(4)}); err != nil {
		t.Fatal(err)
	}
	// Report worker 0 consistently 2x slower than probed.
	for i := 0; i < 10; i++ {
		a.Observe(Observation{Worker: 0, Size: 100, CompStart: 0, CompEnd: 0.7 + 100*0.804})
	}
	p := a.plan
	if p.Workers[0].UnitComp < 0.7 {
		t.Errorf("worker 0 estimate %.3f did not move toward observed 0.804", p.Workers[0].UnitComp)
	}
	if p.Workers[1].UnitComp != 0.402 {
		t.Errorf("worker 1 estimate %.3f changed without observations", p.Workers[1].UnitComp)
	}
}

// TestAdaptiveRUMRLeavesCallerEstimatesAlone: the engine plans over a
// slice it also derives stage deadlines from, so folding recalibrations
// and observations into the platform view must not write through to it.
func TestAdaptiveRUMRLeavesCallerEstimatesAlone(t *testing.T) {
	ests := das2Estimates(4)
	before := append([]model.Estimate(nil), ests...)
	a := NewAdaptiveRUMR()
	if err := a.Plan(Plan{TotalLoad: 240000, MinChunk: 10, Workers: ests}); err != nil {
		t.Fatal(err)
	}
	a.Recalibrate(1, 20, 5)
	a.Observe(Observation{Worker: 2, Size: 100, CompStart: 0, CompEnd: 0.7 + 100*0.804})
	for w := range ests {
		if ests[w] != before[w] {
			t.Errorf("worker %d: the caller's estimate became %+v, was %+v", w, ests[w], before[w])
		}
	}
	if got := a.plan.Workers[1]; got.CommLatency == before[1].CommLatency || got.CompLatency == before[1].CompLatency {
		t.Errorf("recalibration did not reach adaptive RUMR's own view: %+v", got)
	}
}

func TestAdaptiveRUMRRegistry(t *testing.T) {
	for _, name := range []string{"adaptive-rumr", "arumr"} {
		alg, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if alg.Name() != "adaptive-rumr" {
			t.Errorf("New(%q).Name() = %q", name, alg.Name())
		}
	}
}
