package dls

import (
	"math"
	"testing"
	"testing/quick"

	"apstdv/internal/model"
	"apstdv/internal/rng"
)

// randomPlan builds a random but valid plan from quick-check inputs.
func randomPlan(seed uint64) Plan {
	src := rng.New(seed)
	n := 1 + src.Intn(12)
	ests := make([]model.Estimate, n)
	for i := range ests {
		ests[i] = model.Estimate{
			Worker:      i,
			UnitComm:    src.Uniform(0.0001, 0.05),
			CommLatency: src.Uniform(0, 10),
			UnitComp:    src.Uniform(0.05, 2),
			CompLatency: src.Uniform(0, 2),
		}
	}
	total := src.Uniform(1000, 500000)
	return Plan{TotalLoad: total, MinChunk: src.Uniform(0, total/float64(n)/20), Workers: ests}
}

// TestPropertyAllAlgorithmsCoverRandomPlatforms drives every algorithm
// over randomized platforms and checks the two invariants that must hold
// regardless of platform shape: all load dispatched, and every chunk
// positive and addressed to a real worker.
func TestPropertyAllAlgorithmsCoverRandomPlatforms(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(seedRaw uint16) bool {
				p := randomPlan(uint64(seedRaw))
				alg, err := New(name)
				if err != nil {
					return false
				}
				eng := newFakeEngine(p.Workers, p.TotalLoad, p.MinChunk)
				if err := eng.run(alg); err != nil {
					t.Logf("seed %d: %v", seedRaw, err)
					return false
				}
				if !nearly(eng.totalDispatched(), p.TotalLoad, 1e-6) {
					t.Logf("seed %d: dispatched %.3f of %.3f", seedRaw, eng.totalDispatched(), p.TotalLoad)
					return false
				}
				for _, d := range eng.dispatches {
					if d.Size <= 0 || d.Worker < 0 || d.Worker >= len(p.Workers) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPropertyUMREqualFinishRandom checks UMR's defining invariant on
// random heterogeneous platforms: within every planned round (except the
// drift-absorbing last one), all workers compute for the same duration.
func TestPropertyUMREqualFinishRandom(t *testing.T) {
	f := func(seedRaw uint16) bool {
		p := randomPlan(uint64(seedRaw) + 77777)
		plan := result(PlanUMRRounds(p, p.TotalLoad))
		if plan.err != nil {
			return false
		}
		rounds := plan.rounds()
		for j, round := range rounds {
			if j == len(rounds)-1 {
				continue
			}
			var t0 float64
			for i, d := range round {
				e := p.Workers[d.Worker]
				dur := e.CompLatency + d.Size*e.UnitComp
				if i == 0 {
					t0 = dur
				} else if !nearly(dur, t0, 1e-6) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyOneRoundEqualFinishRandom checks the one-round equal-finish
// property over random platforms (with worker dropping allowed).
func TestPropertyOneRoundEqualFinishRandom(t *testing.T) {
	f := func(seedRaw uint16) bool {
		p := randomPlan(uint64(seedRaw) + 31337)
		o := NewOneRound()
		if err := o.Plan(p); err != nil {
			return true // infeasible platforms may be rejected
		}
		link := 0.0
		var first float64
		for i, d := range o.seq {
			e := p.Workers[d.Worker]
			link += e.CommLatency + d.Size*e.UnitComm
			finish := link + e.CompLatency + d.Size*e.UnitComp
			if i == 0 {
				first = finish
			} else if !nearly(finish, first, 1e-6) {
				return false
			}
		}
		return nearly(sumSizes(o.seq), p.TotalLoad, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFactoringChunksShrink checks that weighted factoring's
// dispatched chunk sizes never grow over the course of a run on
// homogeneous platforms (the halving-batches invariant; heterogeneous
// weights can reorder sizes across workers within a round).
func TestPropertyFactoringChunksShrink(t *testing.T) {
	f := func(seedRaw uint16) bool {
		src := rng.New(uint64(seedRaw) + 999)
		n := 2 + src.Intn(8)
		ests := homogeneousEstimates(n,
			src.Uniform(0.0001, 0.01), src.Uniform(0, 2),
			src.Uniform(0.1, 1), src.Uniform(0, 0.5))
		total := src.Uniform(5000, 100000)
		eng := newFakeEngine(ests, total, 1)
		if err := eng.run(NewWeightedFactoring()); err != nil {
			return false
		}
		for i := 1; i < len(eng.dispatches); i++ {
			if eng.dispatches[i].Size > eng.dispatches[i-1].Size*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// hostilePlan draws from the regime a wall-clock probe on a busy host
// produces and randomPlan never reaches: latencies from a microsecond to
// minutes against loads as small as one unit, unit costs over seven
// orders of magnitude, and a granularity of nothing, one unit or a
// fiftieth of the load.
func hostilePlan(seed uint64) Plan {
	src := rng.New(seed)
	ests := make([]model.Estimate, 1+src.Intn(8))
	for i := range ests {
		ests[i] = model.Estimate{
			Worker:      i,
			UnitComm:    logUniform(src, 1e-6, 1e1),
			CommLatency: logUniform(src, 1e-6, 1e2),
			UnitComp:    logUniform(src, 1e-6, 1e1),
			CompLatency: logUniform(src, 1e-6, 1e2),
		}
	}
	total := logUniform(src, 1, 1e4)
	return Plan{TotalLoad: total, MinChunk: []float64{0, 1, total / 50}[src.Intn(3)], Workers: ests}
}

// umrFamily names the algorithms built on PlanUMRRounds, which plans
// every valid input: for them a refusal is a failure.
var umrFamily = map[string]bool{"umr": true, "rumr": true, "fixed-rumr": true, "adaptive-rumr": true}

// FuzzPlanConservesOrRefuses is the one contract every registered
// algorithm answers to: given a valid plan, Plan either refuses with an
// error or the algorithm runs to completion on the fake engine,
// dispatching only positive finite sizes to real workers and conserving
// the load to 1e-6 relative. It never panics and never runs on for ever.
// The input is the load, the granularity, and the workers' estimates as
// estimateBytes writes them, each brought into the range randomPlan and
// hostilePlan span between them: loads of 1 to 1e6 units, unit costs of
// 1e-6 to 10 s (communication may be free), latencies of nothing or 1e-6
// to 100 s, a granularity up to the load. A NaN anywhere is left in, and
// Validate must refuse it. Magnitudes beyond that range (1e±100 passes
// Validate) lose the planners' arithmetic to cancellation and are not
// part of the contract.
func FuzzPlanConservesOrRefuses(f *testing.F) {
	for seed := uint64(0); seed < 16; seed++ {
		for _, p := range []Plan{randomPlan(seed), hostilePlan(seed)} {
			f.Add(p.TotalLoad, p.MinChunk, estimateBytes(p.Workers))
		}
	}
	nanEstimate := randomPlan(0)
	nanEstimate.Workers[0].CompLatency = math.NaN()
	f.Add(math.NaN(), 0.0, estimateBytes(randomPlan(0).Workers))
	f.Add(1000.0, math.NaN(), estimateBytes(randomPlan(0).Workers))
	f.Add(1000.0, 0.0, estimateBytes(nanEstimate.Workers))
	f.Fuzz(func(t *testing.T, total, minChunk float64, raw []byte) {
		// within brings v into [lo, hi]; with zero allowed, anything
		// below lo is 0. A NaN stays one, for Validate to refuse.
		sawNaN := false
		within := func(v, lo, hi float64, zero bool) float64 {
			switch {
			case math.IsNaN(v):
				sawNaN = true
			case v > hi:
				return hi
			case v < lo && zero:
				return 0
			case v < lo:
				return lo
			}
			return v
		}
		p := Plan{TotalLoad: within(total, 1, 1e6, false)}
		p.MinChunk = within(minChunk, 1e-6, p.TotalLoad, true)
		p.Workers = estimatesFromBytes(raw, 16)
		for i := range p.Workers {
			e := &p.Workers[i]
			e.UnitComm = within(e.UnitComm, 1e-6, 10, true)
			e.CommLatency = within(e.CommLatency, 1e-6, 100, true)
			e.UnitComp = within(e.UnitComp, 1e-6, 10, false)
			e.CompLatency = within(e.CompLatency, 1e-6, 100, true)
		}
		if sawNaN {
			if p.Validate() == nil {
				t.Fatalf("Validate admitted a NaN: %+v", p)
			}
			return
		}
		if len(p.Workers) == 0 {
			t.Skip()
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("the generator drew an invalid plan: %v", err)
		}
		for _, name := range Names() {
			alg, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := alg.Plan(p); err != nil {
				if umrFamily[name] {
					t.Errorf("%s refused a valid plan: %v\n%+v", name, err, p)
				}
				continue
			}
			eng := newFakeEngine(p.Workers, p.TotalLoad, p.MinChunk)
			if err := eng.run(alg); err != nil {
				t.Errorf("%s: %v\n%+v", name, err, p)
				continue
			}
			if got := eng.totalDispatched(); !nearly(got, p.TotalLoad, 1e-6) {
				t.Errorf("%s dispatched %v of %v\n%+v", name, got, p.TotalLoad, p)
			}
		}
	})
}

// TestValidateRefusesNonFinite: NaN <= 0 and NaN < 0 are both false, so
// a sign check alone admits NaN, and +Inf is positive. A probed estimate
// can be either.
func TestValidateRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, spoil := range map[string]func(*Plan){
			"TotalLoad":   func(p *Plan) { p.TotalLoad = bad },
			"MinChunk":    func(p *Plan) { p.MinChunk = bad },
			"UnitComm":    func(p *Plan) { p.Workers[1].UnitComm = bad },
			"CommLatency": func(p *Plan) { p.Workers[1].CommLatency = bad },
			"UnitComp":    func(p *Plan) { p.Workers[1].UnitComp = bad },
			"CompLatency": func(p *Plan) { p.Workers[1].CompLatency = bad },
		} {
			p := randomPlan(3)
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			spoil(&p)
			if err := p.Validate(); err == nil {
				t.Errorf("Validate admitted %s = %g", name, bad)
			}
			for _, alg := range Names() {
				a, _ := New(alg)
				if err := a.Plan(p); err == nil {
					t.Errorf("%s planned with %s = %g", alg, name, bad)
				}
			}
		}
	}
}
