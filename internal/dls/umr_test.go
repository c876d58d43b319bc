package dls

import (
	"math"
	"testing"
)

func TestUMRPlanCoversLoad(t *testing.T) {
	p := Plan{TotalLoad: 240000, MinChunk: 10, Workers: das2Estimates(16)}
	seq, _, _, err := PlanUMRRounds(p, p.TotalLoad)
	if err != nil {
		t.Fatal(err)
	}
	if total := sumSizes(seq); !nearly(total, 240000, 1e-9) {
		t.Errorf("rounds cover %.6f of 240000", total)
	}
}

func TestUMRRoundsFollowRecurrenceAndGrow(t *testing.T) {
	// Round sizes must satisfy the UMR pipelining recurrence: the round
	// durations obey T_{j+1} = (T_j − L + B)/A, which on a homogeneous
	// platform makes successive round sizes non-decreasing with the
	// growth compounding toward 1/A (the optimizer may choose a plan
	// whose early rounds sit near the recurrence's fixed point, where
	// growth is slow — that is still a valid UMR schedule).
	p := Plan{TotalLoad: 240000, MinChunk: 10, Workers: das2Estimates(16)}
	plan := result(PlanUMRRounds(p, p.TotalLoad))
	if plan.err != nil {
		t.Fatal(plan.err)
	}
	rounds := plan.rounds()
	if len(rounds) < 3 {
		t.Fatalf("expected a multi-round plan, got %d rounds", len(rounds))
	}
	var sumA, sumB, sumL float64
	for _, e := range p.Workers {
		sumA += e.UnitComm / e.UnitComp
		sumB += e.UnitComm * e.CompLatency / e.UnitComp
		sumL += e.CommLatency
	}
	dur := func(round []Decision) float64 {
		d := p.Workers[round[0].Worker]
		return d.CompLatency + round[0].Size*d.UnitComp
	}
	for j := 0; j+1 < len(rounds); j++ {
		// Skip the final transition: the last round absorbs
		// normalization drift.
		if j+1 == len(rounds)-1 {
			continue
		}
		tj, tj1 := dur(rounds[j]), dur(rounds[j+1])
		want := (tj - sumL + sumB) / sumA
		if !nearly(tj1, want, 1e-6) {
			t.Errorf("round %d duration %.3f violates recurrence (want %.3f)", j+1, tj1, want)
		}
		if tj1 < tj-1e-9 {
			t.Errorf("round durations shrank: T_%d=%.3f > T_%d=%.3f", j, tj, j+1, tj1)
		}
	}
	first, last := sumSizes(rounds[0]), sumSizes(rounds[len(rounds)-1])
	if last < first*1.2 {
		t.Errorf("rounds barely grow: first %.0f, last %.0f", first, last)
	}
}

func TestUMRUniformRounds(t *testing.T) {
	// "Uniform": within a round every worker computes for the same
	// duration compLat + size·unitComp.
	ests := das2Estimates(4)
	ests[1].UnitComp = 0.2 // heterogeneous speeds
	ests[2].UnitComp = 0.8
	p := Plan{TotalLoad: 100000, MinChunk: 1, Workers: ests}
	plan := result(PlanUMRRounds(p, p.TotalLoad))
	if plan.err != nil {
		t.Fatal(plan.err)
	}
	rounds := plan.rounds()
	for j, round := range rounds {
		if len(round) != 4 {
			t.Fatalf("round %d has %d chunks, want 4", j, len(round))
		}
		if j == len(rounds)-1 {
			continue // last round absorbs the normalization drift
		}
		var t0 float64
		for i, d := range round {
			e := ests[d.Worker]
			dur := e.CompLatency + d.Size*e.UnitComp
			if i == 0 {
				t0 = dur
			} else if !nearly(dur, t0, 1e-9) {
				t.Errorf("round %d worker %d computes %.4f, others %.4f", j, d.Worker, dur, t0)
			}
		}
	}
}

func TestUMREachWorkerOncePerRound(t *testing.T) {
	p := Plan{TotalLoad: 240000, MinChunk: 10, Workers: das2Estimates(16)}
	plan := result(PlanUMRRounds(p, p.TotalLoad))
	if plan.err != nil {
		t.Fatal(plan.err)
	}
	for j, round := range plan.rounds() {
		seen := map[int]bool{}
		for _, d := range round {
			if seen[d.Worker] {
				t.Fatalf("round %d dispatches twice to worker %d", j, d.Worker)
			}
			seen[d.Worker] = true
		}
		if len(seen) != 16 {
			t.Fatalf("round %d covers %d workers, want 16", j, len(seen))
		}
	}
}

func TestUMRChoosesMultipleRoundsWhenLatencyAllows(t *testing.T) {
	// With low start-up costs many rounds pay off; with huge start-up
	// costs the optimum collapses toward fewer rounds.
	cheap := Plan{TotalLoad: 240000, MinChunk: 1,
		Workers: homogeneousEstimates(16, 0.01, 0.1, 0.4, 0.01)}
	cheapPlan := result(PlanUMRRounds(cheap, cheap.TotalLoad))
	if cheapPlan.err != nil {
		t.Fatal(cheapPlan.err)
	}
	pricey := Plan{TotalLoad: 240000, MinChunk: 1,
		Workers: homogeneousEstimates(16, 0.01, 200, 0.4, 100)}
	priceyPlan := result(PlanUMRRounds(pricey, pricey.TotalLoad))
	if priceyPlan.err != nil {
		t.Fatal(priceyPlan.err)
	}
	if c, p := len(cheapPlan.rounds()), len(priceyPlan.rounds()); c <= p {
		t.Errorf("cheap start-ups chose %d rounds, expensive chose %d — want cheap > expensive", c, p)
	}
}

func TestUMRBeatsOneRoundPrediction(t *testing.T) {
	// The chosen plan's predicted makespan must not exceed the 1-round
	// plan's — the optimizer considered M=1.
	p := Plan{TotalLoad: 240000, MinChunk: 10, Workers: das2Estimates(16)}
	_, _, best, err := PlanUMRRounds(p, p.TotalLoad)
	if err != nil {
		t.Fatal(err)
	}
	oneRound, ok := umrSinglePrediction(p)
	if !ok {
		t.Skip("single-round candidate infeasible")
	}
	if best > oneRound+1e-6 {
		t.Errorf("chosen plan predicts %.1f, worse than M=1's %.1f", best, oneRound)
	}
}

// umrSinglePrediction evaluates the M=1 candidate directly.
func umrSinglePrediction(p Plan) (float64, bool) {
	var ref refScratch
	flat, ok := ref.umrCandidate(p, p.TotalLoad, 1, aggregate(p))
	if !ok {
		return 0, false
	}
	return ref.predictMakespan(p.Workers, flat), true
}

func TestUMRPartialLoadForRUMRPhases(t *testing.T) {
	p := Plan{TotalLoad: 240000, MinChunk: 10, Workers: das2Estimates(16)}
	seq, _, _, err := PlanUMRRounds(p, 0.8*p.TotalLoad)
	if err != nil {
		t.Fatal(err)
	}
	if total := sumSizes(seq); !nearly(total, 192000, 1e-9) {
		t.Errorf("80%% plan covers %.1f, want 192000", total)
	}
}

func TestUMRRejectsBadLoad(t *testing.T) {
	p := Plan{TotalLoad: 100, MinChunk: 1, Workers: das2Estimates(2)}
	if _, _, _, err := PlanUMRRounds(p, 0); err == nil {
		t.Error("zero load accepted")
	}
	if _, _, _, err := PlanUMRRounds(p, 200); err == nil {
		t.Error("load above total accepted")
	}
}

func TestUMRPlanValidation(t *testing.T) {
	u := NewUMR()
	if err := u.Plan(Plan{TotalLoad: 0, Workers: das2Estimates(2)}); err == nil {
		t.Error("invalid plan accepted")
	}
}

func TestUMRCommunicationDominatedStillFeasible(t *testing.T) {
	// A ≥ 1 (communication as expensive as computation in aggregate):
	// growth is impossible but a schedule must still exist.
	ests := homogeneousEstimates(8, 0.5, 1, 0.4, 0.1) // A = 8·0.5/0.4 = 10
	f := newFakeEngine(ests, 10000, 1)
	if err := f.run(NewUMR()); err != nil {
		t.Fatal(err)
	}
	if !nearly(f.totalDispatched(), 10000, 1e-9) {
		t.Errorf("dispatched %.1f of 10000", f.totalDispatched())
	}
}

func TestUMRExposesRoundCount(t *testing.T) {
	u := NewUMR()
	if err := u.Plan(Plan{TotalLoad: 240000, MinChunk: 10, Workers: das2Estimates(16)}); err != nil {
		t.Fatal(err)
	}
	if u.Rounds < 2 {
		t.Errorf("Rounds = %d, want a multi-round plan", u.Rounds)
	}
	if u.PredictedMakespan <= 0 {
		t.Error("PredictedMakespan not set")
	}
}

func TestUMRPredictionMatchesFakeEngine(t *testing.T) {
	// The planner's prediction uses the same cost model as the fake
	// engine; executing the plan must land on the prediction.
	u := NewUMR()
	ests := das2Estimates(16)
	f := newFakeEngine(ests, 240000, 10)
	if err := f.run(u); err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.makespan-u.PredictedMakespan)/u.PredictedMakespan > 1e-6 {
		t.Errorf("executed makespan %.2f, predicted %.2f", f.makespan, u.PredictedMakespan)
	}
}
