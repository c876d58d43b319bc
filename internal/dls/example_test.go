package dls_test

import (
	"fmt"

	"apstdv/internal/dls"
	"apstdv/internal/model"
)

// ExampleNew shows the registry lookup the XML algorithm attribute uses.
func ExampleNew() {
	alg, err := dls.New("fixed-rumr")
	if err != nil {
		panic(err)
	}
	fmt.Println(alg.Name(), alg.UsesProbing())
	// Output: fixed-rumr true
}

// ExamplePlanUMRRounds plans a UMR schedule by hand and prints its round
// structure — the geometric growth that overlaps communication with
// computation.
func ExamplePlanUMRRounds() {
	// Four identical workers: 10 ms/unit transfer, 2 s transfer start-up,
	// 100 ms/unit compute, 0.5 s compute start-up.
	var ests []model.Estimate
	for i := 0; i < 4; i++ {
		ests = append(ests, model.Estimate{
			Worker: i, UnitComm: 0.01, CommLatency: 2,
			UnitComp: 0.1, CompLatency: 0.5,
		})
	}
	plan := dls.Plan{TotalLoad: 100000, MinChunk: 1, Workers: ests}
	seq, roundLen, predicted, err := dls.PlanUMRRounds(plan, plan.TotalLoad)
	if err != nil {
		panic(err)
	}
	total := 0.0
	for _, d := range seq {
		total += d.Size
	}
	fmt.Printf("rounds: %d, load covered: %.0f, makespan predicted: %.0fs\n",
		len(seq)/roundLen, total, predicted)
	// Output: rounds: 9, load covered: 100000, makespan predicted: 2518s
}

// ExampleAlgorithm_plan drives one planning step directly.
func ExampleAlgorithm_plan() {
	alg := dls.NewSimple(2)
	ests := []model.Estimate{
		{Worker: 0, UnitComp: 1},
		{Worker: 1, UnitComp: 1},
	}
	if err := alg.Plan(dls.Plan{TotalLoad: 100, Workers: ests}); err != nil {
		panic(err)
	}
	st := dls.State{Remaining: 100, Pending: make([]float64, 2), PendingChunks: make([]int, 2)}
	d, ok := alg.Next(st)
	fmt.Println(ok, d.Worker, d.Size)
	// Output: true 0 25
}
