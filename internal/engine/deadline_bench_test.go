package engine_test

import (
	"context"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/workload"
)

// timerCounter counts the engine's calls into a simulated backend's
// timer, every other method passing straight through.
type timerCounter struct {
	*grid.Backend
	calls int
}

func (c *timerCounter) AfterFunc(d float64, fn func(engine.TimerID)) engine.TimerID {
	c.calls++
	return c.Backend.AfterFunc(d, fn)
}

func (c *timerCounter) CancelTimer(id engine.TimerID) {
	c.calls++
	c.Backend.CancelTimer(id)
}

// BenchmarkStageDeadlines prices the retry layer armed but idle: one
// fault-free weighted-factoring run on the sim_fault_tree benchmark's
// tree-topology Mixed(8, 8), repeated on a warm backend and arena, with
// Retry off and with it on. Every stage of every chunk arms a deadline
// and cancels it again, none fires, so the difference between the two
// ns/chunk figures is what the deadline path costs; timer_calls/chunk
// counts the AfterFunc and CancelTimer calls that reach the backend.
func BenchmarkStageDeadlines(b *testing.B) {
	platform := workload.WithTreeTopology(workload.Mixed(8, 8))
	app := workload.Synthetic(0.10)
	for _, bc := range []struct {
		name  string
		retry *engine.RetryPolicy
	}{
		{"retry=off", nil},
		{"retry=on", &engine.RetryPolicy{Redistribute: true, MaxAttempts: 6}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g, err := grid.New(platform, app, grid.Config{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			tb := &timerCounter{Backend: g}
			arena := engine.NewArena()
			chunks := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.Reset(app, grid.Config{Seed: 1}); err != nil {
					b.Fatal(err)
				}
				tr, err := engine.Execute(context.Background(), engine.Request{
					Backend: tb, Algorithm: dls.NewWeightedFactoring(), App: app,
					Platform: platform, Arena: arena,
					Config: engine.Config{ProbeLoad: 200, Retry: bc.retry},
				})
				if err != nil {
					b.Fatal(err)
				}
				chunks += tr.Len()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(chunks), "ns/chunk")
			b.ReportMetric(float64(tb.calls)/float64(chunks), "timer_calls/chunk")
		})
	}
}
