package grid

import (
	"context"
	"fmt"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/model"
	"apstdv/internal/obs"
	"apstdv/internal/raceflag"
	"apstdv/internal/rng"
	"apstdv/internal/workload"
)

func TestTimerFiresOnceAtItsInstant(t *testing.T) {
	b, _ := New(testPlatform(1), testApp(0), Config{Seed: 1})
	var fired []float64
	var got []uint64
	fn := func(id uint64) { fired, got = append(fired, b.Now()), append(got, id) }
	id := b.AfterFunc(2.5, fn)
	late := b.AfterFunc(7, fn)
	b.CancelTimer(late)
	b.Run()
	if len(fired) != 1 || fired[0] != 2.5 || got[0] != id {
		t.Fatalf("firings at %v with ids %v; want one at 2.5 with id %d", fired, got, id)
	}
	if id == 0 {
		t.Error("AfterFunc returned id 0, which means no timer")
	}
	// A fired or cancelled id is stale: cancelling it must not touch the
	// timer that now holds its slot.
	next := b.AfterFunc(1, fn)
	b.CancelTimer(id)
	b.CancelTimer(late)
	b.CancelTimer(0)
	b.Run()
	if len(fired) != 2 || got[1] != next {
		t.Errorf("stale cancels disarmed the next timer: firings %v, ids %v", fired, got)
	}
}

func TestResetStalesTimerIDs(t *testing.T) {
	b, _ := New(testPlatform(1), testApp(0), Config{Seed: 1})
	old := b.AfterFunc(5, func(uint64) { t.Error("a timer armed before Reset fired") })
	if err := b.Reset(testApp(0), Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	fired := false
	b.AfterFunc(5, func(uint64) { fired = true })
	b.CancelTimer(old)
	b.Run()
	if !fired {
		t.Error("cancelling a pre-Reset id disarmed the timer armed after Reset")
	}
}

// TestTimerSteadyStateAllocFree pins the engine.Timer path the grid
// serves stage deadlines through: once the timer table and the event
// arena are warm, arming, cancelling and firing allocate nothing.
func TestTimerSteadyStateAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; counts only hold in normal builds")
	}
	b, _ := New(testPlatform(1), testApp(0), Config{Seed: 1})
	fn := func(uint64) {}
	for i := 0; i < 8; i++ {
		b.CancelTimer(b.AfterFunc(100, fn))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		id1 := b.AfterFunc(50, fn)
		id2 := b.AfterFunc(90, fn)
		b.CancelTimer(id2)
		b.CancelTimer(id1)
		b.AfterFunc(1, fn)
		b.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state AfterFunc/CancelTimer allocated %.1f objects per round, want 0", allocs)
	}
}

// TestRetryRunsLeaveNothingPending runs the engine's retry layer over
// seeded stall, slowdown and crash plans on a star and a tree platform,
// under the sim_fault_tree benchmark's four algorithms, completed and
// failed runs alike, and asserts that every run leaves the event heap
// empty and no timer armed: no deadline outlives its run.
func TestRetryRunsLeaveNothingPending(t *testing.T) {
	app := workload.Synthetic(0.10)
	retry := &engine.RetryPolicy{Redistribute: true}
	kinds := []FaultKind{FaultStall, FaultSlowdown, FaultCrash}
	timeouts, failed := 0, 0
	for pi, platform := range []*model.Platform{workload.Mixed(4, 4), workload.WithTreeTopology(workload.Mixed(4, 4))} {
		b, err := New(platform, app, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		arena := engine.NewArena()
		for _, alg := range []string{"wf", "simple-50", "gss", "factoring-plain"} {
			for seed := uint64(1); seed <= 8; seed++ {
				src := rng.Stream(seed, fmt.Sprintf("grid/pending/%d/%s", pi, alg))
				plan := &FaultPlan{}
				for n := 1 + src.Intn(3); n > 0; n-- {
					plan.Faults = append(plan.Faults, WorkerFault{
						Worker: src.Intn(len(platform.Workers)), Kind: kinds[src.Intn(len(kinds))],
						At: src.Uniform(0, 3000), Duration: src.Uniform(100, 3000), Factor: src.Uniform(2, 40),
					})
				}
				if err := b.Reset(app, Config{Seed: seed, Faults: plan}); err != nil {
					t.Fatal(err)
				}
				a, _ := dls.New(alg)
				var counter timeoutCounter
				_, err := engine.Execute(context.Background(), engine.Request{
					Backend: b, Algorithm: a, App: app, Platform: platform, Arena: arena,
					Config: engine.Config{ProbeLoad: 200, Retry: retry, Events: &counter},
				})
				if err != nil {
					failed++
				}
				timeouts += int(counter)
				if n := b.eng.Pending(); n != 0 {
					t.Errorf("platform %d/%s/seed %d: %d events pending after the run", pi, alg, seed, n)
				}
				if n := b.timers.Pending(); n != 0 {
					t.Errorf("platform %d/%s/seed %d: %d timers armed after the run", pi, alg, seed, n)
				}
			}
		}
	}
	t.Logf("%d timeouts, %d failed runs", timeouts, failed)
	if timeouts == 0 || failed == 0 {
		t.Errorf("the plans fired %d deadlines and failed %d runs; want both paths covered", timeouts, failed)
	}
}

// timeoutCounter is an event sink counting chunk timeouts.
type timeoutCounter int

func (c *timeoutCounter) EmitPtr(ev *obs.Event) {
	if ev.Type == obs.ChunkTimeout {
		*c++
	}
}
