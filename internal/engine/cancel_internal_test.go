package engine

import (
	"context"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/workload"
)

// stopClock is a simulated backend that is also a Stopper: it records
// how often and at what backend time the engine stopped it.
type stopClock struct {
	*grid.Backend
	stops int
	at    float64
}

func (s *stopClock) Stop() { s.stops++; s.at = s.Now() }

// TestLateCancellationSparesTheNextRun: a run's context cancellation can
// fire after the run returned — context.AfterFunc's stop does not wait
// for a callback already started — and on an arena the workspace may by
// then serve the next run. That late mark must neither fail the next run
// nor stop its backend early, and the engine stops each backend once.
func TestLateCancellationSparesTheNextRun(t *testing.T) {
	platform := workload.Meteor(3)
	app := &model.Application{Name: "x", TotalLoad: 500, UnitCost: 0.1, BytesPerUnit: 10}
	arena := NewArena()
	run := func(ctx context.Context) (*stopClock, float64, error) {
		b, err := grid.New(platform, app, grid.Config{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		s := &stopClock{Backend: b}
		tr, err := Execute(ctx, Request{Backend: s, Algorithm: dls.NewUMR(), App: app,
			Platform: platform, Arena: arena, Config: Config{ProbeLoad: 5}})
		return s, tr.Makespan(), err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first, _, err := run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// retire moved runGen past the finished run's own generation.
	arena.e.cancel(arena.e.runGen-1, first)
	if first.stops != 1 {
		t.Fatalf("the first backend was stopped %d times, want once", first.stops)
	}
	next, makespan, err := run(ctx)
	if err != nil {
		t.Fatalf("the next run failed: %v", err)
	}
	if next.stops != 1 || next.at != makespan {
		t.Fatalf("the next backend was stopped %d times, last at %v; want once, at its makespan %v",
			next.stops, next.at, makespan)
	}
}
