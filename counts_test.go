// counts_test.go pins exact per-run counts of the canonical and tree
// runs arena_test.go defines: the events a run emits and the timer
// calls the engine makes into the simulated backend per chunk. Unlike a
// wall-clock figure these do not vary between passes or hosts, so a
// change to the emit or deadline path that moves one shows here
// exactly, the way the warm*RunAllocs constants show an allocation.
package main

import (
	"context"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/experiment"
	"apstdv/internal/grid"
	"apstdv/internal/obs"
)

// runCounts is what one run of a condition does, counted exactly.
type runCounts struct {
	events int // events emitted to the run's sink
	chunks int // trace records: every probe, work chunk and failed attempt
	timers int // AfterFunc and CancelTimer calls reaching the backend
}

// countedRuns pins each condition's counts for UMR at seed 42.
//   - canonical: 16 probes and 160 work chunks; 723 events are a
//     dispatch and a chunk_done per work chunk, 192 uplink busy/idle
//     pairs, the probing round (probe_start and 16 probe_result), plan
//     and run_finished. Without the retry layer the engine arms no
//     timer at all.
//   - canonical+retry: the same run, fault-free, with every stage of
//     every chunk holding a deadline. The engine keeps one backend
//     timer for the whole deadline set and re-arms it only when the
//     earliest deadline moves: 37 calls, 0.21 per chunk.
//   - tree: two crashes add 5 retries, 2 blacklistings, 2 lost workers,
//     2 peer transfers and 4 redistributed chunks to the stream (289
//     events, 69 records with the failed attempts); 29 timer calls,
//     0.42 per chunk.
var countedRuns = []struct {
	name  string
	setup func(*experiment.Run)
	want  runCounts
}{
	{"canonical", canonicalRun(engine.Config{}), runCounts{events: 723, chunks: 176, timers: 0}},
	{"canonical+retry", canonicalRun(engine.Config{Retry: &engine.RetryPolicy{}}), runCounts{events: 723, chunks: 176, timers: 37}},
	{"tree", treeRun(), runCounts{events: 289, chunks: 69, timers: 29}},
}

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

// eventCounter is a sink that counts the events it receives.
type eventCounter struct{ n int }

func (c *eventCounter) EmitPtr(*obs.Event) { c.n++ }

// countRun executes one run of setup on b, reset first, and counts it.
func countRun(t *testing.T, b *grid.Backend, arena *engine.Arena, setup func(*experiment.Run)) runCounts {
	t.Helper()
	r := experiment.Run{Algorithm: dls.NewUMR(), Grid: grid.Config{Seed: 42}}
	setup(&r)
	if err := b.Reset(r.App, r.Grid); err != nil {
		t.Fatal(err)
	}
	events := &eventCounter{}
	r.Engine.Events = events
	tb := &timerCounter{Backend: b}
	tr, err := engine.Execute(context.Background(), engine.Request{
		Backend: tb, Algorithm: r.Algorithm, App: r.App,
		Platform: r.Platform, Config: r.Engine, Arena: arena,
	})
	if err != nil {
		t.Fatal(err)
	}
	return runCounts{events: events.n, chunks: tr.Len(), timers: tb.calls}
}

// TestRunCountsExact asserts each condition's counts, on a fresh backend
// and arena and again on the same ones warm: reuse changes no count.
func TestRunCountsExact(t *testing.T) {
	for _, c := range countedRuns {
		t.Run(c.name, func(t *testing.T) {
			var r experiment.Run
			c.setup(&r)
			b, err := grid.New(r.Platform, r.App, grid.Config{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			arena := engine.NewArena()
			for _, label := range []string{"cold", "warm"} {
				got := countRun(t, b, arena, c.setup)
				if got != c.want {
					t.Errorf("%s run: %d events, %d chunks, %d timer calls (%.2f per chunk); want %d, %d, %d",
						label, got.events, got.chunks, got.timers, float64(got.timers)/float64(got.chunks),
						c.want.events, c.want.chunks, c.want.timers)
				}
			}
		})
	}
}
