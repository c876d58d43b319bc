package engine_test

import (
	"strings"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/obs"
)

// runFaulty executes one simulated run with fault injection and the
// retry layer enabled, returning the event stream and the run error.
func runFaulty(t *testing.T, alg dls.Algorithm, plan *grid.FaultPlan, retry *engine.RetryPolicy) ([]obs.Event, error) {
	t.Helper()
	platform := simplePlatform(3)
	app := simpleApp()
	backend, err := grid.New(platform, app, grid.Config{Seed: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	buf := obs.NewBuffer()
	_, runErr := runEngine(backend, alg, app, platform, engine.Config{
		ProbeLoad: 50, Events: buf, Retry: retry,
	})
	return buf.Events(), runErr
}

func countEvents(evs []obs.Event) map[obs.EventType]int {
	count := map[obs.EventType]int{}
	for _, ev := range evs {
		count[ev.Type]++
	}
	return count
}

func TestCrashedWorkerLoadRedispatchedToSurvivors(t *testing.T) {
	// Worker 1 dies mid-run: its in-flight and future load must migrate
	// to the survivors and the run must still complete every unit.
	plan := &grid.FaultPlan{Faults: []grid.WorkerFault{
		{Worker: 1, Kind: grid.FaultCrash, At: 40},
	}}
	evs, err := runFaulty(t, dls.NewWeightedFactoring(), plan, &engine.RetryPolicy{})
	if err != nil {
		t.Fatalf("run with one crash must degrade gracefully, got: %v", err)
	}
	count := countEvents(evs)
	if count[obs.WorkerLost] != 1 {
		t.Errorf("%d worker_lost events, want 1 for the crashed worker", count[obs.WorkerLost])
	}
	if count[obs.ChunkRetry] == 0 {
		t.Error("no chunk_retry events despite a mid-run crash")
	}
	// Every unit of load completes, and none of it after the crash runs
	// on the dead worker. The retries carried load back to the pool.
	doneLoad, retriedLoad := 0.0, 0.0
	for _, ev := range evs {
		switch ev.Type {
		case obs.ChunkDone:
			doneLoad += ev.Size
			if ev.Worker == 1 && ev.CompEnd > 40 {
				t.Errorf("chunk %d completed on crashed worker 1 at t=%g", ev.Chunk, ev.CompEnd)
			}
		case obs.ChunkRetry:
			retriedLoad += ev.Size
		}
	}
	if retriedLoad <= 0 {
		t.Errorf("chunk_retry events carried %g load, want > 0", retriedLoad)
	}
	if doneLoad < 1000-1e-6 {
		t.Errorf("completed load %g, want the full 1000", doneLoad)
	}
}

func TestCrashRunIsDeterministic(t *testing.T) {
	// Same seed, same fault plan → byte-equal event streams: fault
	// handling must be as reproducible as the fault-free path.
	plan := &grid.FaultPlan{Faults: []grid.WorkerFault{
		{Worker: 1, Kind: grid.FaultCrash, At: 40},
	}}
	run := func() []obs.Event {
		evs, err := runFaulty(t, dls.NewWeightedFactoring(), plan, &engine.RetryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ between identical runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs between identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestStalledWorkerTripsDeadlineAndRetries(t *testing.T) {
	// Worker 0 freezes for 1000s: only the stage deadline can notice (a
	// stall produces no error, just a very late completion). The chunk
	// must time out, retry elsewhere, and the run complete.
	plan := &grid.FaultPlan{Faults: []grid.WorkerFault{
		{Worker: 0, Kind: grid.FaultStall, At: 35, Duration: 1000},
	}}
	evs, err := runFaulty(t, dls.NewWeightedFactoring(), plan, &engine.RetryPolicy{})
	if err != nil {
		t.Fatalf("run with one stalled worker must complete, got: %v", err)
	}
	count := countEvents(evs)
	if count[obs.ChunkTimeout] == 0 {
		t.Error("no chunk_timeout event for the stalled worker")
	}
	if count[obs.ChunkRetry] == 0 {
		t.Error("timed-out chunks were not retried")
	}
	doneLoad := 0.0
	for _, ev := range evs {
		if ev.Type == obs.ChunkDone {
			doneLoad += ev.Size
		}
	}
	if doneLoad < 1000-1e-6 {
		t.Errorf("completed load %g, want the full 1000", doneLoad)
	}
}

func TestAllWorkersLostDegradesToPartialResult(t *testing.T) {
	// Every worker dies: the run must end with the graceful-degradation
	// error naming the partial result, not hang or panic. MaxAttempts is
	// raised so the no-workers path, not the attempt bound, terminates.
	plan := &grid.FaultPlan{Faults: []grid.WorkerFault{
		{Worker: 0, Kind: grid.FaultCrash, At: 30},
		{Worker: 1, Kind: grid.FaultCrash, At: 35},
		{Worker: 2, Kind: grid.FaultCrash, At: 40},
	}}
	_, err := runFaulty(t, dls.NewWeightedFactoring(), plan, &engine.RetryPolicy{MaxAttempts: 100})
	if err == nil {
		t.Fatal("run with no surviving workers must fail")
	}
	if !strings.Contains(err.Error(), "partial result") {
		t.Errorf("error %q does not report the partial result", err)
	}
}

func TestRetryAttemptsAreBounded(t *testing.T) {
	// With MaxAttempts 1, the first failure is terminal even though two
	// healthy workers remain.
	plan := &grid.FaultPlan{Faults: []grid.WorkerFault{
		{Worker: 1, Kind: grid.FaultCrash, At: 40},
	}}
	_, err := runFaulty(t, dls.NewWeightedFactoring(), plan, &engine.RetryPolicy{MaxAttempts: 1})
	if err == nil {
		t.Fatal("MaxAttempts=1 must make the first chunk failure terminal")
	}
	if !strings.Contains(err.Error(), "after 1 attempts") {
		t.Errorf("error %q does not name the attempt bound", err)
	}
}

func TestWorkerCrashDuringProbingExcludedFromPlan(t *testing.T) {
	// Worker 2 is dead before its probe: planning must proceed over the
	// survivors and no real chunk may ever complete on worker 2.
	plan := &grid.FaultPlan{Faults: []grid.WorkerFault{
		{Worker: 2, Kind: grid.FaultCrash, At: 1},
	}}
	evs, err := runFaulty(t, dls.NewWeightedFactoring(), plan, &engine.RetryPolicy{})
	if err != nil {
		t.Fatalf("run with a probe-time crash must complete on survivors, got: %v", err)
	}
	count := countEvents(evs)
	if count[obs.WorkerLost] == 0 {
		t.Error("no worker_lost event for the probe-time crash")
	}
	if count[obs.PlanDone] != 1 {
		t.Errorf("want exactly 1 plan after the lossy probing round, got %d", count[obs.PlanDone])
	}
	doneLoad := 0.0
	for _, ev := range evs {
		if ev.Type == obs.ChunkDone {
			doneLoad += ev.Size
			if ev.Worker == 2 {
				t.Errorf("chunk %d completed on worker 2, which died during probing", ev.Chunk)
			}
		}
	}
	if doneLoad < 1000-1e-6 {
		t.Errorf("completed load %g, want the full 1000", doneLoad)
	}
}

func TestRetryLayerIdleWithoutFaults(t *testing.T) {
	// With the retry layer armed but no faults injected, the scheduling
	// path must not change: same events as a run without the layer, and
	// zero fault-path activity.
	run := func(retry *engine.RetryPolicy) []obs.Event {
		evs, err := runFaulty(t, dls.NewWeightedFactoring(), nil, retry)
		if err != nil {
			t.Fatal(err)
		}
		count := countEvents(evs)
		if n := count[obs.ChunkRetry] + count[obs.ChunkTimeout] + count[obs.WorkerLost]; n != 0 {
			t.Errorf("%d fault-path events on a fault-free run", n)
		}
		return evs
	}
	without := run(nil)
	with := run(&engine.RetryPolicy{})
	if len(without) != len(with) {
		t.Fatalf("event counts differ: %d without retry, %d with", len(without), len(with))
	}
	for i := range without {
		if without[i] != with[i] {
			t.Fatalf("event %d differs with the idle retry layer:\n%+v\n%+v", i, without[i], with[i])
		}
	}
}

func TestAttemptTaggedInEventsAndTrace(t *testing.T) {
	// Retried chunks carry their attempt number in Dispatch/ChunkDone
	// events; first attempts omit it (so zero-fault streams stay
	// byte-identical to the pre-retry format).
	plan := &grid.FaultPlan{Faults: []grid.WorkerFault{
		{Worker: 1, Kind: grid.FaultCrash, At: 40},
	}}
	evs, err := runFaulty(t, dls.NewWeightedFactoring(), plan, &engine.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	retried := false
	for _, ev := range evs {
		switch ev.Type {
		case obs.ChunkRetry:
			if ev.Attempt < 1 {
				t.Errorf("chunk_retry without attempt: %+v", ev)
			}
		case obs.ChunkDone:
			if ev.Attempt > 1 {
				retried = true
			}
		}
	}
	if !retried {
		t.Error("no ChunkDone event carries attempt > 1 despite a crash")
	}
}
