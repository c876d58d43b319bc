package engine_test

import (
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/obs"
)

// runWithSink executes one simulated run with an event buffer attached
// and returns the events it observed.
func runWithSink(t *testing.T, alg dls.Algorithm, ecfg engine.Config) []obs.Event {
	t.Helper()
	platform := simplePlatform(3)
	app := simpleApp()
	backend, err := grid.New(platform, app, grid.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf := obs.NewBuffer()
	ecfg.Events = buf
	if ecfg.ProbeLoad == 0 {
		ecfg.ProbeLoad = 50
	}
	if _, err := runEngine(backend, alg, app, platform, ecfg); err != nil {
		t.Fatal(err)
	}
	return buf.Events()
}

func TestEventStreamShape(t *testing.T) {
	evs := runWithSink(t, dls.NewRUMR(), engine.Config{})

	count := map[obs.EventType]int{}
	lastSeq := int64(-1)
	lastT := -1.0
	for _, ev := range evs {
		count[ev.Type]++
		if ev.Seq != lastSeq+1 {
			t.Fatalf("seq not dense: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.T < lastT {
			t.Fatalf("timestamps regress: %g after %g (seq %d)", ev.T, lastT, ev.Seq)
		}
		lastT = ev.T
	}
	if count[obs.ProbeStart] != 1 {
		t.Errorf("want exactly 1 probe_start, got %d", count[obs.ProbeStart])
	}
	if count[obs.ProbeResult] != 3 {
		t.Errorf("want 3 probe_result (one per worker), got %d", count[obs.ProbeResult])
	}
	if count[obs.PlanDone] != 1 {
		t.Errorf("want exactly 1 plan, got %d", count[obs.PlanDone])
	}
	if count[obs.Dispatch] == 0 || count[obs.Dispatch] != count[obs.ChunkDone] {
		t.Errorf("dispatch/chunk_done mismatch: %d vs %d", count[obs.Dispatch], count[obs.ChunkDone])
	}
	if count[obs.UplinkBusy] != count[obs.UplinkIdle] {
		t.Errorf("uplink busy/idle unbalanced: %d vs %d", count[obs.UplinkBusy], count[obs.UplinkIdle])
	}
	if count[obs.RUMRSwitch] == 0 {
		t.Error("RUMR run emitted no switch-decision events")
	}
	if count[obs.RunFinished] != 1 {
		t.Errorf("want exactly 1 run_finished, got %d", count[obs.RunFinished])
	}
	fin := evs[len(evs)-1]
	if fin.Type != obs.RunFinished || fin.Makespan <= 0 || fin.Err != "" {
		t.Errorf("stream does not close with a clean run_finished: %+v", fin)
	}
}

func TestEventStreamRecalibration(t *testing.T) {
	evs := runWithSink(t, dls.NewWeightedFactoring(), engine.Config{RecalibrateInterval: 20})
	n := 0
	for _, ev := range evs {
		if ev.Type == obs.Recalibrate {
			n++
			if ev.Worker < 0 || ev.Worker > 2 {
				t.Errorf("recalibrate names invalid worker %d", ev.Worker)
			}
		}
	}
	if n == 0 {
		t.Fatal("no recalibrate events despite RecalibrateInterval")
	}
}

// TestEventStreamDeterminism asserts the determinism rule at the engine
// level: two identical simulated runs produce identical event streams.
func TestEventStreamDeterminism(t *testing.T) {
	a := runWithSink(t, dls.NewFixedRUMR(), engine.Config{})
	b := runWithSink(t, dls.NewFixedRUMR(), engine.Config{})
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestNoSinkRunsUnchanged guards the disabled path: a run with no sink
// must behave exactly as before the observability layer existed.
func TestNoSinkRunsUnchanged(t *testing.T) {
	platform := simplePlatform(3)
	app := simpleApp()
	mk := func(cfg engine.Config) float64 {
		backend, err := grid.New(platform, app, grid.Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := runEngine(backend, dls.NewUMR(), app, platform, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Makespan()
	}
	plain := mk(engine.Config{ProbeLoad: 50})
	instrumented := mk(engine.Config{ProbeLoad: 50, Events: obs.NewBuffer()})
	if plain != instrumented {
		t.Errorf("instrumentation changed the simulation: %g vs %g", plain, instrumented)
	}
}
