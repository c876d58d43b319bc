package engine

import (
	"strings"
	"testing"

	"apstdv/internal/grid"
	"apstdv/internal/model"
)

func stallBackend(t *testing.T) Backend {
	t.Helper()
	p := &model.Platform{Name: "t", Workers: []model.Worker{{
		ID: 0, Name: "w", Cluster: "c", Speed: 1, CompLatency: 0.5,
		Bandwidth: 1e6, CommLatency: 2,
	}}}
	a := &model.Application{Name: "a", TotalLoad: 10, BytesPerUnit: 1, UnitCost: 1, MinChunk: 1}
	b, err := grid.New(p, a, grid.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLifecycleStateNames(t *testing.T) {
	want := map[chunkState]string{
		statePlanned:      "planned",
		stateTransferring: "transferring",
		stateComputing:    "computing",
		stateReturning:    "returning",
		stateDone:         "done",
		stateFailed:       "failed",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("state %d = %q, want %q", s, s.String(), name)
		}
	}
}

func TestLifecycleStallDetailListsInFlightChunks(t *testing.T) {
	// The stall diagnostic must name each in-flight chunk with its
	// worker, lifecycle stage, and age, ordered by chunk id, so a wedged
	// run points straight at the chunk that never came back.
	e := &execution{backend: stallBackend(t), chunkSlots: []chunk{
		{id: 7, worker: 2, slot: 0, used: true, state: stateComputing, stageStart: -12.25},
		{id: 3, worker: 0, slot: 1, used: true, state: stateTransferring, stageStart: -3.5},
	}, inflight: 2}
	got := e.stallDetail()
	want := " (worker 0: chunk 3 transferring for 3.5s; worker 2: chunk 7 computing for 12.2s)"
	if got != want {
		t.Errorf("stallDetail() = %q, want %q", got, want)
	}
	if empty := (&execution{backend: e.backend}).stallDetail(); empty != "" {
		t.Errorf("stallDetail with no chunks = %q, want empty", empty)
	}
}

func TestLifecycleRetryDefaults(t *testing.T) {
	if p := (&RetryPolicy{}).withDefaults(); p.MaxAttempts != 3 {
		t.Errorf("withDefaults() = %+v", p)
	}
	custom := (&RetryPolicy{MaxAttempts: 5, Redistribute: true}).withDefaults()
	if custom.MaxAttempts != 5 || !custom.Redistribute {
		t.Errorf("withDefaults() clobbered explicit values: %+v", custom)
	}
	if !strings.Contains(stateComputing.String(), "comput") {
		t.Error("sanity: state naming")
	}
}
