package grid

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/model"
	"apstdv/internal/rng"
	"apstdv/internal/trace"
	"apstdv/internal/workload"
)

// noiseRun resets b onto (app, seed), executes alg on it and returns a
// copy of the trace.
func noiseRun(t testing.TB, b *Backend, arena *engine.Arena, alg string, app *model.Application, seed uint64) *trace.Trace {
	t.Helper()
	if err := b.Reset(app, Config{Seed: seed}); err != nil {
		t.Fatal(err)
	}
	a, err := dls.New(alg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := engine.Execute(context.Background(), engine.Request{
		Backend: b, Algorithm: a, App: app, Platform: b.platform,
		Config: engine.Config{ProbeLoad: 200}, Arena: arena,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Clone()
}

// noiseDraws counts, per worker, the chunks of tr whose computation drew
// compute noise: every non-probe chunk with load. At γ = 10% no draw is
// rejected (that takes a 9σ deviation), so each is one pair.
func noiseDraws(tr *trace.Trace, workers int) []int {
	n := make([]int, workers)
	for _, r := range tr.Records() {
		if !r.Probe && r.Size > 0 {
			n[r.Worker]++
		}
	}
	return n
}

// tapeLens returns the length of each worker's tape for the current run.
func tapeLens(b *Backend) []int {
	n := make([]int, len(b.noise.cur))
	for i := range b.noise.cur {
		n[i] = len(b.noise.cur[i].pairs)
	}
	return n
}

// TestNoiseTapesRecordEachDrawOnce pins the tape counts: a cold run
// appends exactly the pairs it draws, a warm repeat of it appends none
// and reproduces it, a run on the same seed that draws more appends
// only the pairs past the longest earlier run, and a γ = 0 run does no
// tape work at all.
func TestNoiseTapesRecordEachDrawOnce(t *testing.T) {
	p := workload.DAS2(8)
	app := workload.Synthetic(0.10)
	unit := workload.Synthetic(0.10)
	unit.Uncertainty = model.PerUnit
	b, err := New(p, app, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	arena := engine.NewArena()
	longer := func(a, b []int) []int {
		out := make([]int, len(a))
		for i := range a {
			out[i] = a[i]
			if b[i] > a[i] {
				out[i] = b[i]
			}
		}
		return out
	}

	cold := noiseRun(t, b, arena, "umr", app, 7)
	want := noiseDraws(cold, len(p.Workers))
	if got := tapeLens(b); !reflect.DeepEqual(got, want) {
		t.Fatalf("cold run: tapes hold %v pairs; it drew %v", got, want)
	}
	warm := noiseRun(t, b, arena, "umr", app, 7)
	if got := tapeLens(b); !reflect.DeepEqual(got, want) {
		t.Fatalf("warm repeat: tapes hold %v pairs; want %v (no appends)", got, want)
	}
	if !reflect.DeepEqual(warm.Records(), cold.Records()) {
		t.Fatal("warm repeat's trace differs from the cold run's")
	}

	for _, alg := range []string{"factoring-plain", "simple-50", "umr"} {
		want = longer(want, noiseDraws(noiseRun(t, b, arena, alg, app, 7), len(p.Workers)))
		if got := tapeLens(b); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on the same seed: tapes hold %v pairs; want %v", alg, got, want)
		}
	}
	want = longer(want, noiseDraws(noiseRun(t, b, arena, "gss", unit, 7), len(p.Workers)))
	if got := tapeLens(b); !reflect.DeepEqual(got, want) {
		t.Fatalf("per-unit run on the same seed: tapes hold %v pairs; want %v", got, want)
	}

	added := b.noise.added
	noiseRun(t, b, arena, "gss", workload.Synthetic(0), 9)
	if b.noise.added != added {
		t.Fatalf("a γ = 0 run took a tape entry (%d seeds added, was %d)", b.noise.added, added)
	}
	if got := tapeLens(b); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a γ = 0 run: tapes hold %v pairs; want %v", got, want)
	}
}

// TestNoiseStoreCyclesItsRing checks the ring: a seed not held takes the
// entry filled longest ago, and a held seed finds its own entry.
func TestNoiseStoreCyclesItsRing(t *testing.T) {
	var s noiseStore
	entry := func(seed uint64) int {
		s.reset(seed, 2)
		return (cap(s.tapes) - cap(s.cur)) / 2
	}
	for k := 0; k < noiseSeeds; k++ {
		if e := entry(uint64(100 + k)); e != k {
			t.Fatalf("seed %d took entry %d; want %d", 100+k, e, k)
		}
	}
	if e := entry(105); e != 5 {
		t.Fatalf("held seed 105 found entry %d; want 5", e)
	}
	if e := entry(1); e != 0 {
		t.Fatalf("a new seed with the ring full took entry %d; want the oldest, 0", e)
	}
	if e := entry(2); e != 1 {
		t.Fatalf("the next new seed took entry %d; want 1", e)
	}
	if e := entry(100); e != 2 {
		t.Fatalf("evicted seed 100 came back in entry %d; want 2", e)
	}
}

// TestNoiseDrawsMatchTruncNormal checks the store against the draw it
// stands in for: on every seed of a cycle longer than the ring, in a
// cold round and in replayed rounds that read past the recorded ends
// under other cv values, worker w's k-th multiplier is bit for bit the
// k-th rng.TruncNormal(1, cv, 0.1) of a fresh stream comp/w. The cv
// values run from per-unit small to 10 (nearly half the draws
// rejected), 0 (no draw) and NaN (every draw rejected, then the 0.1
// fallback).
func TestNoiseDrawsMatchTruncNormal(t *testing.T) {
	const workers = 3
	cvs := []float64{0.001, 0.1, 0.25, 1, 3, 10, 0, math.NaN()}
	var s noiseStore
	for round := 0; round < 3; round++ {
		for seed := uint64(0); seed < noiseSeeds+4; seed++ {
			s.reset(seed, workers)
			for w := 0; w < workers; w++ {
				src := rng.Stream(seed, fmt.Sprintf("comp/%d", w))
				for k := 0; k < 30+20*round; k++ {
					cv := cvs[(7*k+3*round+w+int(seed))%len(cvs)]
					want := src.TruncNormal(1, cv, 0.1)
					if got := s.draw(w, cv); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("round %d, seed %d, worker %d, draw %d (cv %g): %v; TruncNormal gives %v",
							round, seed, w, k, cv, got, want)
					}
				}
			}
		}
	}
}
