package grid

import (
	"reflect"
	"slices"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/model"
	"apstdv/internal/workload"
)

// FuzzNoiseTapesMatchFresh runs a sequence of runs on one backend —
// more distinct seeds than it keeps tapes for, revisited and evicted,
// under mixed γ (rejections included), per-chunk and per-unit noise and
// every algorithm but adaptive-rumr (it replans at every chunk, costing
// dozens of other runs, and draws nothing they do not) — and checks that
// each run's makespan and trace equal a fresh backend's. The script is
// read a byte at a time, zeros past its end:
//
//	base seed
//	steps 0–16: run (γ = k%5, per-unit if k/5 is odd, algorithm k/10)
//	            on seed base+step, so the ring wraps on every input
//	later steps, to at least 20: seed offset (base + s%24), then run
func FuzzNoiseTapesMatchFresh(f *testing.F) {
	f.Add([]byte{0})
	// Every γ and algorithm once on the first 17 seeds, then the evicted
	// seeds 0–2 and the held 16 again under other runs.
	f.Add([]byte{3, 2, 13, 24, 39, 41, 57, 63, 72, 88, 94, 106, 112, 3, 8, 19, 22, 34, 0, 9, 1, 14, 2, 28, 16, 4})
	// γ = 3 throughout, per-unit and then per-chunk, where more than one
	// draw in three is rejected.
	f.Add([]byte{200, 9, 19, 29, 39, 49, 59, 69, 79, 89, 99, 109, 119, 4, 14, 24, 34, 44, 23, 9, 5, 4, 17, 14, 11, 19})
	gammas := []float64{0, 0.05, 0.10, 0.25, 3}
	algs := slices.DeleteFunc(dls.Names(), func(n string) bool { return n == "adaptive-rumr" })
	f.Fuzz(func(t *testing.T, script []byte) {
		i := 0
		next := func() int {
			if i >= len(script) {
				return 0
			}
			i++
			return int(script[i-1])
		}
		p := workload.Mixed(2, 2)
		apps := make(map[int]*model.Application)
		app := func(k int) *model.Application {
			if apps[k] == nil {
				a := workload.Synthetic(gammas[k%len(gammas)])
				a.TotalLoad = 24000
				if k/len(gammas)%2 == 1 {
					a.Uncertainty = model.PerUnit
				}
				apps[k] = a
			}
			return apps[k]
		}
		base := uint64(next())
		steps := max(20, 17+(len(script)-18)/2)
		var b *Backend
		arena := engine.NewArena()
		for step := 0; step < steps; step++ {
			seed := base + uint64(step)
			if step >= 17 {
				seed = base + uint64(next()%24)
			}
			k := next()
			a, alg := app(k), algs[k/(2*len(gammas))%len(algs)]
			if b == nil {
				var err error
				if b, err = New(p, a, Config{Seed: seed}); err != nil {
					t.Fatal(err)
				}
			}
			got := noiseRun(t, b, arena, alg, a, seed)
			fresh, err := New(p, a, Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			want := noiseRun(t, fresh, engine.NewArena(), alg, a, seed)
			if got.Makespan() != want.Makespan() || !reflect.DeepEqual(got.Records(), want.Records()) {
				t.Fatalf("step %d (%s, γ %g, %v, seed %d): makespan %v on the shared backend, %v on a fresh one",
					step, alg, a.Gamma, a.Uncertainty, seed, got.Makespan(), want.Makespan())
			}
		}
	})
}
