package engine_test

import (
	"fmt"
	"math"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/workload"
)

// TestScaleSixtyFourWorkers guards the engine and algorithms against
// scaling bugs: a 64-worker platform with a large load must complete for
// every algorithm, with every worker actually used.
func TestScaleSixtyFourWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	platform := &model.Platform{Name: "scale-64"}
	for i := 0; i < 64; i++ {
		platform.Workers = append(platform.Workers, model.Worker{
			ID: i, Name: fmt.Sprintf("n%02d", i), Cluster: "big",
			Speed: 0.5 + 0.02*float64(i), CompLatency: 0.3,
			Bandwidth: 5e6, CommLatency: 0.8,
		})
	}
	app := &model.Application{
		Name: "big", TotalLoad: 1e6, BytesPerUnit: 500,
		UnitCost: 0.05, Gamma: 0.1, MinChunk: 5,
	}
	for _, name := range dls.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			alg, err := dls.New(name)
			if err != nil {
				t.Fatal(err)
			}
			backend, err := grid.New(platform, app, grid.Config{Seed: 77})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runEngine(backend, alg, app, platform, engine.Config{ProbeLoad: 500})
			if err != nil {
				t.Fatal(err)
			}
			rep := tr.BuildReport(64)
			if rep.TotalLoad < 1e6*0.9999 {
				t.Errorf("computed %.0f of 1e6", rep.TotalLoad)
			}
			used := 0
			for _, l := range rep.WorkerLoad {
				if l > 0 {
					used++
				}
			}
			// One-round may legitimately drop far/slow workers; everyone
			// else must use the whole platform.
			if name != "one-round" && used != 64 {
				t.Errorf("only %d/64 workers used", used)
			}
		})
	}
}

// TestSingleWorkerDegenerate: every algorithm must handle the
// single-worker platform (no parallelism to exploit, but no deadlock or
// division by zero either).
func TestSingleWorkerDegenerate(t *testing.T) {
	platform := simplePlatform(1)
	app := simpleApp()
	for _, name := range dls.Names() {
		alg, err := dls.New(name)
		if err != nil {
			t.Fatal(err)
		}
		backend, _ := grid.New(platform, app, grid.Config{Seed: 2})
		tr, err := runEngine(backend, alg, app, platform, engine.Config{ProbeLoad: 10})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep := tr.BuildReport(1); rep.TotalLoad < float64(app.TotalLoad)*0.999 {
			t.Errorf("%s computed %.1f", name, rep.TotalLoad)
		}
	}
}

// TestTinyLoad: a load smaller than the min-chunk-per-worker product
// must still complete (a few workers may stay idle).
func TestTinyLoad(t *testing.T) {
	platform := simplePlatform(8)
	app := simpleApp()
	app.TotalLoad = 12
	app.MinChunk = 5
	for _, name := range []string{"umr", "wf", "fixed-rumr", "simple-1", "gss"} {
		alg, _ := dls.New(name)
		backend, _ := grid.New(platform, app, grid.Config{Seed: 3})
		tr, err := runEngine(backend, alg, app, platform, engine.Config{ProbeLoad: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total := 0.0
		for _, r := range tr.Records() {
			if !r.Probe {
				total += r.Size
			}
		}
		if math.Abs(total-12) > 1e-9 {
			t.Errorf("%s computed %.2f of 12", name, total)
		}
	}
}

// TestCaseStudyPlatformWithAllAlgorithms exercises the noisy,
// heterogeneous, background-loaded platform against the full registry —
// the harshest conditions in the repertoire.
func TestCaseStudyPlatformWithAllAlgorithms(t *testing.T) {
	platform := workload.GRAIL()
	app := workload.CaseStudy()
	for _, name := range dls.Names() {
		alg, _ := dls.New(name)
		backend, _ := grid.New(platform, app, grid.Config{Seed: 8})
		tr, err := runEngine(backend, alg, app, platform, engine.Config{ProbeLoad: workload.CaseStudyProbeLoad})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep := tr.BuildReport(7); rep.TotalLoad < 1830*0.999 {
			t.Errorf("%s computed %.1f of 1830", name, rep.TotalLoad)
		}
	}
}
