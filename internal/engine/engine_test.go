package engine_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"apstdv/internal/divide"
	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/trace"
	"apstdv/internal/units"
)

func simplePlatform(n int) *model.Platform {
	p := &model.Platform{Name: "eng-test"}
	for i := 0; i < n; i++ {
		p.Workers = append(p.Workers, model.Worker{
			ID: i, Name: "w", Cluster: "c",
			Speed: 1, CompLatency: 0.5,
			Bandwidth: 1e6, CommLatency: 2,
		})
	}
	return p
}

func simpleApp() *model.Application {
	return &model.Application{
		Name: "app", TotalLoad: 1000, BytesPerUnit: 1000,
		UnitCost: 0.1, MinChunk: 1,
	}
}

// probeCapture records the estimates an algorithm was planned with.
type probeCapture struct {
	dls.Algorithm
	got []model.Estimate
}

func (p *probeCapture) Plan(plan dls.Plan) error {
	p.got = append([]model.Estimate(nil), plan.Workers...)
	return p.Algorithm.Plan(plan)
}

func TestProbingRecoversTrueCosts(t *testing.T) {
	// On a noise-free platform the probing round must recover the true
	// affine cost parameters almost exactly.
	platform := simplePlatform(3)
	platform.Workers[1].Speed = 2
	app := simpleApp()
	backend, err := grid.New(platform, app, grid.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cap := &probeCapture{Algorithm: dls.NewUMR()}
	if _, err := runEngine(backend, cap, app, platform, engine.Config{ProbeLoad: 50}); err != nil {
		t.Fatal(err)
	}
	truth := model.TrueEstimates(nil, app, platform)
	for i, got := range cap.got {
		want := truth[i]
		if math.Abs(got.UnitComp-want.UnitComp)/want.UnitComp > 0.01 {
			t.Errorf("worker %d UnitComp = %g, true %g", i, got.UnitComp, want.UnitComp)
		}
		if math.Abs(got.UnitComm-want.UnitComm)/want.UnitComm > 0.01 {
			t.Errorf("worker %d UnitComm = %g, true %g", i, got.UnitComm, want.UnitComm)
		}
		if math.Abs(got.CommLatency-want.CommLatency) > 1e-9 {
			t.Errorf("worker %d CommLatency = %g, true %g", i, got.CommLatency, want.CommLatency)
		}
		if math.Abs(got.CompLatency-want.CompLatency) > 1e-9 {
			t.Errorf("worker %d CompLatency = %g, true %g", i, got.CompLatency, want.CompLatency)
		}
	}
}

func TestOracleSkipsProbing(t *testing.T) {
	platform := simplePlatform(2)
	app := simpleApp()
	backend, _ := grid.New(platform, app, grid.Config{Seed: 1})
	tr, err := runEngine(backend, dls.NewUMR(), app, platform, engine.Config{Oracle: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := tr.BuildReport(2)
	if rep.Probes != 0 {
		t.Errorf("oracle run recorded %d probes", rep.Probes)
	}
}

func TestDisableProbingGivesBlindEstimates(t *testing.T) {
	platform := simplePlatform(2)
	app := simpleApp()
	backend, _ := grid.New(platform, app, grid.Config{Seed: 1})
	cap := &probeCapture{Algorithm: dls.NewUMR()}
	if _, err := runEngine(backend, cap, app, platform, engine.Config{DisableProbing: true}); err != nil {
		t.Fatal(err)
	}
	for _, e := range cap.got {
		if e.UnitComp != 1 || e.UnitComm != 0 {
			t.Errorf("blind estimate = %+v, want unit-speed stub", e)
		}
	}
}

func TestProbeRecordsInTrace(t *testing.T) {
	platform := simplePlatform(4)
	app := simpleApp()
	backend, _ := grid.New(platform, app, grid.Config{Seed: 1})
	tr, err := runEngine(backend, dls.NewUMR(), app, platform, engine.Config{ProbeLoad: 20})
	if err != nil {
		t.Fatal(err)
	}
	probes := 0
	for _, r := range tr.Records() {
		if r.Probe {
			probes++
			if r.Size != 20 {
				t.Errorf("probe size %g, want 20", r.Size)
			}
		}
	}
	if probes != 4 {
		t.Errorf("%d probe records, want one per worker", probes)
	}
}

func TestDividerAlignsChunks(t *testing.T) {
	platform := simplePlatform(3)
	app := simpleApp()
	u, err := divide.NewUniform(1000, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	backend, _ := grid.New(platform, app, grid.Config{Seed: 1})
	tr, err := runEngine(backend, dls.NewWeightedFactoring(), app, platform, engine.Config{
		ProbeLoad: 10, Divider: u,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Records() {
		if r.Probe {
			continue
		}
		end := r.Offset + r.Size
		atBoundary := math.Abs(end-math.Round(end/7)*7) < 1e-6 || math.Abs(end-1000) < 1e-6
		if !atBoundary {
			t.Errorf("chunk [%g, %g) does not end at a 7-unit cut", r.Offset, end)
		}
	}
}

func TestChunksArePartition(t *testing.T) {
	// Real chunks must tile [0, TotalLoad) without gaps or overlaps.
	platform := simplePlatform(4)
	app := simpleApp()
	backend, _ := grid.New(platform, app, grid.Config{Seed: 5})
	tr, err := runEngine(backend, dls.NewFixedRUMR(), app, platform, engine.Config{ProbeLoad: 10})
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	for _, r := range tr.Records() {
		if !r.Probe {
			recs = append(recs, r)
		}
	}
	// Chunks are cut in offset order by construction of the dispatch
	// loop; sort defensively by offset anyway.
	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < len(recs); j++ {
			if recs[j].Offset < recs[i].Offset {
				recs[i], recs[j] = recs[j], recs[i]
			}
		}
	}
	cursor := 0.0
	for _, r := range recs {
		if math.Abs(r.Offset-cursor) > 1e-6 {
			t.Fatalf("gap/overlap at offset %g (cursor %g)", r.Offset, cursor)
		}
		cursor += r.Size
	}
	if math.Abs(cursor-1000) > 1e-6 {
		t.Errorf("chunks cover %g of 1000", cursor)
	}
}

func TestOutputReturnExtendsMakespan(t *testing.T) {
	platform := simplePlatform(2)
	app := simpleApp()
	app.OutputBytesPerUnit = 500 // half the input volume comes back
	backend, _ := grid.New(platform, app, grid.Config{Seed: 1})
	tr, err := runEngine(backend, dls.NewUMR(), app, platform, engine.Config{ProbeLoad: 10})
	if err != nil {
		t.Fatal(err)
	}
	sawOutput := false
	for _, r := range tr.Records() {
		if r.Probe {
			continue
		}
		if r.OutputEnd < r.CompEnd {
			t.Errorf("output arrived before compute finished: %+v", r)
		}
		if r.OutputEnd > r.CompEnd {
			sawOutput = true
		}
	}
	if !sawOutput {
		t.Error("no record shows output transfer time")
	}
}

// stallAlg declines to dispatch anything.
type stallAlg struct{ dls.Algorithm }

func (s *stallAlg) Next(dls.State) (dls.Decision, bool) { return dls.Decision{}, false }

func TestStallDetection(t *testing.T) {
	platform := simplePlatform(2)
	app := simpleApp()
	backend, _ := grid.New(platform, app, grid.Config{Seed: 1})
	_, err := runEngine(backend, &stallAlg{dls.NewSimple(1)}, app, platform, engine.Config{})
	if err == nil || !strings.Contains(err.Error(), "declined to dispatch") {
		t.Errorf("stalled run returned %v", err)
	}
}

// rogueAlg dispatches to a worker that does not exist.
type rogueAlg struct{ dls.Algorithm }

func (r *rogueAlg) Next(dls.State) (dls.Decision, bool) {
	return dls.Decision{Worker: 99, Size: 10}, true
}

func TestInvalidWorkerRejected(t *testing.T) {
	platform := simplePlatform(2)
	app := simpleApp()
	backend, _ := grid.New(platform, app, grid.Config{Seed: 1})
	_, err := runEngine(backend, &rogueAlg{dls.NewSimple(1)}, app, platform, engine.Config{})
	if err == nil || !strings.Contains(err.Error(), "invalid worker") {
		t.Errorf("rogue dispatch returned %v", err)
	}
}

func TestSubGranularityRemnantAbsorbed(t *testing.T) {
	// TotalLoad 1003 with MinChunk 10: no remnant below 10 units may be
	// left stranded; it must fold into the final chunk.
	platform := simplePlatform(3)
	app := simpleApp()
	app.TotalLoad = 1003
	app.MinChunk = 10
	backend, _ := grid.New(platform, app, grid.Config{Seed: 2})
	tr, err := runEngine(backend, dls.NewWeightedFactoring(), app, platform, engine.Config{ProbeLoad: 10})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, r := range tr.Records() {
		if !r.Probe {
			total += r.Size
		}
	}
	if math.Abs(total-1003) > 1e-6 {
		t.Errorf("computed %g of 1003", total)
	}
}

func TestMakespanIncludesProbing(t *testing.T) {
	platform := simplePlatform(2)
	app := simpleApp()
	run := func(probe bool) float64 {
		backend, _ := grid.New(platform, app, grid.Config{Seed: 1})
		cfg := engine.Config{ProbeLoad: 50}
		if !probe {
			cfg.Oracle = true
		}
		tr, err := runEngine(backend, dls.NewUMR(), app, platform, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Makespan()
	}
	withProbe, without := run(true), run(false)
	if withProbe <= without {
		t.Errorf("probing run (%.1f) not slower than oracle run (%.1f)", withProbe, without)
	}
}

func TestEngineRejectsInvalidApp(t *testing.T) {
	platform := simplePlatform(2)
	app := simpleApp()
	app.TotalLoad = 0
	backend, _ := grid.New(platform, simpleApp(), grid.Config{Seed: 1})
	if _, err := runEngine(backend, dls.NewUMR(), app, platform, engine.Config{}); err == nil {
		t.Error("invalid app accepted")
	}
}

// TestArenaLessRunsOwnTheirTraces: an Execute without an arena borrows
// a pooled workspace, and the trace it returns must be the caller's own.
// A second run, which may borrow the same workspace, must leave the
// first trace untouched, and the trace must be sized to its records.
func TestArenaLessRunsOwnTheirTraces(t *testing.T) {
	run := func(alg dls.Algorithm, load units.Load) *trace.Trace {
		t.Helper()
		platform := simplePlatform(3)
		app := simpleApp()
		app.TotalLoad = load
		b, err := grid.New(platform, app, grid.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := runEngine(b, alg, app, platform, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	first := run(dls.NewUMR(), 1000)
	want := slices.Clone(first.Records())
	if got := first.Records(); cap(got) != len(got) {
		t.Errorf("first trace has cap %d for %d records", cap(got), len(got))
	}
	second := run(dls.NewSimple(7), 600)
	if !slices.Equal(first.Records(), want) {
		t.Fatal("a second arena-less run changed the first run's trace")
	}
	if got := second.Records(); cap(got) != len(got) || len(got) == len(want) {
		t.Errorf("second trace has cap %d for %d records (first had %d)", cap(got), len(got), len(want))
	}
}
