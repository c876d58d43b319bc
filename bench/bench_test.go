package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/trace"
	"apstdv/internal/workload"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{12, 60, 420, 840, 999, 1000, 1200, 80000} {
		q := tailQuantile(n, 0.99)
		if q > 0.99 || q < 0.5 {
			t.Fatalf("n=%d: quantile %g outside [0.5, 0.99]", n, q)
		}
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		v := quantileSorted(sorted, q)
		beyond := n - 1 - int(v)
		if n >= 20 && beyond < 10 {
			t.Errorf("n=%d: q=%g leaves %d samples beyond, want at least 10", n, q, beyond)
		}
		// It is the highest such percentile: one rank up breaks the rule
		// or passes the target.
		if q < 0.99 && n >= 20 && beyond > 10 {
			t.Errorf("n=%d: q=%g leaves %d samples beyond; a higher percentile would still keep 10", n, q, beyond)
		}
	}
	if q := tailQuantile(1000, 0.99); q != 0.99 {
		t.Errorf("1000 samples support p99, got %g", q)
	}
}

func TestScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	a := poissonSchedule(7, 0, openRate, 10*time.Second, openBigShare)
	b := poissonSchedule(7, 0, openRate, 10*time.Second, openBigShare)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	c := poissonSchedule(8, 0, openRate, 10*time.Second, openBigShare)
	if reflect.DeepEqual(a, c) || reflect.DeepEqual(a, poissonSchedule(7, 1, openRate, 10*time.Second, openBigShare)) {
		t.Fatal("two seeds, or two segments of one seed, gave the same schedule")
	}
	if n := float64(len(a)); math.Abs(n-10*openRate) > 0.07*10*openRate {
		t.Errorf("%g arrivals in 10 s at %g/s", n, openRate)
	}
	big := 0
	for i, x := range a {
		if i > 0 && x.at < a[i-1].at {
			t.Fatal("arrivals out of order")
		}
		if x.kind == kindBig {
			big++
		}
	}
	if share := float64(big) / float64(len(a)); math.Abs(share-openBigShare) > 0.03 {
		t.Errorf("big-job share %g, want about %g", share, openBigShare)
	}
}

func TestSpanSelfTimeOnAHandBuiltTree(t *testing.T) {
	// Execute [0,100] { Run [10,90] { done [20,40] { Next [25,30] } done [50,80] } }
	tr := newTracer()
	tr.beginAt(spExecute, 0)
	tr.beginAt(spGridRun, 10)
	tr.beginAt(spEngineDone, 20)
	tr.beginAt(spDLSNext, 25)
	tr.endAt(30)
	tr.endAt(40)
	tr.beginAt(spEngineDone, 50)
	tr.endAt(80)
	tr.endAt(90)
	tr.endAt(100)
	want := map[spanName]int64{spExecute: 20, spGridRun: 30, spEngineDone: 15 + 30, spDLSNext: 5}
	for n, w := range want {
		if tr.self[n] != w {
			t.Errorf("%s: self %d, want %d", spanInfo[n].name, tr.self[n], w)
		}
	}
	layers := tr.layerSelf(spanCost{})
	if layers[layerEngine] != 65 || layers[layerGrid] != 30 || layers[layerDLS] != 5 {
		t.Errorf("layer self times %v", layers)
	}
	if tr.kids[spGridRun] != 2 || tr.kids[spExecute] != 1 || tr.count[spEngineDone] != 2 {
		t.Errorf("child and call counts: kids %v count %v", tr.kids, tr.count)
	}
	// Net of a tracer cost of 1 inside and 2 outside per span.
	if got := tr.netSelf(spGridRun, spanCost{inside: 1, outside: 2}); got != 30-1-2*2 {
		t.Errorf("net self of grid.Run = %g", got)
	}
	if len(tr.spans) != 5 || tr.spans[3].Parent != 2 || tr.spans[4].Parent != 1 || tr.spans[0].Parent != -1 {
		t.Errorf("span parents wrong: %+v", tr.spans)
	}
}

// backendIfaces names the optional engine interfaces b implements.
func backendIfaces(b engine.Backend) string {
	var s []string
	if _, ok := b.(engine.OpBackend); ok {
		s = append(s, "OpBackend")
	}
	if _, ok := b.(engine.PeerBackend); ok {
		s = append(s, "PeerBackend")
	}
	if _, ok := b.(engine.Timer); ok {
		s = append(s, "Timer")
	}
	if _, ok := b.(engine.Stopper); ok {
		s = append(s, "Stopper")
	}
	return strings.Join(s, ",")
}

// algIfaces names the optional dls interfaces a implements.
func algIfaces(a dls.Algorithm) string {
	var s []string
	if _, ok := a.(dls.Recalibrator); ok {
		s = append(s, "Recalibrator")
	}
	if _, ok := a.(dls.WorkerLossAware); ok {
		s = append(s, "WorkerLossAware")
	}
	if _, ok := a.(dls.RedistributionAware); ok {
		s = append(s, "RedistributionAware")
	}
	if _, ok := a.(dls.SwitchObservable); ok {
		s = append(s, "SwitchObservable")
	}
	return strings.Join(s, ",")
}

// checkTransparent fails when a decorator's optional-interface set
// differs from that of the value it wraps.
func checkTransparent(kind, bare, decorated string) error {
	if bare != decorated {
		return fmt.Errorf("decorated %s exposes {%s}, the bare one {%s}", kind, decorated, bare)
	}
	return nil
}

func TestDecoratorsExposeExactlyTheWrappedInterfaces(t *testing.T) {
	tr := newTracer()
	names := append(dls.Names(), "simple-250", "mi-5")
	for _, n := range names {
		a, err := dls.New(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkTransparent(n, algIfaces(a), algIfaces(traceAlgorithm(a, tr))); err != nil {
			t.Error(err)
		}
	}
	oracle := dls.NewOracleRUMR(0.1)
	if err := checkTransparent("oracle-rumr", algIfaces(oracle), algIfaces(traceAlgorithm(oracle, tr))); err != nil {
		t.Error(err)
	}
	p := workload.DAS2(4)
	app := workload.Synthetic(0)
	b, err := grid.New(p, app, grid.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTransparent("grid.Backend", backendIfaces(b), backendIfaces(newTracedGrid(b, tr))); err != nil {
		t.Error(err)
	}
	w, err := grid.NewMultiWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := w.AddJob(app, []int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var bare engine.Backend = v
	if err := checkTransparent("grid.JobView", backendIfaces(bare), backendIfaces(&tracedView{inner: v, w: &worldTrace{t: tr, views: 1}})); err != nil {
		t.Error(err)
	}
}

func csvOf(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestDecoratedRunsAreByteIdentical(t *testing.T) {
	// A crash run on a tree exercises op dispatch, timers, retry and the
	// peer path; a probing run the closure forms.
	p := workload.WithTreeTopology(workload.DAS2(8))
	app := workload.Synthetic(0.10)
	runs := []soloRun{
		{
			cell: "crash", platform: p, app: app, newAlg: algByName("wf"),
			gcfg: grid.Config{Seed: 3, Faults: &grid.FaultPlan{Faults: []grid.WorkerFault{
				{Worker: 2, Kind: grid.FaultCrash, At: 2000}, {Worker: 5, Kind: grid.FaultCrash, At: 5000},
			}}},
			ecfg: engine.Config{ProbeLoad: 200, Retry: &engine.RetryPolicy{Redistribute: true, MaxAttempts: 6}},
		},
		{
			cell: "rumr", platform: workload.Mixed(4, 4), app: app, newAlg: algByName("rumr"),
			gcfg: grid.Config{Seed: 5}, ecfg: engine.Config{ProbeLoad: 200},
		},
	}
	for i := range runs {
		r := &runs[i]
		bareTr, err := newSoloHarness().exec(r, nil)
		if err != nil {
			t.Fatalf("%s bare: %v", r.cell, err)
		}
		bare := csvOf(t, bareTr)
		tracer := newTracer()
		decTr, err := newSoloHarness().exec(r, tracer)
		if err != nil {
			t.Fatalf("%s decorated: %v", r.cell, err)
		}
		if !bytes.Equal(bare, csvOf(t, decTr)) {
			t.Errorf("%s: decorated trace differs from the bare one", r.cell)
		}
		if len(tracer.stack) != 0 {
			t.Errorf("%s: %d spans left open", r.cell, len(tracer.stack))
		}
		if r.cell == "crash" && (tracer.count[spGridPeer] == 0 || tracer.count[spEngineTimer]+tracer.count[spGridCancelTimer] == 0) {
			t.Errorf("crash run made %d peer transfers and armed no timers: the run does not cover the fault path",
				tracer.count[spGridPeer])
		}
	}

	// The multi-job world, bare against decorated.
	mj, err := newSimMultiJob(1)
	if err != nil {
		t.Fatal(err)
	}
	bare := make([]outcome, mj.runs)
	dec := make([]outcome, mj.runs)
	lat := make([]float64, mj.runs)
	sb, err := mj.pass(nil, lat, bare)
	if err != nil {
		t.Fatal(err)
	}
	tracer := newTracer()
	sd, err := mj.pass(tracer, lat, dec)
	if err != nil {
		t.Fatal(err)
	}
	if digest(bare) != digest(dec) || sb != sd {
		t.Errorf("multi-job: decorated pass differs: %+v against %+v", sd, sb)
	}
	if len(tracer.stack) != 0 || tracer.count[spGridStop] != int64(mj.runs) {
		t.Errorf("multi-job: %d spans open, %d Stop calls for %d jobs", len(tracer.stack), tracer.count[spGridStop], mj.runs)
	}
}

// benchmarkFile is BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloadDefs) || len(f.EndToEnd) != len(e2eDefs) || len(f.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the tables %d, %d, %d",
			len(f.Workloads), len(f.EndToEnd), len(f.PerLayer), len(workloadDefs), len(e2eDefs), len(layerDefs))
	}
	for i, w := range workloadDefs {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v against %+v", i, f.Workloads[i], w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for i, d := range e2eDefs {
		g := f.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v against %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range layerDefs {
		g := f.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: %+v against %+v", i, g, d)
		}
		if d.Layer == "" || d.Src == "" || d.Moves == "" {
			t.Errorf("%s: layer, source and expected movement must be stated", d.Name)
		}
	}
}

func TestRunReportsEveryEndToEndMetricWithAUnit(t *testing.T) {
	r, err := runOne("sim_multijob", 1, 0.05, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 {
		t.Fatalf("sim_multijob at seed 1: correct=%v failed=%d notes=%v", r.Correct, r.Failed, r.Notes)
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(r.contractLine()), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(e2eDefs) {
		t.Errorf("%d metrics on the contract line, want %d", len(line.Metrics), len(e2eDefs))
	}
	for _, d := range e2eDefs {
		m, ok := line.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || m.Value <= 0 {
			t.Errorf("%s: on the line %v, value %g unit %q, want unit %q and a positive value", d.Name, ok, m.Value, m.Unit, d.Unit)
		}
	}
	// A traced result that lacks a per-layer metric, or a result whose
	// digest is not the golden one, is judged wrong.
	tr := newResult("sim_multijob", 1, true)
	tr.Digest, tr.Attempted = r.Digest, 1
	tr.judge()
	if tr.Correct {
		t.Error("a traced result with no per-layer metrics was judged correct")
	}
	bad := *r
	bad.Digest = "0000"
	bad.judge()
	if bad.Correct || bad.Failed != bad.Attempted {
		t.Error("a digest that differs from golden.json was judged correct")
	}
}
