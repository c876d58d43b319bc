package grid

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/model"
	"apstdv/internal/raceflag"
	"apstdv/internal/trace"
	"apstdv/internal/units"
	"apstdv/internal/workload"
)

func mjApp(load units.Load) *model.Application {
	return &model.Application{
		Name:         "multijob",
		TotalLoad:    load,
		BytesPerUnit: 1000,
		UnitCost:     0.402,
		MinChunk:     10,
	}
}

// executeMultiWorld runs a world's jobs on its drive loop (see
// engine.ExecuteShared) and returns each job's trace.
func executeMultiWorld(t *testing.T, w *MultiWorld, views []*JobView, apps []*model.Application) []*trace.Trace {
	t.Helper()
	trs, err := engine.ExecuteShared(w.Run, rumrRequests(views, apps))
	if err != nil {
		t.Fatal(err)
	}
	return trs
}

// rumrRequests returns one RUMR request per view.
func rumrRequests(views []*JobView, apps []*model.Application) []engine.Request {
	reqs := make([]engine.Request, len(views))
	for i, v := range views {
		reqs[i] = engine.Request{Backend: v, Algorithm: dls.NewRUMR(), App: apps[i]}
	}
	return reqs
}

// planRefused is RUMR whose Plan fails.
type planRefused struct{ dls.Algorithm }

var errPlanRefused = errors.New("plan refused")

func (planRefused) Plan(dls.Plan) error { return errPlanRefused }

// TestExecuteSharedErrors pins ExecuteShared's two kinds of failure on
// one world. An invalid request fails the batch before any request
// begins: no job issues an operation, the drive function never runs,
// and the world is left untouched for a later batch. A job whose plan
// fails does not stop the others, which still conserve their load. The
// error is the lowest-index failure's, naming its index.
func TestExecuteSharedErrors(t *testing.T) {
	loads := []units.Load{3000, 1000, 2000, 1500}
	w, views, apps := newTestWorld(t, FairPolicy(), loads, []float64{0, 50, 100, 150}, true, 0)
	reqs := rumrRequests(views, apps)
	reqs[1].Algorithm = nil
	reqs[2].Config.WorkerShares = []float64{1}
	ran := false
	trs, err := engine.ExecuteShared(func() { ran = true }, reqs)
	if err == nil || !strings.Contains(err.Error(), "request 1: engine: request has no algorithm") {
		t.Fatalf("error %v, want request 1's missing algorithm", err)
	}
	if trs != nil || ran || len(w.b.ops) != 0 || w.Reshares() != 0 || slices.ContainsFunc(w.b.jobs, func(j multiJob) bool { return j.finishedAt != 0 }) {
		t.Fatalf("a request began: traces %v, drive ran %v, %d ops, %d reshares, jobs %v",
			trs, ran, len(w.b.ops), w.Reshares(), w.b.jobs)
	}
	reqs[1].Algorithm = planRefused{dls.NewRUMR()}
	reqs[2].Config.WorkerShares = nil
	reqs[3].Algorithm = planRefused{dls.NewRUMR()}
	trs, err = engine.ExecuteShared(w.Run, reqs)
	if !errors.Is(err, errPlanRefused) || !strings.Contains(err.Error(), "request 1:") {
		t.Fatalf("error %v, want request 1's plan failure", err)
	}
	for _, i := range []int{0, 2} {
		if got, want := trs[i].BuildReport(8).TotalLoad, float64(loads[i]); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("job %d computed %v of load %v", i, got, want)
		}
	}
}

// newTestWorld builds a DAS-2×8 world with one multijob application per
// load: job i arrives at arrivals[i], returns outBytes per unit, and
// runs on every worker when shared, else on its slice of an even
// disjoint split.
func newTestWorld(t *testing.T, policy SharePolicy, loads []units.Load, arrivals []float64, shared bool, outBytes units.Bytes) (*MultiWorld, []*JobView, []*model.Application) {
	t.Helper()
	return newTestWorldOn(t, nil, policy, loads, arrivals, shared, outBytes)
}

// newTestWorldOn is newTestWorld on block b, or on a pooled block when b
// is nil.
func newTestWorldOn(t *testing.T, b *multiBlock, policy SharePolicy, loads []units.Load, arrivals []float64, shared bool, outBytes units.Bytes) (*MultiWorld, []*JobView, []*model.Application) {
	t.Helper()
	p := workload.DAS2(8)
	var w *MultiWorld
	if b != nil {
		w = newMultiWorld(p, policy, b)
	} else {
		var err error
		if w, err = NewMultiWorld(p, policy); err != nil {
			t.Fatal(err)
		}
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var views []*JobView
	var apps []*model.Application
	for i, load := range loads {
		subset := all
		if !shared {
			subset = all[i*len(all)/len(loads) : (i+1)*len(all)/len(loads)]
		}
		app := mjApp(load)
		app.OutputBytesPerUnit = outBytes
		v, err := w.AddJob(app, subset, arrivals[i])
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
		apps = append(apps, app)
	}
	return w, views, apps
}

// runMultiWorld runs a world's jobs (see executeMultiWorld) and returns
// per-job makespans measured from each job's arrival.
func runMultiWorld(t *testing.T, w *MultiWorld, views []*JobView, apps []*model.Application) []float64 {
	t.Helper()
	executeMultiWorld(t, w, views, apps)
	makespans := make([]float64, len(views))
	for i, v := range views {
		makespans[i] = w.FinishedAt(i) - v.Arrival()
		if makespans[i] <= 0 {
			t.Fatalf("job %d makespan %g, want > 0", i, makespans[i])
		}
	}
	return makespans
}

// TestMultiWorldSingleJobMatchesBackend pins the zero-contention
// baseline: one job alone in a MultiWorld completes in the same time as
// the same job on the single-job Backend — the shared queues and share
// machinery cost nothing when nobody shares.
func TestMultiWorldSingleJobMatchesBackend(t *testing.T) {
	app := mjApp(20000)
	platform := workload.DAS2(4)

	solo, err := New(platform, app, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := engine.Execute(context.Background(), engine.Request{
		Backend: solo, Algorithm: dls.NewRUMR(), App: app, Platform: platform,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Makespan()

	w, err := NewMultiWorld(platform, FairPolicy())
	if err != nil {
		t.Fatal(err)
	}
	v, err := w.AddJob(app, []int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := runMultiWorld(t, w, []*JobView{v}, []*model.Application{app})[0]
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("multi-world solo makespan %.6f, single-job backend %.6f", got, want)
	}
}

// TestMultiWorldFairAndSRPTBeatPartition pins the headline co-scheduling
// result: with heterogeneous loads, strict partitioning strands the
// short job's workers idle after it finishes, while work-conserving
// policies hand them to the survivor — lower aggregate makespan.
func TestMultiWorldFairAndSRPTBeatPartition(t *testing.T) {
	platform := workload.DAS2(8)
	apps := []*model.Application{mjApp(40000), mjApp(8000)}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}

	aggregate := func(policy SharePolicy, subsets [][]int) float64 {
		w, err := NewMultiWorld(platform, policy)
		if err != nil {
			t.Fatal(err)
		}
		var views []*JobView
		for i, app := range apps {
			v, err := w.AddJob(app, subsets[i], 0)
			if err != nil {
				t.Fatal(err)
			}
			views = append(views, v)
		}
		runMultiWorld(t, w, views, apps)
		agg := 0.0
		for i := range views {
			if m := w.FinishedAt(i); m > agg {
				agg = m
			}
		}
		return agg
	}

	partition := aggregate(nil, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}})
	fair := aggregate(FairPolicy(), [][]int{all, all})
	srpt := aggregate(SRPTPolicy(), [][]int{all, all})
	t.Logf("aggregate makespan: partition %.0fs, fair %.0fs, srpt %.0fs", partition, fair, srpt)
	if fair >= partition {
		t.Errorf("fair aggregate %.1f not below partition %.1f", fair, partition)
	}
	if srpt >= partition {
		t.Errorf("srpt aggregate %.1f not below partition %.1f", srpt, partition)
	}
}

// TestMultiWorldReshareOnCompletion pins the work-conserving hook: the
// policy runs at each arrival and at the short job's completion, and
// the short job finishes first.
func TestMultiWorldReshareOnCompletion(t *testing.T) {
	platform := workload.DAS2(4)
	apps := []*model.Application{mjApp(30000), mjApp(5000)}
	all := []int{0, 1, 2, 3}

	w, err := NewMultiWorld(platform, FairPolicy())
	if err != nil {
		t.Fatal(err)
	}
	var views []*JobView
	for _, app := range apps {
		v, err := w.AddJob(app, all, 0)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	runMultiWorld(t, w, views, apps)
	// Two activations plus the first completion revise shares; the last
	// job's completion leaves nobody to revise for.
	if got := w.Reshares(); got < 3 {
		t.Fatalf("reshares = %d, want >= 3", got)
	}
	if w.FinishedAt(1) >= w.FinishedAt(0) {
		t.Fatalf("short job finished at %.1f, after long job's %.1f",
			w.FinishedAt(1), w.FinishedAt(0))
	}
}

// TestMultiWorldDeterministicAndStaggered pins determinism (two
// identical worlds produce bit-identical finish times) with a staggered
// arrival in the mix.
func TestMultiWorldDeterministicAndStaggered(t *testing.T) {
	platform := workload.DAS2(4)
	apps := []*model.Application{mjApp(20000), mjApp(6000)}
	all := []int{0, 1, 2, 3}
	const arrival = 500.0

	run := func() [2]float64 {
		w, err := NewMultiWorld(platform, SRPTPolicy())
		if err != nil {
			t.Fatal(err)
		}
		v0, err := w.AddJob(apps[0], all, 0)
		if err != nil {
			t.Fatal(err)
		}
		v1, err := w.AddJob(apps[1], all, arrival)
		if err != nil {
			t.Fatal(err)
		}
		runMultiWorld(t, w, []*JobView{v0, v1}, apps)
		return [2]float64{w.FinishedAt(0), w.FinishedAt(1)}
	}

	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic finish times: %v vs %v", a, b)
	}
	if a[1] <= arrival {
		t.Fatalf("staggered job finished at %.1f, before its own arrival %g", a[1], arrival)
	}
}

// TestMultiWorldMatchesGolden pins the shared world at full precision:
// partition, fair and srpt with 2, 3 and 4 RUMR jobs arriving 500 s
// apart on DAS-2×8, plus fair over the partition's disjoint subsets,
// where every revision leaves a share unchanged (and revise skips it),
// plus partition and fair with 3 output-returning jobs, the only runs
// that take the shared downlink. Each manifest line hashes every job's
// trace records and finish time by their bits, then the reshare count.
// The multijob sweep prints rounded numbers for simultaneous arrivals
// only; this is the check that a change to share revision or to the
// shared queues moved nothing. On a mismatch the computed manifest is
// logged.
func TestMultiWorldMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "multiworld_golden.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, policy := range []string{"partition", "fair", "srpt", "fairsplit"} {
		for jobs := 2; jobs <= 4; jobs++ {
			fmt.Fprintf(&got, "%x %s/%d\n", goldenWorldHash(t, nil, policy, jobs, 0), policy, jobs)
		}
	}
	for _, policy := range []string{"partition", "fair"} {
		fmt.Fprintf(&got, "%x %s-output/3\n", goldenWorldHash(t, nil, policy, 3, 500), policy)
	}
	if got.String() != string(want) {
		t.Errorf("multi-world schedules drifted from testdata/multiworld_golden.sha256; computed manifest:\n%s", got.String())
	}
}

// goldenWorldHash runs one TestMultiWorldMatchesGolden world on DAS-2×8
// — jobs RUMR jobs arriving 500 s apart, each returning outBytes per
// unit — on block blk (nil: a pooled one) and returns the sha256 of its
// schedules.
func goldenWorldHash(t *testing.T, blk *multiBlock, policy string, jobs int, outBytes units.Bytes) [sha256.Size]byte {
	t.Helper()
	var sp SharePolicy
	switch policy {
	case "fair", "fairsplit":
		sp = FairPolicy()
	case "srpt":
		sp = SRPTPolicy()
	}
	loads := []units.Load{40000, 8000, 20000, 12000}[:jobs]
	arrivals := []float64{0, 500, 1000, 1500}[:jobs]
	shared := sp != nil && policy != "fairsplit"
	w, views, apps := newTestWorldOn(t, blk, sp, loads, arrivals, shared, outBytes)
	var buf []byte
	u := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	returned := false
	for i, tr := range executeMultiWorld(t, w, views, apps) {
		for _, r := range tr.Records() {
			returned = returned || r.OutputEnd > r.CompEnd
			u(uint64(r.Chunk))
			u(uint64(r.Worker))
			f(r.Offset)
			f(r.Size)
			b(r.Probe)
			f(r.SendStart)
			f(r.SendEnd)
			f(r.CompStart)
			f(r.CompEnd)
			f(r.OutputEnd)
			u(uint64(r.Attempt))
			b(r.Failed)
		}
		f(w.FinishedAt(i))
	}
	u(uint64(w.Reshares()))
	if returned != (outBytes > 0) {
		t.Fatalf("%s/%d with %g output bytes per unit: a return took the downlink = %v", policy, jobs, float64(outBytes), returned)
	}
	return sha256.Sum256(buf)
}

// multiWorldAllocBudget bounds the allocations of one whole shared
// world: three fair-shared RUMR jobs on DAS-2×8, built, executed on the
// drive loop (engine.ExecuteShared) and drained. The world's heap,
// queues, op table, stations and share rows live in a pooled block, the
// engine's completion cells and the arena-less executions' workspaces
// are pooled too, so issuing an operation allocates nothing, and RUMR's
// switch log keeps its storage from drain to drain. What is left, 71
// allocations, is: RUMR's planning and phase switch (about 27: its
// round plans, γ estimates and switch-log text); this test's fixture
// (about 25: the DAS-2×8 platform, the applications, the policy and
// its scratch, the view and request slices); the engine (8: its result
// slices and each job's right-sized trace copy); and the world (9:
// itself, its barrier latch, each view with its Entered channel, and
// the finish times it keeps after the drain). A world that grew its
// block from zero took 155, with a switch log that regrew after every
// drain; driving this one by JobView.Run's barrier instead, one
// goroutine per job (executeBarrier), takes 74.
const multiWorldAllocBudget = 74

// TestMultiWorldAllocationRegression pins the closure-free dispatch of
// the shared world: a per-operation closure or a per-station pointer
// coming back shows up here as hundreds of allocations.
func TestMultiWorldAllocationRegression(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates on allocation-free paths")
	}
	run := func() {
		w, views, apps := newTestWorld(t, FairPolicy(), []units.Load{40000, 8000, 20000}, []float64{0, 0, 0}, true, 0)
		executeMultiWorld(t, w, views, apps)
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs > multiWorldAllocBudget {
		t.Fatalf("one shared world allocated %.0f times; budget %d", allocs, multiWorldAllocBudget)
	}
}
