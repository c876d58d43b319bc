package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"time"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/experiment"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/rng"
	"apstdv/internal/trace"
	"apstdv/internal/units"
	"apstdv/internal/workload"
)

// outcome is what the output check compares for one simulated run.
type outcome struct {
	cell     string
	makespan float64
	chunks   int
}

func (o outcome) equal(p outcome) bool {
	return o.cell == p.cell && math.Float64bits(o.makespan) == math.Float64bits(p.makespan) && o.chunks == p.chunks
}

// digest is the sha256 the golden file pins: every run's cell id,
// makespan float bits and chunk count, in pass order. (Every run of every
// workload is expected to complete, so there is no outcome to hash: a run
// that does not complete is an error of the pass.)
func digest(outs []outcome) string {
	h := sha256.New()
	var buf [8]byte
	for _, o := range outs {
		h.Write([]byte(o.cell))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(o.makespan))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(o.chunks))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// passStats are the exact counts of one pass; they repeat for a seed.
type passStats struct {
	chunks, retries, reshares int
}

// simWorkload is a fixed list of simulated runs. pass executes each
// once, in order: t == nil is the untraced program, otherwise every
// backend and algorithm is decorated. lat receives each run's host time
// in nanoseconds and out its outcome; both have length runs.
type simWorkload struct {
	name string
	runs int
	pass func(t *tracer, lat []float64, out []outcome) (passStats, error)
}

// soloRun is one single-job simulated run.
type soloRun struct {
	cell     string
	platform *model.Platform
	app      *model.Application
	newAlg   func() dls.Algorithm
	gcfg     grid.Config
	ecfg     engine.Config
}

// soloHarness executes soloRuns the way the experiment runner's pool
// slot does: one grid.Backend per platform, built on first use and
// Reset in place afterwards, and one engine.Arena for everything.
type soloHarness struct {
	backends map[*model.Platform]*grid.Backend
	traced   map[*model.Platform]*tracedGrid
	tracer   *tracer
	arena    *engine.Arena
	// report adds the per-run trace analysis experiment.Spec.Run does
	// (MeasureGamma and BuildReport), so a replica of a Spec costs what
	// the Spec costs.
	report bool
}

func newSoloHarness() *soloHarness {
	return &soloHarness{backends: map[*model.Platform]*grid.Backend{}, arena: engine.NewArena()}
}

// exec runs r and returns the engine's trace, borrowed from the arena
// until the next exec.
func (h *soloHarness) exec(r *soloRun, t *tracer) (*trace.Trace, error) {
	if t != h.tracer {
		h.tracer, h.traced = t, map[*model.Platform]*tracedGrid{}
	}
	b := h.backends[r.platform]
	if b == nil {
		if t != nil {
			t.begin(spGridNew)
		}
		nb, err := grid.New(r.platform, r.app, r.gcfg)
		if t != nil {
			t.end()
		}
		if err != nil {
			return nil, err
		}
		b = nb
		h.backends[r.platform] = b
	} else {
		if t != nil {
			t.begin(spGridReset)
		}
		err := b.Reset(r.app, r.gcfg)
		if t != nil {
			t.end()
		}
		if err != nil {
			return nil, err
		}
	}
	alg := r.newAlg()
	req := engine.Request{
		Backend: b, Algorithm: alg, App: r.app, Platform: r.platform,
		Config: r.ecfg, Arena: h.arena,
	}
	if t == nil {
		tr, err := engine.Execute(context.Background(), req)
		if err == nil && h.report {
			experiment.MeasureGamma(tr, r.platform)
			tr.BuildReport(len(r.platform.Workers))
		}
		return tr, err
	}
	tg := h.traced[r.platform]
	if tg == nil {
		tg = newTracedGrid(b, t)
		h.traced[r.platform] = tg
	}
	req.Backend = tg
	req.Algorithm = traceAlgorithm(alg, t)
	t.begin(spExecute)
	tr, err := engine.Execute(context.Background(), req)
	t.end()
	if err == nil && h.report {
		t.begin(spReport)
		experiment.MeasureGamma(tr, r.platform)
		tr.BuildReport(len(r.platform.Workers))
		t.end()
	}
	return tr, err
}

// conserved reports whether the completed, non-probe chunks of a trace
// add up to the application's load.
func conserved(tr *trace.Trace, app *model.Application) bool {
	sum := 0.0
	for _, r := range tr.Records() {
		if !r.Probe && !r.Failed {
			sum += r.Size
		}
	}
	total := float64(app.TotalLoad)
	return math.Abs(sum-total) <= 1e-6*total
}

func failedRecords(tr *trace.Trace) int {
	n := 0
	for _, r := range tr.Records() {
		if r.Failed {
			n++
		}
	}
	return n
}

// soloPass builds the pass function over a fixed run list.
func soloPass(h *soloHarness, runs []soloRun) func(*tracer, []float64, []outcome) (passStats, error) {
	return func(t *tracer, lat []float64, out []outcome) (passStats, error) {
		var st passStats
		for i := range runs {
			r := &runs[i]
			if t != nil {
				t.run = int32(i)
			}
			t0 := time.Now()
			tr, err := h.exec(r, t)
			lat[i] = float64(time.Since(t0))
			if err != nil {
				return st, fmt.Errorf("%s: %w", r.cell, err)
			}
			if !conserved(tr, r.app) {
				return st, fmt.Errorf("%s: completed chunks do not add up to the load %g", r.cell, float64(r.app.TotalLoad))
			}
			out[i] = outcome{cell: r.cell, makespan: tr.Makespan(), chunks: tr.Len()}
			st.chunks += tr.Len()
			st.retries += failedRecords(tr)
		}
		return st, nil
	}
}

func algByName(name string) func() dls.Algorithm {
	return func() dls.Algorithm {
		a, err := dls.New(name)
		if err != nil {
			panic(err) // the names are constants of this file
		}
		return a
	}
}

// paperSpecs returns the paper's four experiments with the seed folded
// in; seed 1 leaves them exactly as cmd/experiments runs them.
func paperSpecs(seed uint64) []*experiment.Spec {
	specs := experiment.All()
	for _, s := range specs {
		s.Seed += (seed - 1) * 7919
		s.Parallelism = 1
	}
	return specs
}

// paperRuns lists the (γ, algorithm, run) cells of the specs in
// Spec.Run's order with Spec.runOnce's seeds and configuration.
func paperRuns(specs []*experiment.Spec) []soloRun {
	var runs []soloRun
	for _, s := range specs {
		mk := s.Algorithms
		for _, gamma := range s.Gammas {
			app := s.App(gamma)
			for ai, a := range s.Algorithms() {
				for run := 0; run < s.Runs; run++ {
					runs = append(runs, soloRun{
						cell:     fmt.Sprintf("%s/g%g/%s/%d", s.ID, gamma, a.Name(), run),
						platform: s.Platform, app: app,
						newAlg: func() dls.Algorithm { return mk()[ai] },
						gcfg:   grid.Config{Seed: s.Seed + uint64(run)*1000003},
						ecfg:   engine.Config{ProbeLoad: s.ProbeLoad},
					})
				}
			}
		}
	}
	return runs
}

// newSimPaper is the paper's evaluation. The untraced pass goes through
// experiment.Spec.Run at Parallelism 1, as cmd/experiments does; Spec
// offers no seam for a backend decorator, so the traced pass executes
// the same cells through a replica of Spec.runOnce, and the cold pass
// proves run by run that the replica and Spec.Run agree.
func newSimPaper(seed uint64) (*simWorkload, error) {
	specs := paperSpecs(seed)
	runs := paperRuns(specs)
	h := newSoloHarness()
	h.report = true
	replica := soloPass(h, runs)

	// Spec.Run calls Spec.Algorithms once up front and once at the start
	// of every run, so stamping the calls times each run at width 1.
	var stamps []time.Time
	for _, s := range specs {
		inner := s.Algorithms
		s.Algorithms = func() []dls.Algorithm {
			stamps = append(stamps, time.Now())
			return inner()
		}
	}
	// Chunk counts are not part of an experiment.Result; the replica
	// supplies them once its makespans are known to match.
	ref := make([]outcome, len(runs))
	if _, err := replica(nil, make([]float64, len(runs)), ref); err != nil {
		return nil, err
	}
	totalChunks := 0
	for _, o := range ref {
		totalChunks += o.chunks
	}

	w := &simWorkload{name: "sim_paper", runs: len(runs)}
	w.pass = func(t *tracer, lat []float64, out []outcome) (passStats, error) {
		if t != nil {
			return replica(t, lat, out)
		}
		i := 0
		for _, s := range specs {
			stamps = stamps[:0]
			res, err := s.Run()
			end := time.Now()
			if err != nil {
				return passStats{}, err
			}
			n := 0
			for _, c := range res.Cells {
				n += len(c.Makespans)
			}
			if len(stamps) != n+1 {
				return passStats{}, fmt.Errorf("%s: %d runs but %d Algorithms calls", s.ID, n, len(stamps))
			}
			stamps = append(stamps, end)
			k := 0
			for _, c := range res.Cells {
				for _, m := range c.Makespans {
					lat[i] = float64(stamps[k+2].Sub(stamps[k+1]))
					out[i] = outcome{cell: ref[i].cell, makespan: m, chunks: ref[i].chunks}
					i++
					k++
				}
			}
		}
		return passStats{chunks: totalChunks}, nil
	}
	return w, nil
}

// newSimDispatch is plan-light and chunk-heavy: static and
// self-scheduling algorithms cutting the synthetic load into hundreds
// to thousands of chunks, so the engine, grid and sim hot path does the
// work and the planner almost none.
func newSimDispatch(seed uint64) (*simWorkload, error) {
	platforms := []*model.Platform{workload.DAS2(16), workload.Mixed(8, 8)}
	algs := []string{"simple-250", "simple-50", "gss", "tss", "factoring-plain", "wf"}
	app := workload.Synthetic(0.10)
	base := rng.StreamSeed(seed, "bench/sim_dispatch")
	var runs []soloRun
	for _, p := range platforms {
		for _, a := range algs {
			for k := 0; k < 5; k++ {
				runs = append(runs, soloRun{
					cell:     fmt.Sprintf("%s/%s/%d", p.Name, a, k),
					platform: p, app: app, newAlg: algByName(a),
					gcfg: grid.Config{Seed: base + uint64(k)*1000003},
					ecfg: engine.Config{ProbeLoad: 200},
				})
			}
		}
	}
	return &simWorkload{name: "sim_dispatch", runs: len(runs), pass: soloPass(newSoloHarness(), runs)}, nil
}

// newSimFaultTree runs the same engine and grid on tree topologies under
// worker crashes with retry and peer redistribution: link fair-share
// rescaling, deadline timers and the retry path do the work.
func newSimFaultTree(seed uint64) (*simWorkload, error) {
	platforms := []*model.Platform{
		workload.WithTreeTopology(workload.Mixed(8, 8)),
		workload.WithTreeTopology(workload.DAS2(16)),
	}
	algs := []string{"wf", "simple-50", "gss", "factoring-plain"}
	probs := []float64{0.125, 0.25}
	app := workload.Synthetic(0.10)
	retry := &engine.RetryPolicy{Redistribute: true, MaxAttempts: 6}
	base := rng.StreamSeed(seed, "bench/sim_fault_tree")
	h := newSoloHarness()
	var runs []soloRun
	for _, p := range platforms {
		for _, a := range algs {
			for k := 0; k < 8; k++ {
				r := soloRun{
					platform: p, app: app, newAlg: algByName(a),
					gcfg: grid.Config{Seed: base + uint64(k)*1000003},
					ecfg: engine.Config{ProbeLoad: 200, Retry: retry},
				}
				// The crash window sits inside the fault-free run.
				tr, err := h.exec(&r, nil)
				if err != nil {
					return nil, fmt.Errorf("fault-free %s/%s/%d: %w", p.Name, a, k, err)
				}
				span := tr.Makespan()
				for _, prob := range probs {
					r.cell = fmt.Sprintf("%s/%s/p%g/%d", p.Name, a, prob, k)
					// Input generation: take the first crash plan of this
					// cell's stream under which the run completes, so no
					// operation of the workload fails at any seed.
					found := false
					for c := 0; c < 32 && !found; c++ {
						fs := rng.StreamSeed(seed, fmt.Sprintf("bench/fault/%s/%d", r.cell, c))
						r.gcfg.Faults = grid.RandomCrashPlan(fs, len(p.Workers), prob, 0.15*span, 0.60*span)
						_, err := h.exec(&r, nil)
						found = err == nil
					}
					if !found {
						return nil, fmt.Errorf("%s: no crash plan in 32 lets the run complete", r.cell)
					}
					runs = append(runs, r)
				}
			}
		}
	}
	return &simWorkload{name: "sim_fault_tree", runs: len(runs), pass: soloPass(h, runs)}, nil
}

// worldSpec is one co-scheduled batch: jobs concurrent loads under a
// share policy on one platform. Each job is one run.
type worldSpec struct {
	cell   string
	policy string
	apps   []*model.Application
}

// partitionSubsets splits n workers into j contiguous blocks, as
// experiment/multijob.go does for the partition policy.
func partitionSubsets(n, j int) [][]int {
	subsets := make([][]int, j)
	next := 0
	for i := 0; i < j; i++ {
		size := n / j
		if i < n%j {
			size++
		}
		for w := 0; w < size; w++ {
			subsets[i] = append(subsets[i], next)
			next++
		}
	}
	return subsets
}

// runWorld executes one batch by the launch protocol of grid/multi.go:
// one goroutine per job, each started once the previous has entered Run.
func runWorld(p *model.Platform, ws *worldSpec, t *tracer, out []outcome) (passStats, error) {
	var st passStats
	j := len(ws.apps)
	all := make([]int, len(p.Workers))
	for i := range all {
		all[i] = i
	}
	var policy grid.SharePolicy
	subsets := make([][]int, j)
	switch ws.policy {
	case "partition":
		subsets = partitionSubsets(len(p.Workers), j)
	case "fair":
		policy = grid.FairPolicy()
	case "srpt":
		policy = grid.SRPTPolicy()
	}
	if t != nil {
		t.begin(spWorld)
		defer t.end()
	}
	world, err := grid.NewMultiWorld(p, policy)
	if err != nil {
		return st, err
	}
	views := make([]*grid.JobView, j)
	for i, app := range ws.apps {
		workers := subsets[i]
		if workers == nil {
			workers = all
		}
		if views[i], err = world.AddJob(app, workers, 0); err != nil {
			return st, err
		}
	}
	wt := &worldTrace{t: t, views: j}
	traces := make([]*trace.Trace, j)
	errs := make([]error, j)
	var wg sync.WaitGroup
	for i, v := range views {
		var b engine.Backend = v
		alg := dls.Algorithm(dls.NewWeightedFactoring())
		if t != nil {
			b = &tracedView{inner: v, w: wt}
			alg = traceAlgorithm(alg, t)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			traces[i], errs[i] = engine.Execute(context.Background(), engine.Request{
				Backend: b, Algorithm: alg, App: ws.apps[i],
			})
		}(i)
		select {
		case <-v.Entered():
		case <-time.After(30 * time.Second):
			world.Abort()
			wg.Wait()
			return st, fmt.Errorf("%s: job %d never entered Run", ws.cell, i)
		}
	}
	wg.Wait()
	for i, v := range views {
		if errs[i] != nil {
			return st, fmt.Errorf("%s: job %d: %w", ws.cell, i, errs[i])
		}
		if !conserved(traces[i], ws.apps[i]) {
			return st, fmt.Errorf("%s: job %d: completed chunks do not add up to the load", ws.cell, i)
		}
		out[i] = outcome{
			cell:     fmt.Sprintf("%s/job%d", ws.cell, i),
			makespan: world.FinishedAt(i) - v.Arrival(),
			chunks:   traces[i].Len(),
		}
		st.chunks += traces[i].Len()
	}
	st.reshares = world.Reshares()
	return st, nil
}

// newSimMultiJob is the second simulated world: grid.MultiWorld with its
// closure dispatch and compute-station share revision, under weighted
// factoring so that the planner does not mask the world.
func newSimMultiJob(seed uint64) (*simWorkload, error) {
	platform := workload.DAS2(8)
	src := rng.Stream(seed, "bench/sim_multijob")
	baseLoads := []float64{40000, 8000, 20000, 12000}
	apps := make([]*model.Application, len(baseLoads))
	for i, l := range baseLoads {
		load := math.Round(l*src.Uniform(0.9, 1.1)/10) * 10
		apps[i] = &model.Application{
			Name: "multijob", TotalLoad: units.Load(load),
			BytesPerUnit: 1000, UnitCost: 0.402, MinChunk: 10,
		}
	}
	var worlds []worldSpec
	runs := 0
	for _, j := range []int{2, 3, 4} {
		for _, policy := range []string{"partition", "fair", "srpt"} {
			worlds = append(worlds, worldSpec{
				cell: fmt.Sprintf("j%d/%s", j, policy), policy: policy, apps: apps[:j],
			})
			runs += j
		}
	}
	w := &simWorkload{name: "sim_multijob", runs: runs}
	w.pass = func(t *tracer, lat []float64, out []outcome) (passStats, error) {
		var st passStats
		i := 0
		for k := range worlds {
			ws := &worlds[k]
			j := len(ws.apps)
			if t != nil {
				t.run = int32(k)
			}
			t0 := time.Now()
			s, err := runWorld(platform, ws, t, out[i:i+j])
			d := float64(time.Since(t0))
			if err != nil {
				return st, err
			}
			// The jobs of a batch finish together in host time: each
			// waited for the whole batch.
			for n := 0; n < j; n++ {
				lat[i+n] = d
			}
			st.chunks += s.chunks
			st.reshares += s.reshares
			i += j
		}
		return st, nil
	}
	return w, nil
}
