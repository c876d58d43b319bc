package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"apstdv/internal/stats"
)

// measured is one reported number with the noise floor behind it: the
// lowest, median and highest of the N per-block (or per-set-up) values
// it summarises. Value is what gates and comparisons use.
type measured struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Min    float64 `json:"min,omitempty"`
	Median float64 `json:"median,omitempty"`
	Max    float64 `json:"max,omitempty"`
	N      int     `json:"n,omitempty"`
}

func fromSummary(m minMedMax, unit string) measured {
	return measured{Value: m.Median, Unit: unit, Min: m.Min, Median: m.Median, Max: m.Max, N: m.N}
}

func scalar(v float64, unit string) measured { return measured{Value: v, Unit: unit} }

// blockTarget is the least host time a timed block spans. Passes shorter
// than this are grouped, so that a block's CPU time is well above the
// kernel's accounting tick and its latency tail has samples behind it.
const blockTarget = 250 * time.Millisecond

// simBlocks is the raw material of a timed section: one entry per block.
type simBlocks struct {
	passesPerBlock int
	wallPerPass    []float64 // ns
	cpuPerPass     []float64 // ns
	latTail        []float64 // ns, over the block's runs
	rssKB          []float64 // VmRSS at the end of each block
	tailQ          float64
	passes         int
	stats          passStats // counts of one pass
	attempted      int
	failed         int
	mallocs        uint64
	// factor is each block's host factor (see hostFactor): the raw
	// times above are divided by it before they are reported.
	factor []float64
}

// runBlocks repeats the workload's pass for about budget, verifying
// every pass's outcomes against ref outside the timed region.
func runBlocks(w *simWorkload, t *tracer, budget time.Duration, ref []outcome) (*simBlocks, error) {
	lat := make([]float64, w.runs)
	out := make([]outcome, w.runs)

	// Warm up: arenas sized, code paths hot; the pass time sets the
	// block size.
	var warm time.Duration
	for i := 0; i < 2 || warm < 50*time.Millisecond; i++ {
		t0 := time.Now()
		if _, err := w.pass(t, lat, out); err != nil {
			return nil, err
		}
		warm = time.Since(t0)
		if i >= 20 {
			break
		}
	}
	k := int(math.Ceil(float64(blockTarget) / float64(warm)))
	if k < 1 {
		k = 1
	}
	b := &simBlocks{passesPerBlock: k}
	blockLat := make([]float64, 0, k*w.runs)

	cal := calibrate()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for len(b.wallPerPass) < 3 || time.Since(start) < budget {
		var wall, cpu time.Duration
		blockLat = blockLat[:0]
		for p := 0; p < k; p++ {
			c0 := cpuTime()
			t0 := time.Now()
			st, err := w.pass(t, lat, out)
			wall += time.Since(t0)
			cpu += cpuTime() - c0
			if err != nil {
				return nil, err
			}
			b.stats = st
			b.passes++
			b.attempted += w.runs
			for i := range out {
				if !out[i].equal(ref[i]) {
					b.failed++
				}
			}
			blockLat = append(blockLat, lat...)
		}
		b.wallPerPass = append(b.wallPerPass, float64(wall)/float64(k))
		b.cpuPerPass = append(b.cpuPerPass, float64(cpu)/float64(k))
		s := sortedCopy(blockLat)
		b.tailQ = tailQuantile(len(s), 0.99)
		b.latTail = append(b.latTail, quantileSorted(s, b.tailQ))
		b.rssKB = append(b.rssKB, procStatusKB("VmRSS"))
		next := calibrate()
		b.factor = append(b.factor, hostFactor(cal, next))
		cal = next
	}
	runtime.ReadMemStats(&ms1)
	b.mallocs = ms1.Mallocs - ms0.Mallocs
	return b, nil
}

// A run sets its workload up from nothing at least setupRounds times,
// and keeps going for cheap set-ups until setupBudget is spent or
// maxSetupRounds reached; setup_s is the median. A 3 ms set-up measured
// five times would be too noisy to gate on.
const (
	setupRounds    = 5
	maxSetupRounds = 40
	setupBudget    = 500 * time.Millisecond
)

// moreSetups reports whether another set-up round is due.
func moreSetups(done int, since time.Time, rounds int) bool {
	if rounds < setupRounds {
		return done < rounds // a traced run sets up once
	}
	return done < setupRounds || (done < maxSetupRounds && time.Since(since) < setupBudget)
}

// simSetup builds the workload and runs its cold pass, rounds times
// over or more (see moreSetups), returning the last instance, its
// cold-pass outcomes and the set-up times at reference host speed. Every round must produce the same outcomes.
func simSetup(mk func(uint64) (*simWorkload, error), seed uint64, rounds int) (*simWorkload, []outcome, []float64, error) {
	var w *simWorkload
	var ref []outcome
	var times []float64
	cal := calibrate()
	began := time.Now()
	for r := 0; moreSetups(r, began, rounds); r++ {
		t0 := time.Now()
		nw, err := mk(seed)
		if err != nil {
			return nil, nil, nil, err
		}
		out := make([]outcome, nw.runs)
		if _, err := nw.pass(nil, make([]float64, nw.runs), out); err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if ref != nil && digest(ref) != digest(out) {
			return nil, nil, nil, fmt.Errorf("%s: two set-ups at seed %d disagree", nw.name, seed)
		}
		w, ref = nw, out
	}
	return w, ref, scale(times, 1/hostFactor(cal, calibrate())), nil
}

var simWorkloads = map[string]func(uint64) (*simWorkload, error){
	"sim_paper":      newSimPaper,
	"sim_dispatch":   newSimDispatch,
	"sim_fault_tree": newSimFaultTree,
	"sim_multijob":   newSimMultiJob,
}

// measureSim is the untraced run of a sim workload: the end-to-end
// metrics.
func measureSim(name string, seed uint64, seconds float64) (*result, error) {
	w, ref, setups, err := simSetup(simWorkloads[name], seed, setupRounds)
	if err != nil {
		return nil, err
	}
	res := newResult(name, seed, false)
	res.Digest = digest(ref)
	b, err := runBlocks(w, nil, time.Duration(seconds*float64(time.Second)), ref)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	runs := float64(w.runs)

	ops := make([]float64, len(b.wallPerPass))
	for i, ns := range b.wallPerPass {
		ops[i] = runs / (ns / 1e9)
	}
	res.E2E["setup_s"] = fromSummary(summarize(setups), "s")
	res.E2E["ops_per_s"] = fromSummary(summarize(mulEach(ops, b.factor)), "1/s")
	res.E2E["cpu_us_per_op"] = fromSummary(summarize(divEach(scale(b.cpuPerPass, 1e-3/runs), b.factor)), "us")
	res.E2E["allocs_per_op"] = scalar(float64(b.mallocs)/float64(b.passes)/runs, "count")
	res.E2E["latency_p50_ms"] = fromSummary(summarize(divEach(scale(b.wallPerPass, 1e-6/runs), b.factor)), "ms")
	res.E2E["rss_mb"] = fromSummary(summarize(scale(b.rssKB, 1.0/1024)), "MB")

	b.context(res.Info)
	res.Info["latency_p99_ms"] = fromSummary(summarize(divEach(scale(b.latTail, 1e-6), b.factor)), "ms")
	res.Info["raw.ops_per_s"] = fromSummary(summarize(ops), "1/s")
	res.Info["raw.cpu_us_per_op"] = fromSummary(summarize(scale(b.cpuPerPass, 1e-3/runs)), "us")
	res.Info["peak_rss_mb"] = scalar(procStatusKB("VmHWM")/1024, "MB")
	res.Info["engine.chunks_per_run"] = scalar(float64(b.stats.chunks)/runs, "count")
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d runs per pass, %d passes in %d blocks of %d; latency tail is p%.1f of %d runs per block",
			w.runs, b.passes, len(b.wallPerPass), b.passesPerBlock, b.tailQ*100, w.runs*b.passesPerBlock))
	return res, nil
}

// context reports what every number of the section should be read
// against: the cost per chunk, the spread over blocks before and after
// scaling to reference host speed, and the host factor itself.
func (b *simBlocks) context(into map[string]measured) {
	norm := summarize(divEach(b.wallPerPass, b.factor))
	into["bench.ns_per_chunk"] = scalar(norm.Median/float64(b.stats.chunks), "ns")
	into["bench.pass_spread_pct"] = scalar(norm.spreadPct(), "%")
	into["bench.raw_pass_spread_pct"] = scalar(summarize(b.wallPerPass).spreadPct(), "%")
	hostContext(b.factor, into)
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// layerMetrics turns a tracer's totals over passes traced passes of a
// workload into the trace-derived per-layer metrics.
func layerMetrics(t *tracer, c spanCost, passes, runs int, st passStats, into map[string]measured) {
	perRun := float64(passes * runs)
	chunks := float64(passes * st.chunks)
	layers := t.layerSelf(c)
	all := 0.0
	for _, ns := range layers {
		all += ns
	}
	share := func(l string) float64 {
		if all == 0 {
			return 0
		}
		return layers[l] / all
	}
	planNs, plans := t.selfOf(c, spDLSPlan)
	nextNs, _ := t.selfOf(c, spDLSNext, spDLSDispatched, spDLSObserve)
	gridNs, gridOps := t.selfOf(c, spGridTransfer, spGridExecute, spGridReturn, spGridPeer, spGridRun)
	gridOps -= t.count[spGridRun]
	peerOps := t.count[spGridPeer]

	into["dls.self_share"] = scalar(share(layerDLS), "fraction")
	into["dls.plan_us_per_run"] = scalar(planNs/1e3/perRun, "us")
	into["dls.next_ns_per_chunk"] = scalar(nextNs/chunks, "ns")
	into["dls.plans_per_run"] = scalar(float64(plans)/perRun, "count")
	into["engine.self_share"] = scalar(share(layerEngine), "fraction")
	into["engine.self_ns_per_chunk"] = scalar(layers[layerEngine]/chunks, "ns")
	into["engine.chunks_per_run"] = scalar(float64(st.chunks)/float64(runs), "count")
	into["engine.retries_per_run"] = scalar(float64(st.retries)/float64(runs), "count")
	into["engine.redistributed_per_run"] = scalar(float64(peerOps)/perRun, "count")
	into["grid.self_share"] = scalar(share(layerGrid), "fraction")
	into["grid.self_ns_per_op"] = scalar(gridNs/float64(gridOps), "ns")
	into["grid.ops_per_run"] = scalar(float64(gridOps)/perRun, "count")
	into["grid.peer_ops_per_run"] = scalar(float64(peerOps)/perRun, "count")
	into["grid.multi_reshares"] = scalar(float64(st.reshares), "count")
	into["trace.self_share"] = scalar(share(layerTrace), "fraction")
}

// tracedPasses runs the workload decorated for about budget and checks
// that every traced pass reproduces the untraced outcomes.
func tracedPasses(w *simWorkload, budget time.Duration, ref []outcome) (t *tracer, passes int, st passStats, medianNs float64, failed int, err error) {
	lat := make([]float64, w.runs)
	out := make([]outcome, w.runs)
	// A warm-up pass on a throwaway tracer sizes the decorated path.
	if _, err = w.pass(newTracer(), lat, out); err != nil {
		return nil, 0, st, 0, 0, err
	}
	t = newTracer()
	var walls []float64
	start := time.Now()
	for passes < 3 || time.Since(start) < budget {
		t0 := time.Now()
		st, err = w.pass(t, lat, out)
		walls = append(walls, float64(time.Since(t0)))
		if err != nil {
			return nil, 0, st, 0, 0, err
		}
		passes++
		for i := range out {
			if !out[i].equal(ref[i]) {
				failed++
			}
		}
	}
	return t, passes, st, stats.Median(walls), failed, nil
}

// traceSim is the traced run of a sim workload: a short untraced
// section for the baseline, the decorated passes, then the direct
// timings of each layer's public functions.
func traceSim(name string, seed uint64, seconds float64, outDir string) (*result, error) {
	w, ref, _, err := simSetup(simWorkloads[name], seed, 1)
	if err != nil {
		return nil, err
	}
	res := newResult(name, seed, true)
	res.Digest = digest(ref)
	section := time.Duration(seconds * 0.3 * float64(time.Second))
	b, err := runBlocks(w, nil, section, ref)
	if err != nil {
		return nil, err
	}
	t, passes, st, tracedNs, failed, err := tracedPasses(w, section, ref)
	if err != nil {
		return nil, err
	}
	res.Attempted = b.attempted + passes*w.runs
	res.Failed = b.failed + failed
	if failed > 0 {
		res.Notes = append(res.Notes, "the traced passes' outcomes differ from the untraced ones")
	}
	cost := measureSpanCost()
	layerMetrics(t, cost, passes, w.runs, st, res.Layer)
	b.context(res.Layer)
	delete(res.Layer, "bench.raw_pass_spread_pct")
	res.Layer["latency_p99_ms"] = fromSummary(summarize(divEach(scale(b.latTail, 1e-6), b.factor)), "ms")
	res.Layer["bench.trace_overhead_pct"] = scalar((tracedNs/stats.Median(b.wallPerPass)-1)*100, "%")
	res.Layer["bench.disturbed_windows"] = scalar(0, "count")
	if err := microMetrics(res.Layer); err != nil {
		return nil, err
	}
	f := &traceFile{Workload: name, Seed: seed, Context: res.Context, Metrics: res.Layer}
	t.fill(f, cost)
	path, err := writeTraceFile(outDir, f)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d traced passes; spans in %s", passes, path))
	return res, nil
}
