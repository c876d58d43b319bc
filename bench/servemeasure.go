package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"apstdv/internal/client"
	otrace "apstdv/internal/obs/trace"
	"apstdv/internal/stats"
)

// serveDef is what distinguishes the two serving workloads.
type serveDef struct {
	open  bool
	kinds []jobKind
	// blockDur is the length of one block of the window: long enough
	// for a latency tail (1000 jobs for p99) at the workload's rate.
	blockDur time.Duration
	// replay is the job mix in the proportions served, for the traced
	// run's in-process layer split.
	replay []jobKind
}

var serveDefs = map[string]serveDef{
	"serve_closed_small": {
		kinds:    []jobKind{kindSmall},
		blockDur: time.Second, replay: []jobKind{kindSmall},
	},
	"serve_open_mix": {
		open: true, kinds: []jobKind{kindUMR, kindBig},
		blockDur: 2 * time.Second,
		replay:   []jobKind{kindUMR, kindUMR, kindUMR, kindUMR, kindUMR, kindUMR, kindUMR, kindUMR, kindUMR, kindBig},
	},
}

// warmJobs is how many jobs run before timing starts: twice the
// daemon's RetainJobs, so retention and the heap are at steady state.
const warmJobs = 512

// closedClients is the closed loop's caller count.
func closedClients() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// serveBlock is one measured block: a stretch of load with the
// calibration read before and after it, and the child's statistics at
// both ends.
type serveBlock struct {
	ops      []servedJob
	secs     float64 // the time the block's operations were offered over
	cpuNs    int64
	mallocs  uint64
	rssKB    float64 // the child's VmRSS at the end of the block
	factor   float64 // host factor, see hostFactor
	lateness []float64
}

// serveWindow is one measured window: blocks of load, one after another.
type serveWindow struct {
	def       serveDef
	blocks    []serveBlock
	open      openStats // summed over the blocks
	last      childStats
	disturbed int
}

// stalled reports whether the block was measured through a stall of the
// generator or the host: an arrival sent more than 50 ms late (the open
// loop was not open), or one that was shed, refused or never seen
// finished. At 400 arrivals a second a host stall of 100 ms occupies all
// 32 submitters and one of 700 ms outlasts the daemon's retention of
// finished jobs, and this box does stall that long now and then. Such a
// block is measured again, at most twice a window: a daemon that has
// become too slow for the load fails the same way every time and still
// shows. (Host slowdowns short of a stall are not grounds for a re-run.)
func (b *serveBlock) stalled() bool {
	for _, l := range b.lateness {
		if l > 50e6 {
			return true
		}
	}
	for i := range b.ops {
		if !b.ops[i].accepted || !b.ops[i].seen {
			return true
		}
	}
	return false
}

// runBlock offers one block of load to the child.
func runBlock(def serveDef, c *daemonChild, seed uint64, index int, tracer *otrace.Collector, log *spanLog) (serveBlock, openStats, error) {
	var blk serveBlock
	var st openStats
	s0, err := c.stats()
	if err != nil {
		return blk, st, err
	}
	if def.open {
		sched := poissonSchedule(seed, index, openRate, def.blockDur, openBigShare)
		var ops []servedJob
		ops, st, err = openLoop(c.addr, sched, time.Now().Add(5*time.Millisecond), tracer, log)
		if err != nil {
			return blk, st, err
		}
		blk.ops, blk.secs, blk.lateness = ops, def.blockDur.Seconds(), st.lateness
	} else {
		start := time.Now()
		deadline := start.Add(def.blockDur)
		perClient, err := closedLoop(c.addr, closedClients(), tracer, log,
			func(int64) bool { return time.Now().After(deadline) })
		if err != nil {
			return blk, st, err
		}
		blk.secs = time.Since(start).Seconds()
		for _, ops := range perClient {
			blk.ops = append(blk.ops, ops...)
		}
	}
	s1, err := c.stats()
	if err != nil {
		return blk, st, err
	}
	blk.cpuNs, blk.mallocs, blk.rssKB = s1.CPUNs-s0.CPUNs, s1.Mallocs-s0.Mallocs, s1.RSSKB
	return blk, st, nil
}

// runWindow warms the child up and then measures blocks blocks, reading
// the calibration between them. A stalled block (see stalled) is
// measured again.
func runWindow(def serveDef, c *daemonChild, seed uint64, blocks int, tracer *otrace.Collector, log *spanLog) (*serveWindow, error) {
	w := &serveWindow{def: def}
	if def.open {
		warmSecs := float64(warmJobs) / openRate * 1.1
		warm := time.Duration(warmSecs * float64(time.Second))
		sched := poissonSchedule(seed, -1, openRate, warm, openBigShare)
		if _, _, err := openLoop(c.addr, sched, time.Now().Add(5*time.Millisecond), nil, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	} else {
		_, err := closedLoop(c.addr, closedClients(), nil, nil, func(done int64) bool { return done >= warmJobs })
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	cal := calibrate()
	for i := 0; i < blocks; i++ {
		blk, st, err := runBlock(def, c, seed, i, tracer, log)
		if err != nil {
			return nil, err
		}
		next := calibrate()
		if blk.stalled() && w.disturbed < 2 {
			// Same index, same schedule: the block is measured again.
			w.disturbed++
			cal = next
			i--
			continue
		}
		blk.factor = hostFactor(cal, next)
		cal = next
		w.blocks = append(w.blocks, blk)
		w.open.offered += st.offered
		w.open.accepted += st.accepted
		w.open.rejected += st.rejected
		w.open.shed += st.shed
		w.open.errors += st.errors
		w.open.lateness = append(w.open.lateness, st.lateness...)
	}
	var err error
	w.last, err = c.stats()
	return w, err
}

// latency of one operation in nanoseconds, by the workload's definition.
func (w *serveWindow) latency(op *servedJob) float64 {
	if w.def.open {
		return float64(op.job.Finished.Sub(op.scheduled))
	}
	return float64(op.observed.Sub(op.sent))
}

// numbers reduces a window to the end-to-end metrics and the
// serving-only layer numbers. Serving timings are reported as measured,
// with the values at reference host speed printed beside: dividing by the
// host factor was measured not to narrow their spread (the serving path
// is mostly system calls, scheduling and queueing, which neither
// calibration loop resembles).
func (w *serveWindow) numbers(want map[jobKind]outcome, res *result) {
	var all, queueWait, runTime, submitRTT, sendAdmit, observe, statuses, lateOK []float64
	var ops, cpu, allocs, p50s, tails, factors, rss []float64
	tailQ := 0.0
	res.Attempted, res.Failed = 0, 0
	why := map[string]int{}
	for bi := range w.blocks {
		blk := &w.blocks[bi]
		var lat []float64
		good, done := 0.0, 0.0
		for i := range blk.ops {
			op := &blk.ops[i]
			res.Attempted++
			// An arrival that was shed, refused, lost or answered wrongly
			// has failed.
			if !op.check(want) {
				res.Failed++
				why[op.failure()]++
				continue
			}
			l := w.latency(op)
			done++
			if !w.def.open || l <= float64(openLimit) {
				good++
			}
			lat = append(lat, l)
			all = append(all, l)
			queueWait = append(queueWait, float64(op.job.Started.Sub(op.job.Submitted)))
			runTime = append(runTime, float64(op.job.Finished.Sub(op.job.Started)))
			submitRTT = append(submitRTT, float64(op.replied.Sub(op.sent)))
			sendAdmit = append(sendAdmit, float64(op.job.Submitted.Sub(op.sent)))
			if w.def.open {
				lateOK = append(lateOK, float64(op.sent.Sub(op.scheduled)))
			} else {
				observe = append(observe, float64(op.observed.Sub(op.job.Finished)))
				statuses = append(statuses, float64(op.statuses))
			}
		}
		factors = append(factors, blk.factor)
		rss = append(rss, blk.rssKB/1024)
		ops = append(ops, good/blk.secs)
		if done > 0 {
			cpu = append(cpu, float64(blk.cpuNs)/1e3/done)
			allocs = append(allocs, float64(blk.mallocs)/done)
		}
		sorted := sortedCopy(lat)
		if len(sorted) > 0 {
			tailQ = tailQuantile(len(sorted), 0.99)
			p50s = append(p50s, quantileSorted(sorted, 0.5)/1e6)
			tails = append(tails, quantileSorted(sorted, tailQ)/1e6)
		}
	}
	if res.Failed > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("failed operations by cause: %v", why))
	}
	res.E2E["ops_per_s"] = fromSummary(summarize(ops), "1/s")
	res.E2E["cpu_us_per_op"] = fromSummary(summarize(cpu), "us")
	res.E2E["allocs_per_op"] = fromSummary(summarize(allocs), "count")
	res.E2E["latency_p50_ms"] = fromSummary(summarize(p50s), "ms")
	res.Info["latency_p99_ms"] = fromSummary(summarize(tails), "ms")
	// The same at reference host speed, for comparison with sim_*.
	if !w.def.open {
		res.Info["scaled.ops_per_s"] = fromSummary(summarize(mulEach(ops, factors)), "1/s")
	}
	res.Info["scaled.cpu_us_per_op"] = fromSummary(summarize(divEach(cpu, factors)), "us")
	res.Info["scaled.latency_p50_ms"] = fromSummary(summarize(divEach(p50s, factors)), "ms")
	last := w.last
	res.E2E["rss_mb"] = fromSummary(summarize(rss), "MB")
	res.Info["peak_rss_mb"] = scalar(last.HWMKB/1024, "MB")
	res.Context.ChildGOMAXPROCS = last.GOMAXPROCS
	nb := len(w.blocks)

	pq := func(xs []float64, q float64) float64 { return quantileSorted(sortedCopy(xs), q) }
	info := res.Info
	info["bench.pass_spread_pct"] = scalar(summarize(ops).spreadPct(), "%")
	info["bench.disturbed_windows"] = scalar(float64(w.disturbed), "count")
	hostContext(factors, info)
	info["daemon.queue_wait_p50_ms"] = scalar(pq(queueWait, 0.5)/1e6, "ms")
	info["daemon.queue_wait_p99_ms"] = scalar(pq(queueWait, 0.99)/1e6, "ms")
	info["daemon.run_p50_ms"] = scalar(pq(runTime, 0.5)/1e6, "ms")
	info["daemon.run_p99_ms"] = scalar(pq(runTime, 0.99)/1e6, "ms")
	info["daemon.rss_kb_per_retained_job"] = scalar(last.HWMKB/256, "kB")
	info["client.submit_rtt_us_p50"] = scalar(pq(submitRTT, 0.5)/1e3, "us")
	info["client.submit_rtt_us_p99"] = scalar(pq(submitRTT, 0.99)/1e3, "us")
	// The latency split. Per job the parts add up to the latency exactly,
	// but medians of skewed parts do not add up to the median latency, so
	// the split is taken over the jobs around the median (p48 to p52 by
	// latency): their mean parts add up to their mean latency, and what
	// separates that from the reported p50 is named.
	order := make([]int, len(all))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return all[order[i]] < all[order[j]] })
	band := order[len(order)*48/100 : max(len(order)*52/100, len(order)*48/100+1)]
	bandMean := func(xs []float64) float64 {
		s := 0.0
		for _, i := range band {
			s += xs[i]
		}
		return s / float64(len(band))
	}
	parts := bandMean(sendAdmit) + bandMean(queueWait) + bandMean(runTime)
	info["split.submit_send_to_admit_ms"] = scalar(bandMean(sendAdmit)/1e6, "ms")
	info["split.daemon_queue_wait_ms"] = scalar(bandMean(queueWait)/1e6, "ms")
	info["split.daemon_run_ms"] = scalar(bandMean(runTime)/1e6, "ms")
	if w.def.open {
		late := w.open.lateness
		parts += bandMean(lateOK)
		info["split.generator_lateness_ms"] = scalar(bandMean(lateOK)/1e6, "ms")
		info["loadgen.lateness_p50_us"] = scalar(pq(late, 0.5)/1e3, "us")
		info["loadgen.lateness_max_ms"] = scalar(pq(late, 1)/1e6, "ms")
		info["loadgen.offered"] = scalar(float64(w.open.offered), "count")
		info["loadgen.accepted"] = scalar(float64(w.open.accepted), "count")
		info["loadgen.rejected"] = scalar(float64(w.open.rejected), "count")
		info["loadgen.shed"] = scalar(float64(w.open.shed), "count")
		info["loadgen.errors"] = scalar(float64(w.open.errors), "count")
	} else {
		parts += bandMean(observe)
		info["split.finish_to_observed_ms"] = scalar(bandMean(observe)/1e6, "ms")
		info["client.status_calls_per_job"] = scalar(stats.Mean(statuses), "count")
	}
	info["split.unattributed_ms"] = scalar((pq(all, 0.5)-parts)/1e6, "ms")
	res.Notes = append(res.Notes, fmt.Sprintf("%d operations in %d blocks of %v; latency tail is p%.1f of a block",
		len(all), nb, w.def.blockDur, tailQ*100))
}

func blocksFor(def serveDef, seconds float64) int {
	b := int(seconds / def.blockDur.Seconds())
	if b < 1 {
		b = 1
	}
	return b
}

// measureServe is the untraced run of a serving workload.
func measureServe(name string, seed uint64, seconds float64) (*result, error) {
	def := serveDefs[name]
	want, outs, err := oracle(def.kinds)
	if err != nil {
		return nil, err
	}
	res := newResult(name, seed, false)
	res.Digest = digest(outs)
	c, setups, err := serveSetup(setupRounds, false)
	if err != nil {
		return nil, err
	}
	w, err := runWindow(def, c, seed, blocksFor(def, seconds), nil, nil)
	if serr := c.stop(); err == nil && serr != nil {
		err = fmt.Errorf("daemon child: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	res.E2E["setup_s"] = fromSummary(summarize(setups), "s")
	w.numbers(want, res)
	return res, nil
}

// traceServe is the traced run of a serving workload: an untraced
// window for the baseline, a window with the daemon's collector and a
// client tracer on, the job mix replayed in process through the
// decorators, then the direct timings.
func traceServe(name string, seed uint64, seconds float64, outDir string) (*result, error) {
	def := serveDefs[name]
	want, outs, err := oracle(def.kinds)
	if err != nil {
		return nil, err
	}
	res := newResult(name, seed, true)
	res.Digest = digest(outs)
	blocks := blocksFor(def, seconds*0.3)

	base := newResult(name, seed, false)
	c, _, err := serveSetup(1, false)
	if err != nil {
		return nil, err
	}
	bw, err := runWindow(def, c, seed, blocks, nil, nil)
	if serr := c.stop(); err == nil && serr != nil {
		err = fmt.Errorf("daemon child: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	bw.numbers(want, base)

	c, _, err = serveSetup(1, true)
	if err != nil {
		return nil, err
	}
	log := &spanLog{t0: time.Now()}
	tw, err := runWindow(def, c, seed, blocks, otrace.New(0), log)
	var stages any
	if err == nil {
		stages, err = fetchStages(c.addr, res.Info)
	}
	if serr := c.stop(); err == nil && serr != nil {
		err = fmt.Errorf("daemon child: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	tw.numbers(want, res)
	res.Attempted += base.Attempted
	res.Failed += base.Failed

	// The layers the child keeps out of reach, replayed in process.
	rw, err := replayWorkload(name, def.replay)
	if err != nil {
		return nil, err
	}
	ref := make([]outcome, rw.runs)
	if _, err := rw.pass(nil, make([]float64, rw.runs), ref); err != nil {
		return nil, err
	}
	section := time.Duration(seconds * 0.1 * float64(time.Second))
	rb, err := runBlocks(rw, nil, section, ref)
	if err != nil {
		return nil, err
	}
	t, passes, st, _, failed, err := tracedPasses(rw, section, ref)
	if err != nil {
		return nil, err
	}
	res.Attempted += rb.attempted + passes*rw.runs
	res.Failed += rb.failed + failed
	cost := measureSpanCost()
	layerMetrics(t, cost, passes, rw.runs, st, res.Layer)
	res.Layer["bench.ns_per_chunk"] = scalar(summarize(rb.wallPerPass).Median/float64(rb.stats.chunks), "ns")
	res.Layer["bench.trace_overhead_pct"] = scalar(
		(res.E2E["cpu_us_per_op"].Value/base.E2E["cpu_us_per_op"].Value-1)*100, "%")
	res.Layer["latency_p99_ms"] = base.Info["latency_p99_ms"]
	for _, k := range []string{"bench.pass_spread_pct", "bench.calib_drift_pct", "bench.host_factor"} {
		res.Layer[k] = base.Info[k]
	}
	res.Layer["bench.disturbed_windows"] = scalar(float64(bw.disturbed+tw.disturbed), "count")
	if err := microMetrics(res.Layer); err != nil {
		return nil, err
	}
	// The traced window's end-to-end numbers are context, not results.
	for k, v := range res.E2E {
		res.Info["traced."+k] = v
	}
	res.E2E = map[string]measured{}

	all := map[string]measured{}
	for k, v := range res.Layer {
		all[k] = v
	}
	for k, v := range res.Info {
		all[k] = v
	}
	f := &traceFile{Workload: name, Seed: seed, Context: res.Context, Metrics: all, Stages: stages}
	t.fill(f, cost)
	log.mu.Lock()
	f.ClientSpans = log.spans
	log.mu.Unlock()
	sort.Slice(f.ClientSpans, func(i, j int) bool { return f.ClientSpans[i].StartNs < f.ClientSpans[j].StartNs })
	path, err := writeTraceFile(outDir, f)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf("layer split from %d in-process replays of the job mix; spans in %s", passes*rw.runs, path))
	return res, nil
}

// fetchStages reads the daemon's own collector (the existing TraceStats
// RPC; nothing new inside the program) into the serving-only numbers.
func fetchStages(addr string, info map[string]measured) (any, error) {
	cl, err := client.DialOptions(addr, client.Options{})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	reply, err := cl.TraceStats()
	if err != nil {
		return nil, fmt.Errorf("trace stats: %w", err)
	}
	if !reply.Enabled {
		return nil, fmt.Errorf("trace stats: the traced child reports tracing off")
	}
	for _, st := range reply.Stages {
		switch st.Stage {
		case "decode", "admission", "queue", "lease", "execute":
			info["daemon.stage."+st.Stage+"_p50_us"] = scalar(st.P50Ms*1e3, "us")
			info["daemon.stage."+st.Stage+"_p99_us"] = scalar(st.P99Ms*1e3, "us")
		}
	}
	return reply.Stages, nil
}
