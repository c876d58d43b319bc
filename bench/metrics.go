package main

// The metric and workload tables. BENCHMARK.json at the repository root
// carries the same names, units and directions in the driver's schema
// (a test keeps the two in step); what that schema has no room for —
// each metric's layer, how it is obtained and which end-to-end metric
// it should move — lives here and in README.md.

type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"sim_paper", "the paper's own evaluation through experiment.Spec.Run at width 1; planner-bound (dls is over half the CPU), so a planner change shows here and nowhere else"},
	{"sim_dispatch", "plan-light, chunk-heavy runs (hundreds to thousands of chunks) where the engine, grid and sim hot path does the work; a planner change must not move it"},
	{"sim_fault_tree", "same engine and grid on tree topologies under crashes with retry and peer redistribution: link rescaling, deadline timers and the retry path"},
	{"sim_multijob", "the second simulated world (grid.MultiWorld, closure dispatch, share revision) under weighted factoring; guards the one-world refactor both ways"},
	{"serve_closed_small", "closed loop of tiny jobs (Submit, Status until done, Report) with no queueing: transport, codecs and the daemon's RPC methods do the work"},
	{"serve_open_mix", "open-loop Poisson arrivals, 90% planned umr jobs and 10% 4000-chunk jobs through one execution slot: queueing, engine and the job event ring dominate"},
}

type e2eDef struct {
	Name, Unit, Better string
	Bound              float64
	Def                string
}

// An operation is one simulated run on sim_* and one served job on
// serve_*. Every workload reports every end-to-end metric. The bounds are
// what this box can hold: see "Measured spreads" in README.md.
var e2eDefs = []e2eDef{
	{"setup_s", "s", "lower", 0.25, "sim: build the inputs and run the first (cold) pass; serving: daemon child start to first job observed done; median of 5 or more set-ups"},
	{"ops_per_s", "1/s", "higher", 0.25, "sim: runs in a pass / median pass time, width 1; serving: jobs done per second (open loop: finished within the 50 ms limit only)"},
	{"cpu_us_per_op", "us", "lower", 0.25, "user+system CPU of the process doing the work (bench process on sim_*, daemon child on serve_*) per operation"},
	{"allocs_per_op", "count", "lower", 0.15, "heap allocations (runtime.MemStats.Mallocs) of that process per operation, warm"},
	{"latency_p50_ms", "ms", "lower", 0.25, "sim: host time per simulated run (pass time / runs); closed loop: Submit sent to done observed; open loop: scheduled arrival to daemon-stamped finish, the median of each block; median over blocks"},
	{"rss_mb", "MB", "lower", 0.25, "VmRSS of the process doing the work at the end of each block; the median (VmHWM is printed as peak_rss_mb: a maximum is a noisier statistic)"},
}

type layerDef struct {
	Name, Unit, Better string
	Layer              string
	// Src is T (self time from the traced passes), M (a public function
	// timed directly in a loop) or R (read from what the program exposes).
	Src string
	// Moves names the end-to-end metric and workload this should move.
	Moves string
}

// layerDefs are reported by the traced run of every workload: the T rows
// describe that workload (for serve_*, an in-process replay of its job
// mix through the decorators), the M rows are the same direct timings in
// every run.
var layerDefs = []layerDef{
	{"dls.self_share", "fraction", "lower", "dls", "T", "ops_per_s on sim_paper; cpu_us_per_op on serve_open_mix; not sim_dispatch, sim_fault_tree"},
	{"dls.plan_us_per_run", "us", "lower", "dls", "T", "ops_per_s on sim_paper"},
	{"dls.next_ns_per_chunk", "ns", "lower", "dls", "T", "ops_per_s on sim_dispatch (small)"},
	{"dls.plans_per_run", "count", "lower", "dls", "T", "ops_per_s on sim_paper"},
	{"engine.self_share", "fraction", "lower", "engine", "T", "ops_per_s, allocs_per_op on sim_dispatch, sim_fault_tree; latency_p99_ms on serve_open_mix"},
	{"engine.self_ns_per_chunk", "ns", "lower", "engine", "T", "ops_per_s on sim_dispatch, sim_fault_tree"},
	{"engine.chunks_per_run", "count", "lower", "engine", "R", "exact for a seed; the denominator of every per-chunk cost"},
	{"engine.retries_per_run", "count", "lower", "engine", "R", "exact for a seed; non-zero only on sim_fault_tree"},
	{"engine.redistributed_per_run", "count", "higher", "engine", "T", "exact for a seed; non-zero only on sim_fault_tree"},
	{"grid.self_share", "fraction", "lower", "grid", "T", "ops_per_s on sim_fault_tree, sim_multijob"},
	{"grid.self_ns_per_op", "ns", "lower", "grid", "T", "ops_per_s on sim_fault_tree (link rescale), sim_multijob (reshare)"},
	{"grid.ops_per_run", "count", "lower", "grid", "T", "exact for a seed"},
	{"grid.peer_ops_per_run", "count", "higher", "grid", "T", "exact for a seed; non-zero only on sim_fault_tree"},
	{"grid.multi_reshares", "count", "lower", "grid", "R", "exact for a seed; non-zero only on sim_multijob"},
	{"trace.self_share", "fraction", "lower", "trace", "T", "ops_per_s on sim_paper (per-run report)"},
	{"latency_p99_ms", "ms", "lower", "bench", "R", "the tail of latency_p50_ms's sample, untraced: median over blocks of p99 or of the highest percentile with ten samples beyond it; end to end, but too noisy on this box to gate (see README)"},
	{"bench.ns_per_chunk", "ns", "lower", "bench", "R", "host ns per simulated chunk, untraced: median pass time / exact chunk count"},
	{"bench.trace_overhead_pct", "%", "lower", "bench", "R", "traced against untraced cost in the same run; context for every T row"},
	{"bench.pass_spread_pct", "%", "lower", "bench", "R", "(max-min)/median over the untraced blocks; the run's own noise floor"},
	{"bench.host_factor", "ratio", "lower", "bench", "R", "the two calibration loops (memory chase, integer chains) around each untraced block over the quiet box's readings, geometric mean; sim_* timings are divided by it"},
	{"bench.calib_drift_pct", "%", "lower", "bench", "R", "(max-min)/median of the host factor over the blocks"},
	{"bench.disturbed_windows", "count", "lower", "bench", "R", "serving blocks measured again because generator or host stalled (an arrival over 50 ms late, shed, refused or lost)"},

	{"grid.new_us", "us", "lower", "grid", "M", "cpu_us_per_op on serve_closed_small (the daemon builds a backend per job)"},
	{"grid.reset_us", "us", "lower", "grid", "M", "ops_per_s on sim_dispatch"},
	{"grid.multi_ns_per_chunk", "ns", "lower", "grid", "M", "ops_per_s on sim_multijob"},
	{"sim.ns_per_event_d32", "ns", "lower", "sim", "M", "ops_per_s on sim_dispatch"},
	{"sim.ns_per_event_d1024", "ns", "lower", "sim", "M", "ops_per_s on sim_dispatch (deep heap)"},
	{"sim.timer_arm_cancel_ns", "ns", "lower", "sim", "M", "ops_per_s on sim_fault_tree"},
	{"sim.fcfs_ns_per_job", "ns", "lower", "sim", "M", "ops_per_s on sim_dispatch"},
	{"parallel.scaling_w2", "ratio", "higher", "parallel", "M", "runs/s of the paper specs at width 2 over width 1; reported, not gated"},
	{"rng.normal_ns", "ns", "lower", "rng", "M", "ops_per_s on sim_dispatch"},
	{"trace.report_us_per_run", "us", "lower", "trace", "M", "ops_per_s on sim_paper"},
	{"stats.summary_ns", "ns", "lower", "stats", "M", "none expected"},
	{"obs.ring_emit_ns_growing", "ns", "lower", "obs", "M", "cpu_us_per_op, latency_p99_ms on serve_open_mix; no sim_* workload attaches a sink"},
	{"obs.ring_emit_ns_full", "ns", "lower", "obs", "M", "cpu_us_per_op on serve_open_mix (the 4000-chunk jobs wrap the ring)"},
	{"obs.span_record_ns", "ns", "lower", "obs", "M", "none untraced; the traced serving run's own overhead"},
	{"transport.echo_rtt_us_p50", "us", "lower", "transport", "M", "ops_per_s, latency_p50_ms on serve_closed_small; not latency_p99_ms on serve_open_mix"},
	{"transport.echo_calls_per_s_w32", "1/s", "higher", "transport", "M", "ops_per_s on serve_closed_small"},
	{"daemon.wire_submit_enc_ns", "ns", "lower", "daemon", "M", "cpu_us_per_op on serve_closed_small"},
	{"daemon.wire_submit_dec_ns", "ns", "lower", "daemon", "M", "cpu_us_per_op on serve_closed_small"},
	{"daemon.wire_job_enc_ns", "ns", "lower", "daemon", "M", "cpu_us_per_op on serve_closed_small"},
	{"daemon.wire_job_dec_ns", "ns", "lower", "daemon", "M", "cpu_us_per_op on serve_closed_small"},
	{"daemon.wire_report_enc_us", "us", "lower", "daemon", "M", "cpu_us_per_op on serve_closed_small"},
	{"daemon.submit_admit_us", "us", "lower", "daemon", "M", "ops_per_s on serve_closed_small"},
	{"daemon.submit_reject_ns", "ns", "lower", "daemon", "M", "none: no end-to-end metric is defined on rejects"},
	{"daemon.status_ns", "ns", "lower", "daemon", "M", "ops_per_s on serve_closed_small"},
	{"daemon.listjobs_us_per_256", "us", "lower", "daemon", "M", "latency_p99_ms on serve_open_mix (the listing holds the daemon lock)"},
	{"spec.parse_us", "us", "lower", "spec", "M", "none: the daemon caches parsed specs; movement on serve_closed_small means the cache broke"},
	{"divide.cut_ns", "ns", "lower", "divide", "M", "none expected"},
}

func e2eNames() []string {
	out := make([]string, len(e2eDefs))
	for i, d := range e2eDefs {
		out[i] = d.Name
	}
	return out
}

func layerNames() []string {
	out := make([]string, len(layerDefs))
	for i, d := range layerDefs {
		out[i] = d.Name
	}
	return out
}

func workloadNames() []string {
	out := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		out[i] = d.Name
	}
	return out
}
