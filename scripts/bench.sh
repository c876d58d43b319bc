#!/bin/sh
# bench.sh — record the experiment runner's parallel speedup and the
# observability / fault-path overhead, with allocation counts.
#
# Runs BenchmarkRunnerParallelism (the same Figure 2 workload at pool
# widths 1, 2, 4), BenchmarkObsOverhead (the same simulated run with no
# sink, the no-op sink, and a ring sink with full metrics), and
# BenchmarkFaultPathOverhead (the chunk-lifecycle retry layer disabled,
# armed-but-idle, and exercised by a crash) under -benchmem, and writes
# BENCH_<n>.json at the repository root — ns/op, B/op, and allocs/op per
# variant — so the perf trajectory is tracked PR over PR; runner rows
# also carry b_per_op / allocs_per_op deltas against the previous
# snapshot, tracking the runner's allocation trajectory alongside its
# wall time. The recorded ring_overhead_pct / idle_overhead_pct /
# trace_* overheads come from the *Paired* benchmarks: baseline and
# instrumented runs alternated within one iteration loop (cancelling
# the ±10% window-to-window drift a shared machine imposes on the
# sequential variants), compared on the minimum sample of each side
# (discarding GC pauses, which land asymmetrically on the allocating
# side and bias a mean by several points). The serving
# object carries per-stage latency attribution (decode, admission,
# queue, lease, execute) from the daemon's trace collector. When
# BENCH_<n-1>.json exists, the obs-ring, retry-idle, and trace-enabled
# overheads are also emitted as before/after deltas against it:
#
#   scripts/bench.sh        # writes BENCH_1.json
#   scripts/bench.sh 7      # writes BENCH_7.json (deltas vs BENCH_6.json)
set -eu

cd "$(dirname "$0")/.."
n="${1:-1}"
out="BENCH_${n}.json"

# Previous snapshot, for before/after deltas.
prev="BENCH_$((n - 1)).json"
prev_ring=""; prev_idle=""; prev_trace=""; prev_runner=""
if [ -f "$prev" ]; then
    prev_ring=$(sed -n 's/.*"ring_overhead_pct": *\([0-9.+-]*\).*/\1/p' "$prev" | head -1)
    prev_idle=$(sed -n 's/.*"idle_overhead_pct": *\([0-9.+-]*\).*/\1/p' "$prev" | head -1)
    prev_trace=$(sed -n 's/.*"trace_enabled_overhead_pct": *\([0-9.+-]*\).*/\1/p' "$prev" | head -1)
    # Per-width "width:b_per_op:allocs_per_op" triples from the runner
    # rows, so the allocation trajectory of the runner itself is tracked
    # PR over PR alongside its wall time.
    prev_runner=$(sed -n 's/.*"width": *\([0-9]*\),.*"b_per_op": *\([0-9]*\), *"allocs_per_op": *\([0-9]*\).*/\1:\2:\3/p' "$prev" | tr '\n' ' ')
fi

# Three full passes over all benchmarks, interleaved at the pass level;
# the awk below keeps the minimum ns/op per variant across passes. The
# minimum is the best estimator of true cost on a noisy shared machine —
# scheduling and frequency drift only ever add time — and interleaving
# whole passes keeps slow drift from biasing variants that always run
# late in a pass.
raw=$(for pass in 1 2 3; do
          go test -run '^$' -bench '^BenchmarkRunnerParallelism$' -benchtime 3x -benchmem .
          go test -run '^$' -bench '^BenchmarkObsOverhead$' -benchtime 200x -benchmem .
          go test -run '^$' -bench '^BenchmarkFaultPathOverhead$' -benchtime 200x -benchmem .
          go test -run '^$' -bench 'Paired$' -benchtime 200x .
      done)
echo "$raw"

echo "$raw" | awk -v out="$out" -v prev="$prev" \
                  -v prev_ring="$prev_ring" -v prev_idle="$prev_idle" \
                  -v prev_trace="$prev_trace" -v prev_runner="$prev_runner" '
# Pull the value preceding each unit label, wherever the column lands
# (custom metrics shift positions).
function metric(unit,   i) {
    for (i = 2; i <= NF; i++) if ($i == unit) return $(i - 1)
    return ""
}
function variant(   parts) {
    # e.g. BenchmarkObsOverhead/sink=ring-8 -> ring
    split($1, parts, "/")
    sub(/-[0-9]+$/, "", parts[2])
    return substr(parts[2], index(parts[2], "=") + 1)
}
/^BenchmarkRunnerParallelism\// {
    w = variant(); v = metric("ns/op")
    if (!(w in ns)) {
        if (order == "") order = w; else order = order " " w
        ns[w] = v
    } else if (v + 0 < ns[w] + 0) ns[w] = v
    bytes[w] = metric("B/op"); allocs[w] = metric("allocs/op")
}
/^BenchmarkObsOverhead\// {
    s = variant(); v = metric("ns/op")
    if (!(s in obs) || v + 0 < obs[s] + 0) obs[s] = v
    obsB[s] = metric("B/op"); obsA[s] = metric("allocs/op")
}
/^BenchmarkFaultPathOverhead\// {
    m = variant(); v = metric("ns/op")
    if (!(m in fault) || v + 0 < fault[m] + 0) fault[m] = v
    faultB[m] = metric("B/op"); faultA[m] = metric("allocs/op")
}
# Every paired benchmark reports a min-of-samples estimate per pass;
# keep the minimum across passes, matching the ns/op treatment.
/^BenchmarkObsOverheadPaired/ {
    v = metric("ring-overhead-pct")
    if (!pr_n || v + 0 < pr + 0) pr = v
    pr_n++
}
/^BenchmarkFaultPathOverheadPaired/ {
    v = metric("idle-overhead-pct")
    if (!pi_n || v + 0 < pi + 0) pi = v
    pi_n++
}
/^BenchmarkTraceOverheadPaired\/enabled/ {
    v = metric("trace-overhead-pct")
    if (!te_n || v + 0 < te + 0) te = v
    te_n++
}
/^BenchmarkTraceOverheadPaired\/disabled/ {
    v = metric("trace-disabled-overhead-pct")
    if (!td_n || v + 0 < td + 0) td = v
    td_n++
}
/^cpu: / { sub(/^cpu: /, ""); cpu = $0 }
END {
    if (order == "") { print "bench.sh: no BenchmarkRunnerParallelism results" > "/dev/stderr"; exit 1 }
    split(order, ws, " ")
    # Previous snapshot runner rows (width:b_per_op:allocs_per_op).
    nprev = split(prev_runner, prevRows, " ")
    for (i = 1; i <= nprev; i++) {
        split(prevRows[i], rowF, ":")
        prevB[rowF[1]] = rowF[2]; prevA[rowF[1]] = rowF[3]
    }
    printf "{\n  \"benchmark\": \"BenchmarkRunnerParallelism\",\n" > out
    printf "  \"cpu\": \"%s\",\n  \"results\": [\n", cpu > out
    for (i = 1; i <= length(ws); i++) {
        w = ws[i]
        printf "    {\"width\": %s, \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s", \
            w, ns[w], bytes[w], allocs[w] > out
        if (w in prevA && prevA[w] + 0 > 0)
            printf ", \"b_per_op_prev\": %s, \"b_per_op_delta_pct\": %.1f, \"allocs_per_op_prev\": %s, \"allocs_per_op_delta_pct\": %.1f", \
                prevB[w], (bytes[w] / prevB[w] - 1) * 100, \
                prevA[w], (allocs[w] / prevA[w] - 1) * 100 > out
        printf "}%s\n", (i < length(ws) ? "," : "") > out
    }
    printf "  ],\n" > out
    seq = ns[ws[1]]; par = ns[ws[length(ws)]]
    printf "  \"speedup\": %.3f", (par > 0 ? seq / par : 0) > out
    if ("none" in obs) {
        # Paired measurement when present; ratio of sequential minimums
        # (drift-prone) as the fallback.
        if (pr_n > 0) ring_pct = pr
        else ring_pct = (obs["none"] > 0 ? (obs["ring"] / obs["none"] - 1) * 100 : 0)
        printf ",\n  \"obs_overhead\": {\n" > out
        printf "    \"none_ns_per_op\": %s,\n", obs["none"] > out
        printf "    \"nop_ns_per_op\": %s,\n", obs["nop"] > out
        printf "    \"ring_ns_per_op\": %s,\n", obs["ring"] > out
        printf "    \"none_allocs_per_op\": %s,\n", obsA["none"] > out
        printf "    \"ring_allocs_per_op\": %s,\n", obsA["ring"] > out
        printf "    \"none_b_per_op\": %s,\n", obsB["none"] > out
        printf "    \"ring_b_per_op\": %s,\n", obsB["ring"] > out
        printf "    \"nop_overhead_pct\": %.1f,\n", (obs["none"] > 0 ? (obs["nop"] / obs["none"] - 1) * 100 : 0) > out
        printf "    \"ring_overhead_pct\": %.1f", ring_pct > out
        if (prev_ring != "")
            printf ",\n    \"ring_overhead_pct_prev\": %s,\n    \"ring_overhead_pct_delta\": %.1f", \
                prev_ring, ring_pct - prev_ring > out
        printf "\n  }" > out
    }
    if ("off" in fault) {
        if (pi_n > 0) idle_pct = pi
        else idle_pct = (fault["off"] > 0 ? (fault["idle"] / fault["off"] - 1) * 100 : 0)
        printf ",\n  \"fault_path\": {\n" > out
        printf "    \"retry_off_ns_per_op\": %s,\n", fault["off"] > out
        printf "    \"retry_idle_ns_per_op\": %s,\n", fault["idle"] > out
        printf "    \"retry_crash_ns_per_op\": %s,\n", fault["crash"] > out
        printf "    \"retry_off_allocs_per_op\": %s,\n", faultA["off"] > out
        printf "    \"retry_idle_allocs_per_op\": %s,\n", faultA["idle"] > out
        printf "    \"retry_crash_allocs_per_op\": %s,\n", faultA["crash"] > out
        printf "    \"retry_off_b_per_op\": %s,\n", faultB["off"] > out
        printf "    \"retry_idle_b_per_op\": %s,\n", faultB["idle"] > out
        printf "    \"idle_overhead_pct\": %.1f,\n", idle_pct > out
        printf "    \"crash_overhead_pct\": %.1f", (fault["off"] > 0 ? (fault["crash"] / fault["off"] - 1) * 100 : 0) > out
        if (prev_idle != "")
            printf ",\n    \"idle_overhead_pct_prev\": %s,\n    \"idle_overhead_pct_delta\": %.1f", \
                prev_idle, idle_pct - prev_idle > out
        printf "\n  }" > out
    }
    if (te_n > 0 || td_n > 0) {
        printf ",\n  \"trace_overhead\": {\n" > out
        printf "    \"trace_enabled_overhead_pct\": %.1f,\n", te > out
        printf "    \"trace_disabled_overhead_pct\": %.1f", td > out
        if (prev_trace != "")
            printf ",\n    \"trace_enabled_overhead_pct_prev\": %s,\n    \"trace_enabled_overhead_pct_delta\": %.1f", \
                prev_trace, te - prev_trace > out
        printf "\n  }" > out
    }
    if (prev_ring != "" || prev_idle != "")
        printf ",\n  \"deltas_vs\": \"%s\"", prev > out
    printf "\n}\n" > out
}
'

# Serving-path load test: sustained submission rate and submit-latency
# percentiles under an open-loop Poisson storm against a self-hosted
# sim daemon (see cmd/loadgen), spliced into the snapshot as a
# "serving" object. Snapshots up to BENCH_9 hold a frame-vs-net/rpc
# comparison there instead (frame_vs_rpc_* ratios); nothing below reads
# the previous snapshot's serving object, so either shape is fine.
echo "serving-path load test..."
serving=$(go run ./cmd/loadgen -rate 150000 -duration 4s -outstanding 512 \
              -conns 2 -load 500 -queue-depth 2 -retain-jobs 2048 -json)

sed -i '$d' "$out"          # drop the closing brace
sed -i '$ s/$/,/' "$out"    # terminate what is now the last member
{
    printf '  "serving": '
    printf '%s\n' "$serving" | sed '1!s/^/  /'
} >> "$out"
printf '}\n' >> "$out"

# Multi-job co-scheduling sweep: aggregate makespan, per-job slowdown,
# and Jain fairness per (jobs, policy) cell from the deterministic
# shared-world simulation; every non-partition cell carries its
# aggregate-makespan delta vs the partition baseline (vs_partition_pct,
# negative = faster). Spliced into the snapshot as a "multijob" object.
echo "multi-job co-scheduling sweep (partition vs fair vs srpt)..."
multijob=$(go run ./cmd/loadgen -multijob -json)

sed -i '$d' "$out"          # drop the closing brace
sed -i '$ s/$/,/' "$out"    # terminate what is now the last member
{
    printf '  "multijob": '
    printf '%s\n' "$multijob" | sed '1!s/^/  /'
} >> "$out"
printf '}\n' >> "$out"

# Redistribution sweep: the same crash grid replayed with master
# re-staging vs worker-to-worker peer redistribution on the star and
# tree topologies (see cmd/experiments -run redistrib). Each peer cell
# carries its makespan delta vs the restage twin (vs_restage_pct,
# negative = peer faster); mean_peer_advantage_pct is the headline.
# Spliced into the snapshot as a "redistribution" object.
echo "redistribution sweep (peer vs master re-staging under crashes)..."
redistrib=$(go run ./cmd/experiments -run redistrib -runs 5 -json)

sed -i '$d' "$out"          # drop the closing brace
sed -i '$ s/$/,/' "$out"    # terminate what is now the last member
{
    printf '  "redistribution": '
    printf '%s\n' "$redistrib" | sed '1!s/^/  /'
} >> "$out"
printf '}\n' >> "$out"
echo "wrote $out"
