# Standard gates for the repository. `make check` is the bar every
# change must clear: build, vet, the full test suite under the race
# detector (the parallel experiment runner is on by default, so -race
# coverage is non-negotiable), and lint.

GO ?= go

# Fuzz targets, written as package:Target; each gets a short smoke run
# in `make check` (go test -fuzz accepts exactly one target per run).
FUZZ_TARGETS = divide:FuzzUniformCutAfter divide:FuzzIndexCutAfter \
               divide:FuzzContinuousCutAfter divide:FuzzWorkUnitsCutAfter \
               divide:FuzzScanSeparators sim:FuzzHeapInvariant \
               transport:FuzzServerFrames daemon:FuzzDecodeWire \
               dls:FuzzUMRSearchMatchesReference

.PHONY: all build vet test race bench-module serve-smoke fuzz-smoke bench-smoke lint check bench

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-module builds and tests the nested benchmark module. It is its
# own Go module, so ./... at the root cannot see it: without this step
# an internal API change would break the frozen benchmark silently.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# serve-smoke runs the two serving workloads of the benchmark for two
# seconds each: a daemon in a child process, real clients over the frame
# transport, and every served job's makespan and chunk count checked
# against the in-process oracle. Nothing else in `make check` starts a
# daemon child, and bench-module only vets and unit-tests the nested
# module. The run exits non-zero on an oracle mismatch or any failed
# operation; it asserts no timing.
serve-smoke:
	@for w in serve_closed_small serve_open_mix; do \
		echo "serve-smoke: $$w"; \
		bash bench/run.sh --workload $$w --seconds 2 --trace 0 || exit 1; \
	done

# fuzz-smoke gives every fuzz target a 2-second run: long enough to
# catch a freshly broken invariant, short enough for every `make check`.
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; target=$${t##*:}; \
		echo "fuzz-smoke: $$pkg/$$target"; \
		$(GO) test ./internal/$$pkg/ -run '^$$' -fuzz "^$$target$$" -fuzztime 2s || exit 1; \
	done

# bench-smoke compiles and briefly executes the hot-path benchmarks,
# including the paired-overhead ones bench.sh records (100 fixed
# iterations, no race detector — the point is that they still run, not
# their timings), so a refactor that breaks the perf harness fails
# `make check` instead of the next bench run. It then asserts the one
# timing that is a hard budget: tracing disabled must cost the engine
# ≤1%. The gate takes the best of three passes of the min-paired
# benchmark — a shared box imposes several points of symmetric noise
# per pass, which the minimum discards (the same min-of-passes
# estimator scripts/bench.sh uses for ns/op); TestTraceDisabledAllocFree
# pins the structural claim that the disabled path allocates nothing.
#
# Two further gates guard the runner-scaling work:
#   - TestObsEmitPathAllocFree asserts the daemon's always-on obs
#     configuration adds ZERO allocations to a warm run — an exact
#     count, immune to the timing noise that made the BENCH_6→BENCH_7
#     overhead percentages look like a regression when they were not.
#   - The width-4 runner speedup must reach 1.5× on a box with ≥4
#     cores (skipped below that: widths beyond GOMAXPROCS exercise the
#     concurrent path but cannot speed it up).
bench-smoke:
	$(GO) test -run '^$$' -bench '^(BenchmarkSimEngineEvents|BenchmarkObsOverhead(Paired)?|BenchmarkFaultPathOverhead(Paired)?|BenchmarkTraceOverheadPaired)$$' \
		-benchtime 100x .
	@echo "bench-smoke: asserting the obs emit path allocates nothing"
	$(GO) test -run '^TestObsEmitPathAllocFree$$' .
	@echo "bench-smoke: asserting disabled-tracing overhead <= 1%"
	@best=$$( for i in 1 2 3; do \
		$(GO) test -run '^$$' -bench '^BenchmarkTraceOverheadPaired/disabled$$' -benchtime 100x . || exit 1; \
	done | awk '/^BenchmarkTraceOverheadPaired/ { for (i = 2; i <= NF; i++) if ($$i == "trace-disabled-overhead-pct") v = $$(i-1); if (best == "" || v + 0 < best + 0) best = v } END { print best }' ); \
	[ -n "$$best" ] || { echo "bench-smoke: no trace-disabled-overhead-pct metric" >&2; exit 1; }; \
	echo "bench-smoke: trace-disabled-overhead-pct best-of-3 = $$best"; \
	awk -v b="$$best" 'BEGIN { exit !(b + 0 <= 1.0) }' || \
		{ echo "bench-smoke: disabled-tracing overhead $$best% exceeds the 1% budget" >&2; exit 1; }
	@procs=$${GOMAXPROCS:-$$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)}; \
	if [ "$$procs" -lt 4 ]; then \
		echo "bench-smoke: $$procs core(s) < 4; skipping width-4 speedup gate"; \
	else \
		echo "bench-smoke: asserting width-4 runner speedup >= 1.5x"; \
		$(GO) test -run '^$$' -bench '^BenchmarkRunnerParallelism/width=(1|4)$$' -benchtime 3x . | \
		awk '/^BenchmarkRunnerParallelism\/width=1-/ { s = $$3 } \
		     /^BenchmarkRunnerParallelism\/width=4-/ { p = $$3 } \
		     END { if (!s || !p) { print "bench-smoke: missing runner rows" > "/dev/stderr"; exit 1 } \
		           v = s / p; printf "bench-smoke: width-4 speedup = %.2fx\n", v; exit !(v >= 1.5) }' || \
		{ echo "bench-smoke: width-4 runner speedup below the 1.5x budget" >&2; exit 1; }; \
	fi

# lint runs go vet always, and staticcheck when a binary is available
# (PATH or GOPATH/bin). It never downloads anything: offline
# environments get vet-only linting instead of a network failure.
lint: vet
	@sc=$$(command -v staticcheck || true); \
	if [ -z "$$sc" ] && [ -x "$$($(GO) env GOPATH)/bin/staticcheck" ]; then \
		sc="$$($(GO) env GOPATH)/bin/staticcheck"; \
	fi; \
	if [ -n "$$sc" ]; then \
		echo "lint: running $$sc"; \
		"$$sc" ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet only" ; \
		echo "lint: (install with: go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

check: build vet race bench-module serve-smoke fuzz-smoke bench-smoke lint

# bench records the runner's sequential-vs-parallel wall time and the
# observability layer's overhead into BENCH_<n>.json (see
# scripts/bench.sh; n defaults to 1).
bench:
	scripts/bench.sh
