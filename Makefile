# Standard gates for the repository. `make check` is the bar every
# change must clear: build, vet, the full test suite once plain (every
# allocation budget skips under the race detector, so only this run
# asserts them) and once under the race detector (the parallel
# experiment runner is on by default, so -race coverage is
# non-negotiable), and lint.

GO ?= go

# Fuzz targets, written as package:Target; each gets a short smoke run
# in `make check` (go test -fuzz accepts exactly one target per run).
FUZZ_TARGETS = divide:FuzzUniformCutAfter divide:FuzzIndexCutAfter \
               divide:FuzzContinuousCutAfter divide:FuzzWorkUnitsCutAfter \
               divide:FuzzScanSeparators sim:FuzzHeapInvariant \
               sim:FuzzTimersMatchReference grid:FuzzMultiWorldConserves \
               grid:FuzzLinkFlowsMatchReference \
               grid:FuzzSharedFaultPlanMatchesFresh \
               grid:FuzzNoiseTapesMatchFresh \
               engine:FuzzClosureBackendCompletions \
               transport:FuzzServerFrames transport:FuzzClientFrames \
               daemon:FuzzDecodeWire live:FuzzWorkerService \
               dls:FuzzUMRSearchMatchesReference \
               dls:FuzzPlanConservesOrRefuses \
               trace:FuzzReportRenderersMatchReference \
               spec:FuzzParse

.PHONY: all build vet test race bench-module serve-smoke fuzz-smoke bench-smoke lint lines check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race -count=1 ./...

# bench-module builds and tests the nested benchmark module. It is its
# own Go module, so ./... at the root cannot see it: without this step
# an internal API change would break the frozen benchmark silently.
# Build it with -o /dev/null, as here, never with a plain `go build` in
# bench/: that writes its main package's binary over the committed
# bench/bench.
bench-module:
	cd bench && $(GO) build -o /dev/null ./... && $(GO) vet ./... && $(GO) test ./...

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

# bench-smoke runs every root benchmark and every layer benchmark under
# internal/ for one iteration: the paper's table, figure, case-study and
# ablation series still run, and so do the per-layer benchmarks (link
# transfers, stage deadlines, served jobs, the event codec, the ring),
# which nothing else in `make check` compiles into a run. It asserts
# nothing; performance is measured by `bash bench/run.sh` and the
# structural budgets (disabled tracing and the obs emit path allocate
# nothing, every pool width gives the same bytes) are tier-1 tests.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/...

# lint runs go vet, fails when gofmt would change any Go file of the
# root module or of bench/ (it only reads bench/), and runs staticcheck
# when a binary is available (PATH or GOPATH/bin). It never downloads
# anything: offline environments get vet and gofmt instead of a network
# failure.
lint: vet
	@unformatted=$$(find . -name '*.go' ! -path './.bench_build/*' -exec gofmt -l {} +); \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists:"; echo "$$unformatted"; exit 1; \
	fi
	@sc=$$(command -v staticcheck || true); \
	if [ -z "$$sc" ] && [ -x "$$($(GO) env GOPATH)/bin/staticcheck" ]; then \
		sc="$$($(GO) env GOPATH)/bin/staticcheck"; \
	fi; \
	if [ -n "$$sc" ]; then \
		echo "lint: running $$sc"; \
		"$$sc" ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet and gofmt only" ; \
		echo "lint: (install with: go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# lines prints the non-test Go line count of each top-level directory,
# the frozen benchmark (bench/) left out: the number ROADMAP aim 2
# ("the same behaviour from the least code") is judged by.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 wc -l \
		| awk '$$2 != "total" { split($$2, p, "/"); n[p[2]] += $$1; if (p[2] == "internal") n["internal/" p[3]] += $$1 } END { for (d in n) print d, n[d] }' \
		| sort \
		| awk '{ printf "%-20s %6d\n", $$1, $$2; if ($$1 !~ /\//) t += $$2 } END { printf "%-20s %6d\n", "total", t }'

check: build vet test race bench-module serve-smoke fuzz-smoke bench-smoke lint
