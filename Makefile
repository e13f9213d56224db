GO ?= go

.PHONY: all build test check check-full bench clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The gate every PR must pass: vet, staticcheck (when installed — CI
# always has it; locally it is skipped rather than failing on a missing
# binary), build, and the full suite under the race detector, once.
# That one run holds every identity gate: the kernel differentials (each
# operator on a dense Table and on a SegTable of sealed segments plus a
# tail, at pool width 1 and 4, against the row path), the segment, mmap,
# morsel-parallel, maintained-vs-remined, sharded and cache differentials,
# the fuzz seed corpora, the WAL crash matrix at every syscall boundary
# of its workload, and the repository benchmark's four lifecycles at
# -tiny size with their oracle checks.
check:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	$(GO) build ./...
	$(GO) test -race ./...

# check plus the exhaustive crash matrix: every syscall boundary of the
# WAL store crashed under every fsync policy and crash-image variant,
# against the larger workload (-crashfull). The sampled matrix already
# runs inside check's -race suite; this is the nightly-strength pass.
check-full: check
	$(GO) test -race -timeout 20m -run Recovery ./internal/store -crashfull

# Performance: the micro-benchmarks for while you work (explanation
# worker-count sweep, GroupBy hot path, the group-by kernel on the
# question and mining shapes of a 300K-row Crime table, drill-down point
# lookups, offline-mining fast path, and, at the repository benchmark's
# table size, one question on a warm Explainer and one maintained
# append), then the repository benchmark — the one harness whose numbers
# count (BENCHMARK.json, benchmark/README.md).
bench:
	$(GO) test -bench 'BenchmarkGenOptParallel|BenchmarkExplainerWarm|BenchmarkGroupBy$$|BenchmarkGroupByPaths|BenchmarkSelectEqDrilldown|BenchmarkARPMine|BenchmarkFitShared|BenchmarkMaintainerCatchUp' -benchmem -run XXX ./...
	$(GO) run ./benchmark

clean:
	$(GO) clean ./...
