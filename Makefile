GO ?= go

.PHONY: all build test check check-full bench loc clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The gate every PR must pass: gofmt (any file it would reformat fails
# the gate, as CI's own gofmt step does), vet, staticcheck (when
# installed — CI always has it; locally it is skipped rather than
# failing on a missing binary), build, a guard that no non-test code depends on the
# test-support package internal/oracle, a guard that the server binaries
# (capeserver, capeshard) pull in none of the packages outside the
# paper's mine-then-explain pipeline (the comparison baseline, the
# question-query parser, the experiments, the oracle), and the full
# suite under the race detector, once. That one run holds every identity gate: the kernel
# differentials (GroupBy with and without aggregates, CountDistinct and
# Cube on a dense Table and on a SegTable of sealed segments plus a
# tail, Cube at pool width 1 and 4, and the dense Table's SelectEq,
# against the literal definitions of internal/oracle), the segment,
# mmap, maintained-vs-remined, sharded and cache differentials,
# the fuzz seed corpora, the WAL crash matrix at every syscall boundary
# of its workload, and the repository benchmark's four lifecycles at
# -tiny size with their oracle checks.
check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "files need gofmt:" $$unformatted >&2; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	$(GO) build ./...
	@leak=$$($(GO) list -f '{{.ImportPath}} {{join .Deps " "}}' ./... | grep -v '^cape/internal/oracle ' | grep -w 'cape/internal/oracle' | cut -d' ' -f1); \
	if [ -n "$$leak" ]; then echo "internal/oracle is test support, but non-test code imports it: $$leak" >&2; exit 1; fi
	@extra=$$($(GO) list -deps ./cmd/capeserver ./cmd/capeshard | grep -xE 'cape/internal/(baseline|sql|exp|oracle)'); \
	if [ -n "$$extra" ]; then echo "the server binaries serve only the paper's pipeline, but depend on:" $$extra >&2; exit 1; fi
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
# table size, one question on a warm Explainer, one question right after
# a 100-row append, one question resolved and explained as a server
# does, and — each at mining width 1 and at the default width, for the
# ratio — one maintained append, the Maintainer's build next to a
# cold ARPMine of the same table, and mine_scale's mine, a cold ARPMine
# of 400K rows in sealed segments),
# then the repository benchmark — the one harness whose numbers
# count (BENCHMARK.json, benchmark/README.md).
bench:
	$(GO) test -bench 'BenchmarkGenOptParallel|BenchmarkExplainerWarm|BenchmarkExplainerAfterAppend|BenchmarkExplainerQuestion|BenchmarkGroupBy$$|BenchmarkGroupByPaths|BenchmarkSelectEqDrilldown|BenchmarkARPMine|BenchmarkFitShared|BenchmarkMaintainerCatchUp|BenchmarkMaintainerBuild' -benchmem -run XXX ./...
	$(GO) run ./benchmark

# Size: non-test Go lines per package directory (every .go file not
# named *_test.go, whatever its build tags), then their total. The
# test-support package internal/oracle is listed apart and left out of
# the total.
loc:
	@find . -name '*.go' ! -name '*_test.go' -exec wc -l {} + | awk '$$2 != "total"' | \
		awk '{ d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); n[d == "" ? "." : d] += $$1 } \
			END { for (d in n) print n[d], d }' | sort -k2 | \
		awk '$$2 == "internal/oracle" { o = $$1; next } { t += $$1; printf "%7d  %s\n", $$1, $$2 } \
			END { printf "%7d  total\n%7d  internal/oracle (test support, not in the total)\n", t, o }'

clean:
	$(GO) clean ./...
