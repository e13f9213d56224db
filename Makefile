GO ?= go

.PHONY: all build test check check-full bench clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The gate every PR must pass: vet, staticcheck (when installed — CI
# always has it; locally it is skipped rather than failing on a missing
# binary), build, the full suite under the race detector (the parallel
# generator, sharded cache, batch worker pool, morsel executor, and
# concurrent columnar builds are only meaningfully exercised with
# -race), the fuzz seed corpora as a smoke pass (fuzzing off — seeds
# only, so a corpus regression fails fast and deterministically), and
# the benchscale identity pass under -race at 4 workers, which drives
# the whole morsel-parallel mining stack and byte-compares it to the
# sequential dense reference, the benchload identity pass, which
# answers the same questions against 1-shard and 2-shard deployments of
# the scatter-gather coordinator and byte-compares the explanations,
# and the benchserve identity pass, which byte-compares indexed against
# linear-scan generation and cache-on against cache-off serving,
# including cached replays across appends.
check:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -run '^Fuzz' ./...
	$(GO) test -run Recovery -race -short ./internal/store
	$(GO) run -race ./cmd/capebench benchscale -smoke -parallel 4
	$(GO) run -race ./cmd/capebench benchload -smoke
	$(GO) run -race ./cmd/capebench benchserve -smoke

# check plus the exhaustive crash matrix: every syscall boundary of the
# WAL store crashed under every fsync policy and crash-image variant,
# against the larger workload (-crashfull). The sampled matrix already
# runs inside check's -race suite; this is the nightly-strength pass.
check-full: check
	$(GO) test -race -timeout 20m -run Recovery ./internal/store -crashfull

# Performance trajectory: the explanation worker-count sweep, the
# GroupBy hot path, the offline-mining fast path, and one maintained
# append at the repository benchmark's table size, plus the capebench
# runs that write BENCH_explain.json, BENCH_mine.json, BENCH_batch.json,
# BENCH_engine.json, BENCH_incr.json, BENCH_scale.json,
# BENCH_load.json and BENCH_serve.json.
bench:
	$(GO) test -bench 'BenchmarkGenOptParallel|BenchmarkGroupBy$$|BenchmarkARPMine|BenchmarkFitShared|BenchmarkMaintainerCatchUp' -benchmem -run XXX ./...
	$(GO) run ./cmd/capebench benchexplain
	$(GO) run ./cmd/capebench benchmine
	$(GO) run ./cmd/capebench benchbatch
	$(GO) run ./cmd/capebench benchengine
	$(GO) run ./cmd/capebench benchincr
	$(GO) run ./cmd/capebench benchscale
	$(GO) run ./cmd/capebench benchload
	$(GO) run ./cmd/capebench benchserve

clean:
	$(GO) clean ./...
