GO ?= go

.PHONY: all build test vet lint bench bench-snapshot bench-perf bench-gated plan-smoke bench-history matrix matrix-smoke

all: vet build test

build:
	$(GO) build ./...

# -race gates the parallel search worker pool (internal/search), the repo's
# only goroutines.
test:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Formatting + vet, exactly what the CI lint job runs: gofmt -l output is a
# failure with the offending files named.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...

# One pass over every benchmark: regenerates each experiment's headline
# metric plus the streaming-vs-recorded engine comparison.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Machine-readable experiment snapshots for trend tracking: the standard
# suite (which already embeds the E14 smoke table), the E13 -long scale
# sweep (diameter-64 cells, prefix-cache steps-per-candidate savings), and
# the E14 -long adaptive sweep (two-node d=8 + line cells: adaptive vs
# scripted search vs certified Shift bound). CI uploads these as per-commit
# artifacts; all three are also committed, and CI fails when regenerating
# them changes a byte, so headline metrics diff in review.
bench-snapshot:
	$(GO) run ./cmd/gcsbench -json > BENCH_suite.json
	$(GO) run ./cmd/gcsbench -long -only E13 -json > BENCH_E13_long.json
	$(GO) run ./cmd/gcsbench -long -only E14 -json > BENCH_E14_long.json

# Timing snapshot of the gated perf workloads (ns/step + allocs/step for
# the E12 streaming engine and the E13 search, via gcsbench -perf /
# internal/perf). Machine-dependent — BENCH_perf.json records the perf
# trajectory per-PR on the maintainer's machine and is NOT diff-checked in
# CI (the CI perf-gate job compares head vs merge base instead).
bench-perf:
	$(GO) run ./cmd/gcsbench -perf > BENCH_perf.json

# The gated benchmarks: the one list the perf gate, the bench history and
# the docs refer to.
GATED_BENCH = EngineStream|EngineFork|EngineForkGradient|AdaptiveRun|SearchPrefixCached|SearchEndToEnd|SearchRateWindows

# The exact benchmark command the CI perf-gate job runs on the PR head and
# on the merge base (`make -s bench-gated`); pipe each into a file and
# compare with `go run ./cmd/perfgate -base base.txt -head head.txt`
# (and/or benchstat).
bench-gated:
	$(GO) test -bench '$(GATED_BENCH)' -benchmem -count 6 -run '^$$' ./...

# Scenario matrix (internal/scenario): generated topology families × fault
# models × drift profiles, each cell searched and adaptively scheduled, then
# gated against its certified D-dependent bound. `matrix` renders the full
# registry as a table; `matrix-smoke` regenerates the committed golden
# BENCH_matrix.json exactly as the CI matrix-smoke job does — after running
# it, `git diff BENCH_matrix.json` must be empty.
matrix:
	$(GO) run ./cmd/gcsbench -matrix

matrix-smoke:
	$(GO) run ./cmd/gcsbench -matrix -smoke -json > BENCH_matrix.json

# Distributed-search pricing smoke: plan the committed example campaign
# without executing a single engine step (the CI test job runs this — it
# proves the spec parses, the move-set arithmetic holds, and the cost model
# loads or degrades cleanly).
plan-smoke:
	$(GO) run ./cmd/gcssearch plan -spec examples/campaign_e13_long.json -workers 4

# Append this commit's gated-benchmark medians to the dev/bench/data.js
# history (github-action-benchmark format). CI runs this on every push to
# main; run it locally only to inspect the mechanism — local timings do not
# belong in the shared curve.
bench-history:
	$(MAKE) -s bench-gated > bench-head.txt
	$(GO) run ./cmd/perfgate -append -head bench-head.txt \
		-history dev/bench/data.js \
		-commit "$$(git rev-parse HEAD)" \
		-message "$$(git log -1 --format=%s)"
