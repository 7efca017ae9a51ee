GO ?= go

.PHONY: all build test vet lint bench bench-snapshot bench-perf bench-gated plan-smoke bench-history matrix matrix-smoke fuzz-smoke

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

# One iteration of every benchmark in every package, gated or not: each
# experiment's headline metric, the engine and search benchmarks, and the rat
# microbenchmarks. The CI test job runs it, so a benchmark that stops
# building or starts to b.Fatal fails there instead of going unseen.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Fuzz every fuzz target beyond its seed corpus (plain `go test` only
# replays the seeds). `go test -list` names each package's targets, so a new
# target joins without an edit here; each then gets one `go test -fuzz` run,
# in its own package, 10 s long with one worker. A failing input is written
# to that package's testdata/fuzz/, where it becomes a seed; the CI test job
# runs this on stable Go and uploads those directories when it fails.
fuzz-smoke:
	@set -e; list="$$($(GO) test -list '^Fuzz' ./...)"; \
	targets="$$(echo "$$list" | awk '/^Fuzz/ {f[++k] = $$1} /^ok/ {for (i = 1; i <= k; i++) print $$2 ":" f[i]; k = 0}')"; \
	[ -n "$$targets" ] || { echo "fuzz-smoke: no fuzz targets found" >&2; exit 1; }; \
	for t in $$targets; do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz $$name in $$pkg"; \
		$(GO) test -run '^$$' -fuzz "^$$name$$" -fuzztime 10s -parallel 1 $$pkg; \
	done

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

# Timing record of the gated benchmarks: one raw `make bench-gated` run,
# committed as BENCH_perf.txt. Every gated benchmark reports steps/op (engine
# events dispatched per op), so ns/step is ns/op ÷ steps/op; perfgate and
# benchstat read the file as it is. Machine-dependent — it records the perf
# trajectory per PR on the maintainer's machine and is NOT diff-checked in
# CI (the CI perf-gate job compares head vs merge base instead).
bench-perf:
	$(MAKE) -s bench-gated > BENCH_perf.txt

# The gated benchmarks: the one list the perf gate, the bench history, the
# committed BENCH_perf.txt and the docs refer to. perfgate gates whatever the
# bench files hold, so the list is written only here.
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

# Distributed-search planning smoke: bound the committed example campaign
# without executing a single engine step (the CI test job runs this — it
# proves the spec parses and the move-set arithmetic holds).
plan-smoke:
	$(GO) run ./cmd/gcssearch plan -spec examples/campaign_e13_long.json

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
