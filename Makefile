GO ?= go

.PHONY: all build test vet lint bench bench-snapshot bench-perf bench-gated perf-trend search-smoke matrix matrix-smoke fuzz-smoke perf-smoke

all: vet build test

build:
	$(GO) build ./...

# -race gates the parallel search worker pool (internal/search) and the obs
# registry and event hub that gcssearch run -serve reads while a search
# writes. The CI test job runs this target.
test:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Formatting + vet; the CI lint job runs this target. gofmt -l output is a
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
# in its own package, 10 s long with one worker. Minimizing an input that
# reaches new coverage is capped at 20 executions: at Go's 60 s default a
# target with a large seed spends its 10 s minimizing instead of fuzzing. A
# target whose last count is below 1,000 executions fuzzed nothing worth the
# name, so the run fails and names it. A failing input is written to that
# package's testdata/fuzz/, where it becomes a seed; the CI test job runs
# this on stable Go and uploads those directories when it fails.
fuzz-smoke:
	@set -e; list="$$($(GO) test -list '^Fuzz' ./...)"; \
	targets="$$(echo "$$list" | awk '/^Fuzz/ {f[++k] = $$1} /^ok/ {for (i = 1; i <= k; i++) print $$2 ":" f[i]; k = 0}')"; \
	[ -n "$$targets" ] || { echo "fuzz-smoke: no fuzz targets found" >&2; exit 1; }; \
	slow=""; \
	for t in $$targets; do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz $$name in $$pkg"; \
		out="$$($(GO) test -run '^$$' -fuzz "^$$name$$" -fuzztime 10s -fuzzminimizetime 20x -parallel 1 $$pkg 2>&1)" || \
			{ printf '%s\n' "$$out"; exit 1; }; \
		printf '%s\n' "$$out"; \
		execs="$$(printf '%s\n' "$$out" | sed -n 's/.*execs: \([0-9]*\).*/\1/p' | tail -n 1)"; \
		[ "$${execs:-0}" -ge 1000 ] || slow="$$slow $$name ($${execs:-0} execs)"; \
	done; \
	[ -z "$$slow" ] || { echo "fuzz-smoke: fewer than 1000 executions in 10 s:$$slow" >&2; exit 1; }

# The benchmark's own correctness checks on every workload: one short traced
# run each of `bash gcsperf/run.sh` (the stream references, the goldens, and
# the traced-vs-untraced count comparison). gcsperf exits 0 whatever it finds,
# so the target reads the verdict off the last line of the output: it must
# say "correct":true and "failed":0. The CI test job runs this on stable Go.
perf-smoke:
	@set -e; for w in stream search matrix construct; do \
		echo "perf-smoke $$w"; \
		out="$$(bash gcsperf/run.sh --workload $$w --seconds 1 --trace 1)"; \
		last="$$(printf '%s\n' "$$out" | tail -n 1)"; \
		if ! printf '%s' "$$last" | grep -q '"correct":true' || \
			! printf '%s' "$$last" | grep -Eq '"failed":0[,}]'; then \
			printf '%s\n' "$$out" >&2; \
			echo "perf-smoke: workload $$w is not correct:true with failed 0" >&2; exit 1; \
		fi; \
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
# CI (the CI perf-gate job compares head vs merge base instead). The run
# goes to a temporary file that replaces the record only when every
# benchmark passed: a failed or interrupted run leaves the record as it was.
bench-perf:
	@$(MAKE) -s bench-gated > BENCH_perf.txt.tmp || { rm -f BENCH_perf.txt.tmp; exit 1; }
	@mv BENCH_perf.txt.tmp BENCH_perf.txt

# The perf history: every committed revision of BENCH_perf.txt, oldest
# first, through `perfgate -trend`. It prints each gated figure's median in
# every record and the drift of the newest window of records against the one
# before. A local report, not a CI gate: each record is one run on whatever
# host made it, so it exits 0 whatever it shows.
perf-trend:
	@set -e; dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	git log --reverse --format='%h %ad %s' --date=short -- BENCH_perf.txt; \
	for rev in $$(git log --reverse --format=%H -- BENCH_perf.txt); do \
		git show "$$rev:BENCH_perf.txt" > "$$dir/$$rev.txt"; \
		set -- "$$@" "$$dir/$$rev.txt"; \
	done; \
	$(GO) run ./cmd/perfgate -trend "$$@"

# The gated benchmarks: the one list the perf gate, the perf history, the
# committed BENCH_perf.txt and the docs refer to. perfgate gates whatever the
# bench files hold, so the list is written only here.
GATED_BENCH = EngineStream|EngineFork|EngineForkGradient|AdaptiveRun|SearchPrefixCached|SearchEndToEnd|SearchRateWindows|MainTheoremChain

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

# Search CLI smoke on the committed example campaign, which the CI test job
# runs: `plan` bounds it without executing an engine step (the spec parses
# and validates, and the move-set arithmetic holds), then `run` searches both
# cells in process (about 30 ms). Either one exiting non-zero fails the
# target.
search-smoke:
	$(GO) run ./cmd/gcssearch plan -spec examples/campaign_e13_long.json
	$(GO) run ./cmd/gcssearch run -spec examples/campaign_e13_long.json
