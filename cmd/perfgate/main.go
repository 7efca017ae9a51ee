// Command perfgate is the CI perf-regression gate: it compares two
// `go test -bench` outputs — the merge base's and the PR head's — and fails
// when any gated benchmark regressed past its threshold.
//
// Usage:
//
//	make -s bench-gated > head.txt                           # on the PR head
//	git checkout <merge-base> && make -s bench-gated > base.txt
//	perfgate -base base.txt -head head.txt
//
// `make bench-gated` runs the gated benchmarks (the Makefile's GATED_BENCH
// list, the only place that list is written) with -benchmem -count 6, so
// the bench files hold nothing else and perfgate gates every benchmark in
// both by default; -match narrows that set.
//
// Each gated benchmark is aggregated by the median of its -count
// repetitions (one noisy repetition cannot fail or save a run), then head
// vs base is checked per unit: ns/op may grow at most -max-ns (default 30%),
// allocs/op at most -max-allocs (default 20%). Benchmarks present in only
// one file are skipped — new benchmarks have no baseline, deleted ones
// nothing to protect — so the gate works across revisions with different
// benchmark sets. Exit status 1 means at least one gate was exceeded; the
// report lists every gated comparison either way.
//
// With -append, perfgate instead records -head's measurements into a
// bench-history file (github-action-benchmark data.js format):
//
//	perfgate -append -head head.txt -history dev/bench/data.js \
//	    -commit "$GITHUB_SHA" -message "$(git log -1 --format=%s)" \
//	    -repo-url https://github.com/owner/repo
//
// CI runs this on every main-branch push, so the same medians the PR gate
// compares accumulate into a browsable trend curve under dev/bench/.
//
// With -trend, perfgate alerts on that curve: per benchmark figure, the
// median of the last -window history entries is compared against the median
// of the -window entries before them, and the run fails when any figure
// regressed by more than -max-trend — the slow drift a sequence of
// under-threshold PRs can smuggle past the pairwise gate:
//
//	perfgate -trend -history dev/bench/data.js -window 5 -max-trend 0.10
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"time"

	"gcs/internal/perf"
)

func main() {
	base := flag.String("base", "", "bench output of the comparison baseline (required unless -append)")
	head := flag.String("head", "", "bench output of the candidate revision (required)")
	match := flag.String("match", "", "regexp of benchmark names to gate (empty gates everything)")
	maxNs := flag.Float64("max-ns", 0.30, "tolerated relative ns/op regression")
	maxAllocs := flag.Float64("max-allocs", 0.20, "tolerated relative allocs/op regression")
	appendMode := flag.Bool("append", false, "append -head's medians to -history instead of gating")
	trendMode := flag.Bool("trend", false, "alert on -history's windowed trend instead of gating")
	history := flag.String("history", "dev/bench/data.js", "bench-history file (with -append / -trend)")
	commit := flag.String("commit", "", "commit id the -head measurements belong to (with -append)")
	message := flag.String("message", "", "commit subject line (with -append)")
	repoURL := flag.String("repo-url", "", "repository URL recorded in the history (with -append)")
	window := flag.Int("window", 5, "history entries per trend window (with -trend)")
	maxTrend := flag.Float64("max-trend", 0.10, "tolerated relative window-median regression (with -trend)")
	flag.Parse()
	var err error
	switch {
	case *appendMode && *trendMode:
		err = fmt.Errorf("-append and -trend are mutually exclusive")
	case *appendMode:
		err = runAppend(*head, *history, *match, *commit, *message, *repoURL, time.Now(), os.Stdout)
	case *trendMode:
		err = runTrend(*history, *window, *maxTrend, os.Stdout)
	default:
		err = run(*base, *head, *match, *maxNs, *maxAllocs, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(1)
	}
}

func parseBenchFile(path string) (map[string][]perf.BenchLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return perf.ParseBench(f)
}

func run(basePath, headPath, match string, maxNs, maxAllocs float64, out *os.File) error {
	if basePath == "" || headPath == "" {
		return fmt.Errorf("both -base and -head are required")
	}
	baseBench, err := parseBenchFile(basePath)
	if err != nil {
		return err
	}
	headBench, err := parseBenchFile(headPath)
	if err != nil {
		return err
	}
	gate := perf.Gate{MaxNsRegress: maxNs, MaxAllocsRegress: maxAllocs}
	if match != "" {
		re, err := regexp.Compile(match)
		if err != nil {
			return fmt.Errorf("bad -match regexp: %w", err)
		}
		gate.Match = re
	}
	deltas := gate.Compare(baseBench, headBench)
	fmt.Fprint(out, perf.Render(deltas))
	if fails := perf.Failures(deltas); len(fails) > 0 {
		return fmt.Errorf("%d perf gate(s) exceeded (ns/op > +%.0f%% or allocs/op > +%.0f%%)",
			len(fails), maxNs*100, maxAllocs*100)
	}
	if len(deltas) == 0 {
		return fmt.Errorf("no gated benchmarks present in both inputs — wrong files or bad -match?")
	}
	return nil
}

// runTrend compares the last -window history entries against the window
// before them and fails on any figure's windowed regression. A history too
// short for two full windows passes: the alert only ever judges complete
// windows.
func runTrend(historyPath string, window int, maxTrend float64, out *os.File) error {
	raw, err := os.ReadFile(historyPath)
	if err != nil {
		return err
	}
	h, err := perf.ParseHistory(raw)
	if err != nil {
		return err
	}
	alerts := perf.Trend(h, perf.HistorySeries, window, maxTrend)
	fmt.Fprint(out, perf.RenderTrend(alerts, window))
	if fails := perf.TrendFailures(alerts); len(fails) > 0 {
		return fmt.Errorf("%d benchmark figure(s) trending past +%.0f%% over the last %d entries",
			len(fails), maxTrend*100, window)
	}
	return nil
}

// runAppend records headPath's medians as one history entry for commit.
func runAppend(headPath, historyPath, match, commit, message, repoURL string, now time.Time, out *os.File) error {
	if headPath == "" {
		return fmt.Errorf("-head is required")
	}
	if commit == "" {
		return fmt.Errorf("-commit is required with -append")
	}
	headBench, err := parseBenchFile(headPath)
	if err != nil {
		return err
	}
	var re *regexp.Regexp
	if match != "" {
		if re, err = regexp.Compile(match); err != nil {
			return fmt.Errorf("bad -match regexp: %w", err)
		}
	}
	raw, err := os.ReadFile(historyPath)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	h, err := perf.ParseHistory(raw)
	if err != nil {
		return err
	}
	if repoURL != "" {
		h.RepoURL = repoURL
	}
	hc := perf.HistoryCommit{
		ID:        commit,
		Message:   message,
		Timestamp: now.UTC().Format(time.RFC3339),
	}
	if h.RepoURL != "" {
		hc.URL = h.RepoURL + "/commit/" + commit
	}
	entry := perf.EntryFromBench(headBench, hc, now.UnixMilli(), re)
	if len(entry.Benches) == 0 {
		return fmt.Errorf("no benchmarks in %s match %q — nothing to record", headPath, match)
	}
	h.Append(perf.HistorySeries, entry)
	rendered, err := h.Render()
	if err != nil {
		return err
	}
	if dir := filepath.Dir(historyPath); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := os.WriteFile(historyPath, rendered, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "recorded %d benchmark figure(s) for %s in %s (%d entries total)\n",
		len(entry.Benches), commit, historyPath, len(h.Entries[perf.HistorySeries]))
	return nil
}
