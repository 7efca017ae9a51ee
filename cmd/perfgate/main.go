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
// both.
//
// Each gated benchmark is aggregated by the median of its -count
// repetitions (one noisy repetition cannot fail or save a run), then head
// vs base is checked per unit: ns/op may grow at most 30%, allocs/op at
// most 20%. Benchmarks present in only one file are skipped — new
// benchmarks have no baseline, deleted ones nothing to protect — so the gate
// works across revisions with different benchmark sets. Exit status 1 means
// at least one gate was exceeded; the report lists every gated comparison
// either way.
//
// With -trend, perfgate instead reports on the bench records given as
// arguments, oldest first — `make perf-trend` passes every committed
// revision of BENCH_perf.txt:
//
//	perfgate -trend old.txt ... new.txt
//
// It prints each gated figure's median in every record, then the median of
// the newest window of records (5, or half the records when there are fewer
// than 10) against the window before it, flagged past +10%: the slow drift
// a run of under-threshold PRs can walk past the pairwise gate. A figure
// missing from a record in either window is listed as skipped. The report
// is not a gate — each record is one run on a shared host — so it exits 0
// whatever it shows, and fails only on no records or an unreadable or
// malformed one.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gcs/internal/perf"
)

func main() {
	base := flag.String("base", "", "bench output of the comparison baseline")
	head := flag.String("head", "", "bench output of the candidate revision")
	trend := flag.Bool("trend", false, "report the drift across the bench records given as arguments, oldest first")
	flag.Parse()
	var err error
	switch {
	case *trend && (*base != "" || *head != ""):
		err = fmt.Errorf("-trend takes bench records as arguments, not -base or -head")
	case *trend:
		err = runTrend(flag.Args(), os.Stdout)
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	default:
		err = run(*base, *head, os.Stdout)
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
	lines, err := perf.ParseBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return lines, nil
}

func run(basePath, headPath string, out io.Writer) error {
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
	deltas := perf.Compare(baseBench, headBench)
	fmt.Fprint(out, perf.Render(deltas))
	if fails := perf.Failures(deltas); len(fails) > 0 {
		return fmt.Errorf("%d perf gate(s) exceeded (ns/op > +%.0f%% or allocs/op > +%.0f%%)",
			len(fails), perf.MaxNsRegress*100, perf.MaxAllocsRegress*100)
	}
	if len(deltas) == 0 {
		return fmt.Errorf("no gated benchmarks present in both inputs — wrong files?")
	}
	return nil
}

// runTrend reports the drift across the bench records at paths, oldest
// first.
func runTrend(paths []string, out io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("-trend needs bench records as arguments, oldest first")
	}
	records := make([]map[string][]perf.BenchLine, len(paths))
	for i, p := range paths {
		r, err := parseBenchFile(p)
		if err == nil && len(r) == 0 {
			err = fmt.Errorf("%s: no benchmark results", p)
		}
		if err != nil {
			return err
		}
		records[i] = r
	}
	_, err := io.WriteString(out, perf.RenderTrend(perf.Trend(records)))
	return err
}
