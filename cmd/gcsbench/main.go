// Command gcsbench regenerates every experiment table of the reproduction
// (E1–E11 plus the Figure 1 rendering, the E12 streaming scale sweep, the
// E13 worst-case adversary search, and the E14 adaptive-adversary
// comparison) and the scenario matrix. README.md holds the experiment
// index.
//
// Usage:
//
//	gcsbench            # the standard suite (seconds)
//	gcsbench -long      # extended sweeps (minutes; larger diameters)
//	gcsbench -only E4   # one experiment (E1..E14); -only E12 is the
//	                    # streaming scale sweep (online skew on large lines)
//	gcsbench -json      # machine-readable tables (BENCH_*.json trend tracking)
//	gcsbench -matrix    # the scenario matrix: generated topologies ×
//	                    # fault models × drift profiles vs certified bounds
//	gcsbench -matrix -smoke -json
//	                    # the committed CI subset (BENCH_matrix.json)
//
// Output is buffered and printed only when the requested experiments all
// succeed; on failure nothing but the error (on stderr, exit 1) is emitted,
// so a partial table can never be mistaken for a complete run. -json emits
// the same tables as a JSON array of {id, title, header, rows, notes}
// objects (non-tabular extras like the Figure 1 rendering are text-only).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"gcs/internal/algorithms"
	"gcs/internal/engine"
	"gcs/internal/experiments"
	"gcs/internal/rat"
	"gcs/internal/scenario"
)

func main() {
	long := flag.Bool("long", false, "extended sweeps (larger diameters; minutes)")
	only := flag.String("only", "", "run a single experiment (E1..E14)")
	jsonOut := flag.Bool("json", false, "emit experiment tables as machine-readable JSON")
	matrix := flag.Bool("matrix", false, "run the scenario matrix (generated topologies × fault models × drift profiles vs certified bounds)")
	smoke := flag.Bool("smoke", false, "with -matrix: run only the committed CI smoke subset (BENCH_matrix.json)")
	flag.Parse()
	var out string
	var err error
	switch {
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case *matrix:
		if *long || *only != "" {
			err = fmt.Errorf("-matrix combines only with -smoke and -json")
		} else {
			out, err = runMatrix(*smoke, *jsonOut)
		}
	case *smoke:
		err = fmt.Errorf("-smoke selects the matrix smoke subset and requires -matrix")
	default:
		out, err = run(*long, strings.ToUpper(*only), *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcsbench:", err)
		os.Exit(1)
	}
	fmt.Print(out)
}

// runMatrix executes the scenario matrix (the full registry, or the smoke
// subset CI regenerates) and renders it: the raw reports as the committed
// JSON golden, or the experiment-table text form.
func runMatrix(smoke, jsonOut bool) (string, error) {
	var (
		scs []scenario.Scenario
		err error
	)
	if smoke {
		scs, err = scenario.Smoke()
	} else {
		scs, err = scenario.Matrix()
	}
	if err != nil {
		return "", err
	}
	reports, err := scenario.RunMatrix(scs, scenario.RunOptions{})
	if err != nil {
		return "", err
	}
	if jsonOut {
		b, err := scenario.MarshalReports(reports)
		if err != nil {
			return "", err
		}
		return string(b), nil
	}
	return experiments.MatrixTable(reports).Render() + "\n", nil
}

// result is one experiment's output: its tables plus optional non-tabular
// text (the Figure 1 rendering) that only the text mode prints.
type result struct {
	tables []*experiments.Table
	extra  string
}

// experiment binds an -only id to its runner: the accepted id set and the
// dispatch are the same data, so they cannot drift apart.
type experiment struct {
	id  string
	run func(protos []engine.Protocol, long bool) (result, error)
}

// suite lists every experiment in output order (E11 reports seed stability
// before the E10 topology sweep, as in the reproduction index).
var suite = []experiment{
	{"E1", runE1},
	{"E2", runE2},
	{"E3", runE3},
	{"E4", runE4},
	{"E5", runE5},
	{"E6", runE6},
	{"E7", runE7},
	{"E8", runE8},
	{"E9", runE9},
	{"E11", runE11},
	{"E10", runE10},
	{"E12", runE12},
	{"E13", runE13},
	{"E14", runE14},
}

func run(long bool, only string, jsonOut bool) (string, error) {
	if only != "" {
		found := false
		for _, e := range suite {
			if e.id == only {
				found = true
				break
			}
		}
		if !found {
			return "", fmt.Errorf("unknown experiment %q (want E1..E14)", only)
		}
	}
	protos := algorithms.All()
	var b strings.Builder
	var tables []*experiments.Table
	for _, e := range suite {
		if only != "" && e.id != only {
			continue
		}
		res, err := e.run(protos, long)
		if err != nil {
			return "", err
		}
		tables = append(tables, res.tables...)
		if !jsonOut {
			for _, t := range res.tables {
				b.WriteString(t.Render())
				b.WriteString("\n")
			}
			b.WriteString(res.extra)
		}
	}
	if jsonOut {
		data, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			return "", fmt.Errorf("marshal tables: %w", err)
		}
		return string(data) + "\n", nil
	}
	return b.String(), nil
}

func runE1(protos []engine.Protocol, long bool) (result, error) {
	opt := experiments.DefaultE1(protos)
	if long {
		opt.Distances = append(opt.Distances, 64, 128)
	}
	_, table, err := experiments.E1Shift(opt)
	if err != nil {
		return result{}, err
	}
	return result{tables: []*experiments.Table{table}}, nil
}

func runE2(protos []engine.Protocol, long bool) (result, error) {
	opt := experiments.DefaultE2(protos)
	if long {
		opt.Lines = append(opt.Lines, 65, 129)
	}
	_, table, figure, err := experiments.E2AddSkew(opt)
	if err != nil {
		return result{}, err
	}
	return result{
		tables: []*experiments.Table{table},
		extra: "-- F1: Figure 1 (β rate schedule of the Add Skew lemma) --\n" +
			figure + "\n",
	}, nil
}

func runE3(protos []engine.Protocol, _ bool) (result, error) {
	opt := experiments.DefaultE3(protos)
	_, table, err := experiments.E3BoundedIncrease(opt)
	if err != nil {
		return result{}, err
	}
	return result{tables: []*experiments.Table{table}}, nil
}

func runE4(protos []engine.Protocol, long bool) (result, error) {
	opt := experiments.DefaultE4(protos)
	if long {
		opt.RoundsList = append(opt.RoundsList, 4)
	}
	_, table, err := experiments.E4MainTheorem(opt)
	if err != nil {
		return result{}, err
	}
	return result{tables: []*experiments.Table{table}}, nil
}

func runE5(protos []engine.Protocol, long bool) (result, error) {
	opt := experiments.DefaultE5(protos)
	if long {
		opt.Dcs = append(opt.Dcs, 128)
	}
	_, table, err := experiments.E5Counterexample(opt)
	if err != nil {
		return result{}, err
	}
	return result{tables: []*experiments.Table{table}}, nil
}

func runE6(protos []engine.Protocol, long bool) (result, error) {
	opt := experiments.DefaultE6(protos)
	if long {
		opt.N = 33
		opt.Distances = append(opt.Distances, 32)
	}
	_, table, err := experiments.E6Profiles(opt)
	if err != nil {
		return result{}, err
	}
	return result{tables: []*experiments.Table{table}}, nil
}

func runE7(protos []engine.Protocol, long bool) (result, error) {
	opt := experiments.DefaultE7(protos)
	if long {
		opt.Diameters = append(opt.Diameters, 64)
	}
	_, table, err := experiments.E7TDMA(opt)
	if err != nil {
		return result{}, err
	}
	return result{tables: []*experiments.Table{table}}, nil
}

func runE8(protos []engine.Protocol, _ bool) (result, error) {
	opt := experiments.DefaultE8(protos)
	_, table, err := experiments.E8Applications(opt)
	if err != nil {
		return result{}, err
	}
	return result{tables: []*experiments.Table{table}}, nil
}

func runE9(_ []engine.Protocol, _ bool) (result, error) {
	opt := experiments.DefaultE9()
	_, _, gt, ct, err := experiments.E9Ablations(opt)
	if err != nil {
		return result{}, err
	}
	return result{tables: []*experiments.Table{gt, ct}}, nil
}

func runE10(protos []engine.Protocol, _ bool) (result, error) {
	opt := experiments.DefaultE10(protos)
	_, table, err := experiments.E10Topologies(opt)
	if err != nil {
		return result{}, err
	}
	return result{tables: []*experiments.Table{table}}, nil
}

func runE11(protos []engine.Protocol, long bool) (result, error) {
	opt := experiments.DefaultE11(protos)
	if long {
		opt.Seeds = append(opt.Seeds, 55, 89, 144, 233)
	}
	_, table, err := experiments.E11Seeds(opt)
	if err != nil {
		return result{}, err
	}
	return result{tables: []*experiments.Table{table}}, nil
}

func runE12(_ []engine.Protocol, long bool) (result, error) {
	// Streaming scale: the max-based strawman vs the gradient algorithm.
	opt := experiments.DefaultE12([]engine.Protocol{
		algorithms.MaxGossip(rat.FromInt(1)),
		algorithms.Gradient(algorithms.DefaultGradientParams()),
	})
	if long {
		opt.Sizes = append(opt.Sizes, 257)
		opt.Duration = opt.Duration.Add(opt.Duration)
	}
	_, table, err := experiments.E12StreamScale(opt)
	if err != nil {
		return result{}, err
	}
	return result{tables: []*experiments.Table{table}}, nil
}

func runE13(protos []engine.Protocol, long bool) (result, error) {
	opt, err := experiments.DefaultE13(protos)
	if err != nil {
		return result{}, err
	}
	if long {
		opt, err = experiments.LongE13Cells(opt)
		if err != nil {
			return result{}, err
		}
	}
	_, table, err := experiments.E13SearchWorstCase(opt)
	if err != nil {
		return result{}, err
	}
	return result{tables: []*experiments.Table{table}}, nil
}

func runE14(protos []engine.Protocol, long bool) (result, error) {
	opt, err := experiments.DefaultE14(protos)
	if err != nil {
		return result{}, err
	}
	if long {
		opt, err = experiments.LongE14Cells(opt)
		if err != nil {
			return result{}, err
		}
	}
	_, table, err := experiments.E14AdaptiveAdversary(opt)
	if err != nil {
		return result{}, err
	}
	return result{tables: []*experiments.Table{table}}, nil
}
