package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/experiments"
	"gcs/internal/lowerbound"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/scenario"
	"gcs/internal/search"
	"gcs/internal/trace"
)

// defaultSeed is the default workload seed. The seed fixes the order in
// which a pass runs its operations; the operations themselves, and so their
// references, are the same at every seed.
const defaultSeed = 7

// env is what one pass runs with: fresh engine and search counters, the
// tracer (nil on untraced passes), and the heap bytes allocated inside the
// spans whose engine steps the counters see.
type env struct {
	tr        *tracer
	eng       *engine.Metrics
	src       *search.Metrics
	stepAlloc uint64
}

// stepSpan runs f, whose engine steps the counters see, in a span of layer
// l, and adds the heap bytes f allocates to e.stepAlloc.
func (e *env) stepSpan(l layer, f func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e.tr.span(l, f)
	runtime.ReadMemStats(&m1)
	e.stepAlloc += m1.TotalAlloc - m0.TotalAlloc
}

// op is one operation of a workload: its key (which names its reference
// row) and the indices of its inputs.
type op struct {
	key  string
	a, b int
}

// result is one operation's outcome, rendered as a reference row.
type result struct {
	key string
	got string
	err error
}

// workload is one benchmark workload. build generates its inputs; each pass
// builds them afresh, the way a fresh gcsbench process does, and then runs
// every operation once, in the seeded order.
type workload struct {
	name string
	// ops enumerates the operations in canonical order.
	ops func() []op
	// want loads the reference rows by operation key. A missing or
	// unreadable reference file is an error.
	want func(root string) (map[string]string, error)
	// build generates the inputs of every operation.
	build func(tr *tracer) (any, error)
	// run performs one operation on built inputs.
	run func(in any, o op, e *env) (string, error)
	// probe, when set, runs one operation through the module's public parts
	// so the traced run can read layer counters the operation's own entry
	// point does not expose. Its row must equal the operation's.
	probe func(in any, o op, e *env) (string, error)
}

var workloads = []*workload{streamWorkload, searchWorkload, matrixWorkload, constructWorkload}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want stream, search, matrix or construct)", name)
}

// plan is a workload's fixed, verified input: the operations in the seeded
// order and their reference rows.
type plan struct {
	w    *workload
	ops  []op
	want map[string]string
}

// setup loads the references, fixes the operation order from the seed, and
// generates the inputs once, so a broken input fails before any pass.
func setup(w *workload, root string, seed int64) (*plan, error) {
	want, err := w.want(root)
	if err != nil {
		return nil, err
	}
	ops := w.ops()
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	if _, err := w.build(nil); err != nil {
		return nil, fmt.Errorf("%s inputs: %w", w.name, err)
	}
	return &plan{w: w, ops: ops, want: want}, nil
}

// pass runs every operation once, with run (the workload's run or probe),
// on freshly built inputs.
func (p *plan) pass(e *env, run func(in any, o op, e *env) (string, error)) []result {
	in, err := p.w.build(e.tr)
	out := make([]result, len(p.ops))
	for i, o := range p.ops {
		out[i].key = o.key
		if err != nil {
			out[i].err = err
			continue
		}
		out[i].got, out[i].err = run(in, o, e)
	}
	return out
}

// check counts the failed operations of one pass: an error, or a row that
// differs from its reference or has none. Every pass is checked, so every
// pass also gives the same rows.
func check(results []result, want map[string]string) (failed int, why []string) {
	for _, r := range results {
		var reason string
		switch {
		case r.err != nil:
			reason = r.err.Error()
		case want[r.key] == "":
			reason = fmt.Sprintf("no reference row (got %q)", r.got)
		case want[r.key] != r.got:
			reason = fmt.Sprintf("got %q, want %q", r.got, want[r.key])
		default:
			continue
		}
		failed++
		why = append(why, r.key+": "+reason)
	}
	return failed, why
}

// ---- stream: E12-style online skew on long drifting lines ----

var (
	streamSizes    = []int{65, 129, 257}
	streamDuration = rat.FromInt(192)
	streamRho      = rat.MustFrac(1, 2)
)

// streamInputSeed seeds the stream's drifting schedules and delay adversary,
// as E12's seed does.
const streamInputSeed = 7

const streamExpected = "gcsperf/stream_expected.json"

// streamReference is the stored stream reference: the rows of the stream
// operations, recorded with input seed Seed.
type streamReference struct {
	Seed int64             `json:"seed"`
	Rows map[string]string `json:"rows"`
}

func streamProtocols() []engine.Protocol {
	return []engine.Protocol{
		algorithms.MaxGossip(rat.FromInt(1)),
		algorithms.Gradient(algorithms.DefaultGradientParams()),
	}
}

type streamInputs struct {
	protos []engine.Protocol
	nets   []*network.Network
	scheds [][]*clock.Schedule
}

var streamWorkload = &workload{
	name: "stream",
	ops: func() []op {
		var ops []op
		for a, p := range streamProtocols() {
			for b, n := range streamSizes {
				ops = append(ops, op{key: fmt.Sprintf("%s/n=%d", p.Name(), n), a: a, b: b})
			}
		}
		return ops
	},
	want: func(root string) (map[string]string, error) {
		data, err := os.ReadFile(filepath.Join(root, streamExpected))
		if err != nil {
			return nil, fmt.Errorf("stream reference: %w", err)
		}
		var ref streamReference
		if err := json.Unmarshal(data, &ref); err != nil {
			return nil, fmt.Errorf("stream reference %s: %w", streamExpected, err)
		}
		if len(ref.Rows) == 0 || ref.Seed != streamInputSeed {
			return nil, fmt.Errorf("stream reference %s: want rows recorded at input seed %d", streamExpected, streamInputSeed)
		}
		return ref.Rows, nil
	},
	build: func(tr *tracer) (any, error) {
		in := &streamInputs{protos: streamProtocols()}
		var err error
		tr.span(lGenerate, func() {
			for _, n := range streamSizes {
				var net *network.Network
				if net, err = network.Line(n); err != nil {
					return
				}
				var s []*clock.Schedule
				if s, err = clock.Diverse(n, rat.FromInt(1),
					rat.FromInt(1).Add(streamRho.Div(rat.FromInt(2))), 4, streamInputSeed); err != nil {
					return
				}
				in.nets = append(in.nets, net)
				in.scheds = append(in.scheds, s)
			}
		})
		return in, err
	},
	run: func(v any, o op, e *env) (string, error) {
		in := v.(*streamInputs)
		net, scheds := in.nets[o.b], in.scheds[o.b]
		var (
			skew *core.SkewTracker
			err  error
		)
		e.tr.span(lTracker, func() { skew, err = core.NewSkewTracker(net, scheds) })
		if err != nil {
			return "", err
		}
		valid := core.NewValidityTracker(scheds)
		var messages uint64
		var eng *engine.Engine
		e.tr.span(lEngineNew, func() {
			eng, err = engine.New(net,
				engine.WithProtocol(wrapProtocol(in.protos[o.a], e.tr)),
				engine.WithAdversary(wrapAdversary(engine.HashAdversary{Seed: streamInputSeed, Denom: 8}, e.tr)),
				engine.WithSchedules(scheds),
				engine.WithRho(streamRho),
				engine.WithMetrics(e.eng),
			)
		})
		if err != nil {
			return "", err
		}
		eng.Observe(wrapObserver(skew, e.tr), wrapObserver(valid, e.tr),
			engine.Funcs{Send: func(trace.MsgRecord) { messages++ }})
		e.stepSpan(lEngineRun, func() { err = eng.RunUntil(streamDuration) })
		if err != nil {
			return "", err
		}
		var skewErr, validErr error
		var global, local core.PairSkew
		e.tr.span(lReadout, func() {
			skewErr, validErr = skew.Err(), valid.Err()
			global, local = skew.Global(), skew.Local()
		})
		if skewErr != nil {
			return "", fmt.Errorf("skew tracker: %w", skewErr)
		}
		if validErr != nil {
			return "", fmt.Errorf("validity: %w", validErr)
		}
		return joinRow([]string{
			"events=" + strconv.FormatUint(eng.Steps(), 10),
			"messages=" + strconv.FormatUint(messages, 10),
			"global=" + global.Skew.String(),
			"local=" + local.Skew.String(),
		}), nil
	},
}

// ---- search: the E13 -long worst-case search cells ----

type searchInputs struct {
	opt experiments.E13Options
}

func searchOptions(tr *tracer) (experiments.E13Options, error) {
	var (
		opt experiments.E13Options
		err error
	)
	tr.span(lGenerate, func() {
		if opt, err = experiments.DefaultE13(algorithms.All()); err != nil {
			return
		}
		opt, err = experiments.LongE13Cells(opt)
	})
	return opt, err
}

var searchWorkload = &workload{
	name: "search",
	ops: func() []op {
		opt, err := searchOptions(nil)
		if err != nil {
			return nil
		}
		var ops []op
		for a, p := range opt.Protocols {
			for b, c := range opt.Cells {
				ops = append(ops, op{key: p.Name() + "/" + c.Name, a: a, b: b})
			}
		}
		return ops
	},
	want: func(root string) (map[string]string, error) {
		tables, err := loadTables(root, "BENCH_E13_long.json")
		if err != nil {
			return nil, err
		}
		return goldenRows(tables, "E13", func(row []string) string { return row[0] + "/" + row[1] })
	},
	build: func(tr *tracer) (any, error) {
		opt, err := searchOptions(tr)
		return &searchInputs{opt: opt}, err
	},
	run: func(v any, o op, e *env) (string, error) {
		opt := v.(*searchInputs).opt
		proto := wrapProtocol(opt.Protocols[o.a], e.tr)
		cell := opt.Cells[o.b]
		var (
			shift *lowerbound.ShiftResult
			seeds []search.Seed
			err   error
		)
		e.tr.span(lSeed, func() {
			if shift, err = lowerbound.Shift(proto, cell.Net.Diameter(), opt.Params); err == nil {
				seeds = cellSeeds(opt, cell, proto, shift)
			}
		})
		if err != nil {
			return "", fmt.Errorf("shift reference: %w", err)
		}
		var res *search.Result
		e.stepSpan(lSearch, func() {
			res, err = search.Search(search.Options{
				Net:            cell.Net,
				Protocol:       proto,
				Duration:       cell.Duration,
				Rho:            opt.Params.Rho,
				Base:           wrapAdversary(engine.Midpoint(), e.tr),
				Objective:      search.ObjectiveGlobalSkew,
				Seeds:          seeds,
				Rounds:         opt.Rounds,
				Beam:           opt.Beam,
				DelayMutations: opt.DelayMutations,
				MutateTail:     cell.MutateTail,
				RateWindows:    cell.RateWindows,
				Workers:        1,
				Metrics:        e.src,
				EngineMetrics:  e.eng,
			})
		})
		if err != nil {
			return "", err
		}
		ok := res.Best.GreaterEq(res.Baseline)
		if cell.Net.N() == 2 {
			ok = ok && res.Best.GreaterEq(shift.Implied)
		}
		if !ok {
			return "", fmt.Errorf("searched %s below its floor (baseline %s, shift %s)", res.Best, res.Baseline, shift.Implied)
		}
		return joinRow([]string{
			proto.Name(), cell.Name, fmtRat(res.Baseline), fmtRat(res.Best),
			fmtRat(shift.Implied), fmtBool(len(seeds) > 0), strconv.Itoa(res.Evaluated),
			fmtFloat("%.1f", res.StepsPerCandidate()), fmtFloat("%.1f", res.ResimPerCandidate()),
			fmtFloat("%.0f%%", 100*res.SavedFraction()), fmtBool(ok),
		}), nil
	},
}

// cellSeeds builds an E13 cell's certified seed exactly as E13 does: a
// construction that fails on the protocol degrades to an unseeded search.
func cellSeeds(opt experiments.E13Options, cell experiments.E13Cell, proto engine.Protocol, shift *lowerbound.ShiftResult) []search.Seed {
	var seed lowerbound.AdversarySeed
	var err error
	switch cell.Seed {
	case experiments.E13SeedShift:
		seed, err = shift.Seed()
	case experiments.E13SeedTheorem:
		var mt *lowerbound.MainTheoremResult
		mt, err = lowerbound.MainTheorem(lowerbound.MainTheoremInput{
			Protocol: proto, Params: opt.Params,
			Branch: cell.Branch, Rounds: cell.TheoremRounds,
		})
		if err == nil {
			seed, err = mt.Seed()
		}
	default:
		return nil
	}
	if err != nil {
		return nil
	}
	return []search.Seed{search.Seed(seed)}
}

// ---- matrix: the scenario matrix smoke cells ----

func smokeScenarios(tr *tracer) ([]scenario.Scenario, error) {
	var (
		scs []scenario.Scenario
		err error
	)
	tr.span(lGenerate, func() { scs, err = scenario.Smoke() })
	return scs, err
}

var matrixWorkload = &workload{
	name: "matrix",
	ops: func() []op {
		scs, err := smokeScenarios(nil)
		if err != nil {
			return nil
		}
		ops := make([]op, len(scs))
		for i, sc := range scs {
			ops[i] = op{key: sc.Name, a: i}
		}
		return ops
	},
	want: func(root string) (map[string]string, error) {
		data, err := os.ReadFile(filepath.Join(root, "BENCH_matrix.json"))
		if err != nil {
			return nil, fmt.Errorf("golden BENCH_matrix.json: %w", err)
		}
		var reports []scenario.Report
		if err := json.Unmarshal(data, &reports); err != nil {
			return nil, fmt.Errorf("golden BENCH_matrix.json: %w", err)
		}
		if len(reports) == 0 {
			return nil, errors.New("golden BENCH_matrix.json: no reports")
		}
		out := make(map[string]string, len(reports))
		for _, r := range reports {
			row, err := reportRow(r)
			if err != nil {
				return nil, err
			}
			out[r.Name] = row
		}
		return out, nil
	},
	build: func(tr *tracer) (any, error) { return smokeScenarios(tr) },
	run: func(v any, o op, e *env) (string, error) {
		sc := v.([]scenario.Scenario)[o.a]
		sc.Protocol = wrapProtocol(sc.Protocol, e.tr)
		var (
			rep scenario.Report
			err error
		)
		e.tr.span(lCell, func() { rep, err = scenario.RunScenario(sc, scenario.RunOptions{Workers: 1}) })
		if err != nil {
			return "", err
		}
		return reportRow(rep)
	},
	probe: matrixProbe,
}

func reportRow(r scenario.Report) (string, error) {
	b, err := json.Marshal(r)
	return string(b), err
}

// matrixProbe runs one matrix cell through the parts scenario.RunScenario is
// made of (drift schedules, the faulted beam search, the adaptive online
// scheduler, the certified bound), with the engine and search counters
// attached that RunScenario has no hook for.
func matrixProbe(v any, o op, e *env) (string, error) {
	sc := v.([]scenario.Scenario)[o.a]
	proto := wrapProtocol(sc.Protocol, e.tr)
	if err := sc.Model.Validate(); err != nil {
		return "", err
	}
	scheds, err := sc.Drift.Schedules(sc.Net.N(), sc.Rho, sc.Duration)
	if err != nil {
		return "", err
	}
	var res *search.Result
	e.stepSpan(lSearch, func() {
		res, err = search.Search(search.Options{
			Net:            sc.Net,
			Protocol:       proto,
			Duration:       sc.Duration,
			Rho:            sc.Rho,
			Schedules:      scheds,
			Base:           wrapAdversary(scenario.FaultAdversary{Model: sc.Model, Inner: engine.Midpoint()}, e.tr),
			Objective:      search.ObjectiveGlobalSkew,
			Rounds:         2,
			Beam:           2,
			DelayMutations: 6,
			Workers:        1,
			Metrics:        e.src,
			EngineMetrics:  e.eng,
		})
	})
	if err != nil {
		return "", err
	}
	// The adaptive run: source 0 on the fast band, front at the farthest node.
	const source = 0
	front, far := source, rat.Rat{}
	for j := 0; j < sc.Net.N(); j++ {
		if j != source && far.Less(sc.Net.Dist(source, j)) {
			front, far = j, sc.Net.Dist(source, j)
		}
	}
	sched, err := lowerbound.NewAdaptiveScheduler(sc.Net, source, front, lowerbound.AutoThreshold(sc.Rho, sc.Duration))
	if err != nil {
		return "", err
	}
	adaptiveScheds := append([]*clock.Schedule(nil), scheds...)
	adaptiveScheds[source] = clock.Constant(lowerbound.Params{Rho: sc.Rho}.RateBandHigh())
	skew, err := core.NewSkewTracker(sc.Net, adaptiveScheds)
	if err != nil {
		return "", err
	}
	eng, err := engine.New(sc.Net,
		engine.WithProtocol(proto),
		engine.WithAdversary(wrapAdversary(scenario.FaultAdversary{Model: sc.Model, Inner: sched}, e.tr)),
		engine.WithSchedules(adaptiveScheds),
		engine.WithRho(sc.Rho),
		engine.WithObservers(skew),
		engine.WithMetrics(e.eng),
	)
	if err != nil {
		return "", err
	}
	e.stepSpan(lEngineRun, func() { err = eng.RunUntil(sc.Duration) })
	if err == nil {
		err = skew.Err()
	}
	if err != nil {
		return "", err
	}
	adaptive := skew.Global().Skew
	worst := rat.Max(res.Best, adaptive)
	bound, term := scenario.CertifiedBound(scenario.BoundInput{
		Diameter: sc.Net.Diameter(), Period: sc.Period, Rho: sc.Rho,
		Duration: sc.Duration, Fault: sc.Model,
	})
	return reportRow(scenario.Report{
		Name: sc.Name, Family: sc.Family, Fault: sc.Fault, Drift: sc.Drift.String(),
		Protocol: proto.Name(), N: sc.Net.N(), Diameter: sc.Net.Diameter().String(),
		Duration: sc.Duration.String(), Baseline: res.Baseline.String(),
		Searched: res.Best.String(), Adaptive: adaptive.String(), Worst: worst.String(),
		Bound: bound.String(), BoundTerm: term, Margin: bound.Sub(worst).String(),
		Pass: worst.LessEq(bound),
	})
}

// ---- construct: the Main Theorem and Add Skew constructions ----

var (
	constructRounds = []int{1, 2, 3}
	constructLines  = []int{5, 9, 17, 33}
)

const constructBranch = 4

type constructInputs struct {
	protos []engine.Protocol
	params lowerbound.Params
}

var constructWorkload = &workload{
	name: "construct",
	ops: func() []op {
		var ops []op
		for a, p := range algorithms.All() {
			for b, r := range constructRounds {
				ops = append(ops, op{key: fmt.Sprintf("E4/%s/R=%d", p.Name(), r), a: a, b: b})
			}
			for b, n := range constructLines {
				ops = append(ops, op{key: fmt.Sprintf("E2/%s/n=%d", p.Name(), n), a: a, b: len(constructRounds) + b})
			}
		}
		return ops
	},
	want: func(root string) (map[string]string, error) {
		tables, err := loadTables(root, "BENCH_suite.json")
		if err != nil {
			return nil, err
		}
		e4, err := goldenRows(tables, "E4", func(row []string) string { return "E4/" + row[0] + "/R=" + row[2] })
		if err != nil {
			return nil, err
		}
		e2, err := goldenRows(tables, "E2", func(row []string) string { return "E2/" + row[0] + "/n=" + row[1] })
		if err != nil {
			return nil, err
		}
		for k, v := range e2 {
			e4[k] = v
		}
		return e4, nil
	},
	build: func(tr *tracer) (any, error) {
		return &constructInputs{protos: algorithms.All(), params: lowerbound.DefaultParams()}, nil
	},
	// One construction is the E4 or E2 experiment restricted to one protocol
	// and one size, so its row is the suite's by construction.
	run: func(v any, o op, e *env) (string, error) {
		in := v.(*constructInputs)
		protos := []engine.Protocol{wrapProtocol(in.protos[o.a], e.tr)}
		var (
			tab *experiments.Table
			err error
		)
		if o.b < len(constructRounds) {
			e.tr.span(lMainTheorem, func() {
				_, tab, err = experiments.E4MainTheorem(experiments.E4Options{
					Protocols: protos, Branch: constructBranch,
					RoundsList: []int{constructRounds[o.b]}, Params: in.params,
				})
			})
		} else {
			e.tr.span(lAddSkew, func() {
				_, tab, _, err = experiments.E2AddSkew(experiments.E2Options{
					Protocols: protos, Lines: []int{constructLines[o.b-len(constructRounds)]}, Params: in.params,
				})
			})
		}
		if err != nil {
			return "", err
		}
		if len(tab.Rows) != 1 {
			return "", fmt.Errorf("%s: %d rows, want 1", tab.ID, len(tab.Rows))
		}
		return joinRow(tab.Rows[0]), nil
	},
}
