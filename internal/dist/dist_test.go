package dist

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/search"
)

// ratp returns a pointer to r, for a spec's explicit Rho.
func ratp(r rat.Rat) *rat.Rat { return &r }

// e13LongSpec is the acceptance workload: the E13 -long two-node diameter-16
// search configuration (the same cell BenchmarkSearchPrefixCached measures).
func e13LongSpec() CampaignSpec {
	return CampaignSpec{
		Protocol: "gradient",
		Cells: []CellSpec{{
			Topology: "two-node",
			Diameter: rat.FromInt(16),
			Duration: rat.FromInt(32),
		}},
		Rho:            ratp(rat.MustFrac(1, 2)),
		Rounds:         3,
		Beam:           2,
		DelayMutations: 8,
		MutateTail:     rat.MustFrac(1, 2),
	}
}

// campaign validates spec and builds its cells' networks.
func campaign(t *testing.T, spec CampaignSpec) *Campaign {
	t.Helper()
	c, err := NewCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// singleProcess runs the spec's one cell through plain search.Search.
func singleProcess(t *testing.T, spec CampaignSpec) *search.Result {
	t.Helper()
	opt, err := campaign(t, spec).CellOptions(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resultsMatch asserts that two results are identical: best value, winning
// candidate index, witness, script, rates, schedules, and the search
// accounting.
func resultsMatch(t *testing.T, want, got *search.Result) {
	t.Helper()
	if !got.Best.Equal(want.Best) || !got.Baseline.Equal(want.Baseline) {
		t.Fatalf("values differ: best %s vs %s, baseline %s vs %s", got.Best, want.Best, got.Baseline, want.Baseline)
	}
	if got.BestCandidate != want.BestCandidate {
		t.Fatalf("best candidate index differs: %d vs %d", got.BestCandidate, want.BestCandidate)
	}
	if got.Rounds != want.Rounds || got.Evaluated != want.Evaluated {
		t.Fatalf("rounds/evaluated differ: %d/%d vs %d/%d", got.Rounds, got.Evaluated, want.Rounds, want.Evaluated)
	}
	if got.EngineSteps != want.EngineSteps || got.CandidateSteps != want.CandidateSteps {
		t.Fatalf("steps differ: engine %d vs %d, candidate %d vs %d",
			got.EngineSteps, want.EngineSteps, got.CandidateSteps, want.CandidateSteps)
	}
	if got.Witness.I != want.Witness.I || got.Witness.J != want.Witness.J ||
		!got.Witness.Skew.Equal(want.Witness.Skew) || !got.Witness.At.Equal(want.Witness.At) {
		t.Fatalf("witness differs: %+v vs %+v", got.Witness, want.Witness)
	}
	if len(got.Script) != len(want.Script) {
		t.Fatalf("script sizes differ: %d vs %d", len(got.Script), len(want.Script))
	}
	for k, v := range want.Script {
		gv, ok := got.Script[k]
		if !ok || !gv.Equal(v) {
			t.Fatalf("script entry %v differs: %s vs %s (present=%v)", k, gv, v, ok)
		}
	}
	if len(got.Rates) != len(want.Rates) {
		t.Fatalf("rates lengths differ: %d vs %d", len(got.Rates), len(want.Rates))
	}
	for i := range want.Rates {
		if !got.Rates[i].Equal(want.Rates[i]) {
			t.Fatalf("rate %d differs: %s vs %s", i, got.Rates[i], want.Rates[i])
		}
	}
	if len(got.Schedules) != len(want.Schedules) {
		t.Fatalf("schedule counts differ: %d vs %d", len(got.Schedules), len(want.Schedules))
	}
	for i := range want.Schedules {
		ga, wa := got.Schedules[i].Rates(), want.Schedules[i].Rates()
		if len(ga) != len(wa) {
			t.Fatalf("schedule %d has %d vs %d segments", i, len(ga), len(wa))
		}
		for k := range wa {
			if !ga[k].At.Equal(wa[k].At) || !ga[k].Rate.Equal(wa[k].Rate) {
				t.Fatalf("schedule %d segment %d differs", i, k)
			}
		}
	}
}

// TestRunMatchesSearch: Run's result for a cell is search.Search's on the
// cell's options, and its progress events account for every evaluation: one
// event per merged generation, the candidates summing to Result.Evaluated.
func TestRunMatchesSearch(t *testing.T) {
	spec := e13LongSpec()
	want := singleProcess(t, spec)
	var events []ProgressEvent
	cells, err := campaign(t, spec).Run(nil, nil, func(ev ProgressEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("got %d cell results, want 1", len(cells))
	}
	resultsMatch(t, want, cells[0].Result)
	// One event per evaluated generation: the initial one, every mutation
	// round, and possibly a final non-improving round.
	if len(events) != want.Rounds+1 && len(events) != want.Rounds+2 {
		t.Fatalf("got %d progress events for %d rounds", len(events), want.Rounds)
	}
	sum := 0
	for r, ev := range events {
		sum += ev.Candidates
		if ev.Round != r || ev.Evaluated != sum {
			t.Fatalf("event %d: round %d, %d evaluated, want round %d and %d", r, ev.Round, ev.Evaluated, r, sum)
		}
	}
	if sum != want.Evaluated || events[len(events)-1].Best != want.Best.String() {
		t.Fatalf("events evaluated %d, best %s; result %d, %s", sum, events[len(events)-1].Best, want.Evaluated, want.Best)
	}
}

// TestPlanCampaign: `gcssearch plan` bounds — exact candidate counts from
// the move-set arithmetic, no engine constructed.
func TestPlanCampaign(t *testing.T) {
	spec := e13LongSpec()
	plan := campaign(t, spec).Plan()
	if len(plan.Cells) != 1 {
		t.Fatalf("got %d cell plans, want 1", len(plan.Cells))
	}
	cp := plan.Cells[0]
	if cp.Nodes != 2 {
		t.Fatalf("two-node cell planned %d nodes", cp.Nodes)
	}
	if cp.Generations != 1+spec.Rounds {
		t.Fatalf("planned %d generations, want %d", cp.Generations, 1+spec.Rounds)
	}
	// Per mutation generation: Beam × (2 rate flips per node + 3 snaps per
	// sampled decision) = 2 × (4 + 24) = 56; plus the initial base.
	wantPerGen := spec.Beam * (2*2 + 3*spec.DelayMutations)
	if cp.CandidatesPerGen[1] != wantPerGen {
		t.Fatalf("planned %d candidates/gen, want %d", cp.CandidatesPerGen[1], wantPerGen)
	}
	if cp.MaxCandidates != 1+spec.Rounds*wantPerGen {
		t.Fatalf("planned %d max candidates, want %d", cp.MaxCandidates, 1+spec.Rounds*wantPerGen)
	}
	if plan.MaxCandidates != cp.MaxCandidates {
		t.Fatalf("plan total %d, want the one cell's %d", plan.MaxCandidates, cp.MaxCandidates)
	}
	// The bound must actually bound: the real run evaluates fewer (dedup,
	// early convergence).
	real := singleProcess(t, spec)
	if real.Evaluated > cp.MaxCandidates {
		t.Fatalf("plan bound %d below real evaluation count %d", cp.MaxCandidates, real.Evaluated)
	}
}

// TestPlanBoundsHoldOnRun drives specs through Campaign.Run, the runner
// `gcssearch run` uses, and holds the plan to every generation it merged:
// per cell, at most Generations rounds, and round r evaluating at most
// CandidatesPerGen[r] candidates.
// The specs are the committed example campaign and an E13 cell with
// windowed rate surgery, so every term of the per-parent bound is live.
func TestPlanBoundsHoldOnRun(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "campaign_e13_long.json"))
	if err != nil {
		t.Fatal(err)
	}
	example, err := DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	windows := e13LongSpec()
	windows.RateWindows = 4
	for name, spec := range map[string]CampaignSpec{"example": example, "rate-windows": windows} {
		c := campaign(t, spec)
		plan := c.Plan()
		var events []ProgressEvent
		if _, err := c.Run(nil, nil, func(ev ProgressEvent) { events = append(events, ev) }); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rounds := make([]int, len(plan.Cells))
		for _, ev := range events {
			cp := plan.Cells[ev.Cell]
			rounds[ev.Cell]++
			if ev.Round >= cp.Generations {
				t.Errorf("%s cell %d: round %d beyond the planned %d generations", name, ev.Cell, ev.Round, cp.Generations)
				continue
			}
			if ev.Candidates > cp.CandidatesPerGen[ev.Round] {
				t.Errorf("%s cell %d round %d: %d candidates, plan bound %d",
					name, ev.Cell, ev.Round, ev.Candidates, cp.CandidatesPerGen[ev.Round])
			}
		}
		for i, cp := range plan.Cells {
			if rounds[i] == 0 || rounds[i] > cp.Generations {
				t.Errorf("%s cell %d: %d rounds merged, plan bound %d", name, i, rounds[i], cp.Generations)
			}
		}
	}
}

// invalidSpecs are the misconfigurations a spec author will actually
// produce, and the specs past each cap that NewCampaign must refuse: the last
// of them would overflow Plan's arithmetic if it were planned.
func invalidSpecs() []CampaignSpec {
	line := func(n int) []CellSpec { return []CellSpec{{Topology: "line", N: n, Duration: rat.FromInt(4)}} }
	tooMany := make([]CellSpec, maxCells+1)
	for i := range tooMany {
		tooMany[i] = line(3)[0]
	}
	specs := []CampaignSpec{
		{},
		{Protocol: "gradient"},
		{Protocol: "nope", Cells: []CellSpec{{Topology: "line", N: 3, Duration: rat.FromInt(4)}}},
		{Protocol: "gradient", Cells: []CellSpec{{Topology: "möbius", N: 3, Duration: rat.FromInt(4)}}},
		{Protocol: "gradient", Cells: []CellSpec{{Topology: "line", N: 3}}},
		{Protocol: "gradient", Adversary: "nope", Cells: []CellSpec{{Topology: "line", N: 3, Duration: rat.FromInt(4)}}},
		{Protocol: "gradient", Objective: "nope", Cells: []CellSpec{{Topology: "line", N: 3, Duration: rat.FromInt(4)}}},
		{Protocol: "gradient", Cells: []CellSpec{{Topology: "two-node", Duration: rat.FromInt(4)}}},
		{Protocol: "gradient", Cells: []CellSpec{{Topology: "line", N: 1000000, Duration: rat.FromInt(4)}}},
		{Protocol: "gradient", Cells: []CellSpec{{Topology: "complete", N: network.MaxNodes + 1, Duration: rat.FromInt(4)}}},
		{Protocol: "gradient", Rounds: maxRounds + 1, Cells: []CellSpec{{Topology: "line", N: 3, Duration: rat.FromInt(4)}}},
		{Protocol: "gradient", Rho: ratp(rat.FromInt(2)), Cells: line(3)},
		{Protocol: "gradient", Rho: ratp(rat.MustFrac(-1, 2)), Cells: line(3)},
		{Protocol: "gradient", Rho: ratp(rat.FromInt(1)), Cells: line(3)},
		{Protocol: "gradient", RateWindows: -3, Cells: line(3)},
		{Protocol: "gradient", Beam: maxBeam + 1, Cells: line(3)},
		{Protocol: "gradient", DelayMutations: maxDelayMutations + 1, Cells: line(3)},
		{Protocol: "gradient", RateWindows: maxRateWindows + 1, Cells: line(3)},
		{Protocol: "gradient", Cells: tooMany},
		{Protocol: "gradient", RateWindows: 1 << 52, Beam: 1 << 52, Cells: line(network.MaxNodes)},
		{Protocol: "gradient", Rounds: -2, Cells: line(3)},
		{Protocol: "gradient", Beam: -5, Cells: line(3)},
		{Protocol: "gradient", DelayMutations: -1, Cells: line(3)},
		{Protocol: "gradient", Threads: -3, Cells: line(3)},
		{Protocol: "gradient", Rho: ratp(rat.Rat{}), RateWindows: 2, Cells: line(3)},
		{Protocol: "gradient", Seed: 1, Cells: []CellSpec{{Topology: "rgg", N: 6, Duration: rat.FromInt(4)}}},
	}
	for _, cell := range append(badDiameterCells(), strayTwoNodeCells()...) {
		specs = append(specs, CampaignSpec{Protocol: "max-gossip", Seed: 7, Cells: []CellSpec{cell}})
	}
	return specs
}

// strayTwoNodeCells are two-node cells whose one fault is an n other than
// the 0 or 2 a two-node cell takes.
func strayTwoNodeCells() []CellSpec {
	var cells []CellSpec
	for _, n := range []int{-5, 1, 3, 100000} {
		cells = append(cells, CellSpec{Topology: "two-node", N: n, Diameter: rat.FromInt(2), Duration: rat.FromInt(4)})
	}
	return cells
}

// TestSpecRefusesStrayTwoNodeN: each stray-n two-node cell fails on its n,
// and the same cell with n 0 or 2 validates, so no other fault hides the
// refusal.
func TestSpecRefusesStrayTwoNodeN(t *testing.T) {
	for _, cell := range strayTwoNodeCells() {
		spec := CampaignSpec{Protocol: "max-gossip", Seed: 7, Cells: []CellSpec{cell}}
		if _, err := NewCampaign(spec); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("n %d on a two-node cell", cell.N)) {
			t.Errorf("two-node cell with n %d: error %v, want a refusal naming its n", cell.N, err)
		}
		for _, n := range []int{0, 2} {
			spec.Cells[0].N = n
			if _, err := NewCampaign(spec); err != nil {
				t.Errorf("two-node cell with n %d: %v", n, err)
			}
		}
	}
}

// TestDecodeSpecRefusesUnknownKeys: a spec with one top-level or cell key
// misspelled fails to decode with an error naming that key, where
// json.Unmarshal would drop it and leave the field at its default; so does
// data after the spec's object, while trailing white space decodes.
func TestDecodeSpecRefusesUnknownKeys(t *testing.T) {
	const valid = `{"protocol": "max-gossip", "rho": "1/2", "adversary": "midpoint", "seed": 1, "objective": "global",
		"rounds": 1, "beam": 1, "delay_mutations": 1, "rate_windows": 1, "mutate_tail": "1/2", "threads": 1,
		"cells": [{"name": "c", "topology": "two-node", "n": 2, "diameter": "2", "duration": "4"}]}`
	if _, err := DecodeSpec([]byte(valid + "\n\t ")); err != nil {
		t.Fatalf("the valid spec: %v", err)
	}
	for _, key := range []string{"protocol", "rho", "adversary", "seed", "objective", "rounds", "beam",
		"delay_mutations", "rate_windows", "mutate_tail", "threads", "cells",
		"name", "topology", "n", "diameter", "duration"} {
		bad := strings.Replace(valid, `"`+key+`":`, `"`+key+`_":`, 1)
		if bad == valid {
			t.Fatalf("no key %q in the valid spec", key)
		}
		if _, err := DecodeSpec([]byte(bad)); err == nil || !strings.Contains(err.Error(), `"`+key+`_"`) {
			t.Errorf("key %q misspelled: error %v, want one naming %q", key, err, key+"_")
		}
	}
	for _, tail := range []string{" {}", "x", ` {"protocol": "null"}`} {
		if _, err := DecodeSpec([]byte(valid + tail)); err == nil {
			t.Errorf("data %q after the spec decoded", tail)
		}
	}
}

// badDiameterCells are cells whose one fault is their diameter: a negative
// one, and one on each topology that derives its diameter from n.
func badDiameterCells() []CellSpec {
	cell := func(topology string, n int, d rat.Rat) CellSpec {
		return CellSpec{Topology: topology, N: n, Diameter: d, Duration: rat.FromInt(4)}
	}
	return []CellSpec{
		cell("star", 4, rat.FromInt(-3)),
		cell("complete", 4, rat.MustFrac(-1, 2)),
		cell("two-node", 0, rat.FromInt(-2)),
		cell("line", 4, rat.FromInt(3)),
		cell("ring", 4, rat.FromInt(2)),
		cell("grid", 9, rat.FromInt(4)),
		cell("rgg", 16, rat.FromInt(1)),
	}
}

// TestSpecRefusesBadDiameter: each bad-diameter cell fails on its diameter,
// and the same cell without it validates (the two-node cell with a positive
// one), so no other fault hides the refusal.
func TestSpecRefusesBadDiameter(t *testing.T) {
	for _, cell := range badDiameterCells() {
		spec := CampaignSpec{Protocol: "max-gossip", Seed: 7, Cells: []CellSpec{cell}}
		if _, err := NewCampaign(spec); err == nil || !strings.Contains(err.Error(), "diameter") {
			t.Errorf("%s cell with diameter %s: error %v, want a refusal naming the diameter", cell.Topology, cell.Diameter, err)
		}
		spec.Cells[0].Diameter = rat.Rat{}
		if cell.Topology == "two-node" {
			spec.Cells[0].Diameter = cell.Diameter.Neg()
		}
		if _, err := NewCampaign(spec); err != nil {
			t.Errorf("%s cell without its bad diameter: %v", cell.Topology, err)
		}
	}
}

// TestSpecValidate rejects every invalid spec and accepts the E13 one.
func TestSpecValidate(t *testing.T) {
	for i, s := range invalidSpecs() {
		if _, err := NewCampaign(s); err == nil {
			t.Fatalf("spec %d validated: %+v", i, s)
		}
	}
	campaign(t, e13LongSpec())
}

// TestSearchModeSpecErrors: the configurations gcssim -search refused before
// `gcssearch run` took its searches over, each written as one bad field in
// an otherwise valid spec, must fail to decode or to validate.
func TestSearchModeSpecErrors(t *testing.T) {
	const valid = `{"protocol": "null", "objective": "global", "adversary": "midpoint", "rho": "1/2",
		"cells": [{"topology": "line", "n": 4, "duration": "6"}]}`
	decode := func(data string) error {
		spec, err := DecodeSpec([]byte(data))
		if err != nil {
			return err
		}
		_, err = NewCampaign(spec)
		return err
	}
	if err := decode(valid); err != nil {
		t.Fatalf("the valid spec: %v", err)
	}
	for name, field := range map[string][2]string{
		"bad objective": {`"global"`, `"chaos"`},
		"bad duration":  {`"duration": "6"`, `"duration": "x"`},
		"zero duration": {`"duration": "6"`, `"duration": "0"`},
		"bad rho":       {`"rho": "1/2"`, `"rho": "x"`},
		"bad proto":     {`"null"`, `"nope"`},
		"bad topology":  {`"line"`, `"torus"`},
		"bad adversary": {`"midpoint"`, `"chaos"`},
	} {
		t.Run(name, func(t *testing.T) {
			bad := strings.Replace(valid, field[0], field[1], 1)
			if err := decode(bad); err == nil {
				t.Fatalf("accepted:\n%s", bad)
			}
		})
	}
}

// searchModeCase is one configuration gcssim -search used to run, as the
// one-cell campaign spec that replaces it and the search.Options gcssim
// built from its flags.
type searchModeCase struct {
	name string
	spec string
	opt  func(t *testing.T) search.Options
}

// searchModeCases covers every objective (margin against f(d) = 1 + d), the
// random adversary with a seed, an rgg cell placed by that seed, ρ = 0,
// rate_windows, mutate_tail and threads, and the default budget of
// `gcssim -search -proto gradient -topology line -n 5 -dur 8`.
func searchModeCases() []searchModeCase {
	proto := func(t *testing.T, name string) engine.Protocol {
		p, err := algorithms.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	must := func(t *testing.T, net *network.Network, err error) *network.Network {
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	half := rat.MustFrac(1, 2)
	return []searchModeCase{
		{
			name: "global gradient line",
			spec: `{"protocol": "gradient", "cells": [{"topology": "line", "n": 4, "duration": "6"}],
				"seed": 3, "objective": "global", "rounds": 2, "beam": 1, "threads": 2,
				"rate_windows": 2, "mutate_tail": "1/2"}`,
			opt: func(t *testing.T) search.Options {
				net, err := network.Line(4)
				return search.Options{Net: must(t, net, err), Protocol: proto(t, "gradient"), Duration: rat.FromInt(6),
					Rho: half, Base: engine.Midpoint(), Objective: search.ObjectiveGlobalSkew,
					Rounds: 2, Beam: 1, Workers: 2, RateWindows: 2, MutateTail: half}
			},
		},
		{
			name: "local max-gossip ring",
			spec: `{"protocol": "max-gossip", "cells": [{"topology": "ring", "n": 4, "duration": "6"}],
				"adversary": "random", "seed": 3, "objective": "local", "rounds": 2, "beam": 1,
				"threads": 2, "rate_windows": 2, "mutate_tail": "1/2"}`,
			opt: func(t *testing.T) search.Options {
				net, err := network.Ring(4)
				return search.Options{Net: must(t, net, err), Protocol: proto(t, "max-gossip"), Duration: rat.FromInt(6),
					Rho: half, Base: engine.HashAdversary{Seed: 3, Denom: 8}, Objective: search.ObjectiveLocalSkew,
					Rounds: 2, Beam: 1, Workers: 2, RateWindows: 2, MutateTail: half}
			},
		},
		{
			name: "margin null line",
			spec: `{"protocol": "null", "cells": [{"topology": "line", "n": 3, "duration": "6"}],
				"adversary": "zero", "seed": 3, "objective": "margin", "rounds": 2, "beam": 1,
				"threads": 2, "rate_windows": 2, "mutate_tail": "1/2"}`,
			opt: func(t *testing.T) search.Options {
				net, err := network.Line(3)
				return search.Options{Net: must(t, net, err), Protocol: proto(t, "null"), Duration: rat.FromInt(6),
					Rho: half, Base: engine.FractionAdversary{Frac: rat.Rat{}}, Objective: search.ObjectiveGradientMargin,
					Gradient: core.LinearGradient(rat.FromInt(1), rat.FromInt(1)),
					Rounds:   2, Beam: 1, Workers: 2, RateWindows: 2, MutateTail: half}
			},
		},
		{
			name: "random gradient rgg",
			spec: `{"protocol": "gradient", "cells": [{"topology": "rgg", "n": 6, "duration": "6"}],
				"adversary": "random", "seed": 8, "rounds": 2, "beam": 1}`,
			opt: func(t *testing.T) search.Options {
				net, err := network.RandomGeometric(6, 10, 4.5, 8)
				return search.Options{Net: must(t, net, err), Protocol: proto(t, "gradient"), Duration: rat.FromInt(6),
					Rho: half, Base: engine.HashAdversary{Seed: 8, Denom: 8}, Objective: search.ObjectiveGlobalSkew,
					Rounds: 2, Beam: 1}
			},
		},
		{
			name: "rho zero gradient line",
			spec: `{"protocol": "gradient", "cells": [{"topology": "line", "n": 4, "duration": "6"}],
				"rho": "0", "rounds": 2, "beam": 1, "mutate_tail": "1/2"}`,
			opt: func(t *testing.T) search.Options {
				net, err := network.Line(4)
				return search.Options{Net: must(t, net, err), Protocol: proto(t, "gradient"), Duration: rat.FromInt(6),
					Base: engine.Midpoint(), Objective: search.ObjectiveGlobalSkew, Rounds: 2, Beam: 1, MutateTail: half}
			},
		},
		{
			name: "defaults gradient line",
			spec: `{"protocol": "gradient", "cells": [{"topology": "line", "n": 5, "duration": "8"}]}`,
			opt: func(t *testing.T) search.Options {
				net, err := network.Line(5)
				return search.Options{Net: must(t, net, err), Protocol: proto(t, "gradient"), Duration: rat.FromInt(8),
					Rho: half, Base: engine.Midpoint(), Objective: search.ObjectiveGlobalSkew}
			},
		},
	}
}

// TestSearchModeSpecs: every search gcssim -search could start is a one-cell
// campaign spec, and a Campaign's Run on that spec returns exactly the Result
// search.Search returned on the Options gcssim built from its flags.
func TestSearchModeSpecs(t *testing.T) {
	for _, tc := range searchModeCases() {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := DecodeSpec([]byte(tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			cells, err := campaign(t, spec).Run(nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := search.Search(tc.opt(t))
			if err != nil {
				t.Fatal(err)
			}
			resultsMatch(t, want, cells[0].Result)
		})
	}
}
